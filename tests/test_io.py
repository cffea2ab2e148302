import json
import math
import os

import numpy as np
import pytest

from bwgeom import DimMismatchError, MatrixParseError
from bwgeom.io import (
    FLOAT_FORMAT,
    Manifest,
    Report,
    format_float,
    load_family,
    read_manifest,
    read_matrix,
    render_report,
    write_manifest,
    write_matrix,
)


def test_matrix_round_trip_is_bit_exact(tmp_path, rng):
    a = rng.standard_normal((4, 4))
    a = (a + a.T) / 2.0
    a[0, 0] = 1.0 / 3.0
    a[1, 1] = 1e-17
    a[2, 2] = 12345678901234.5
    p = tmp_path / "m.txt"
    write_matrix(p, a)
    back = read_matrix(p)
    np.testing.assert_array_equal(back, a)


def test_read_matrix_ignores_comments_and_blank_lines(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("# covariance\n\n2.0, 1.0  # row one\n1.0, 2.0\n\n")
    got = read_matrix(p)
    np.testing.assert_array_equal(got, np.array([[2.0, 1.0], [1.0, 2.0]]))


def test_read_matrix_error_positions():
    with pytest.raises(MatrixParseError):
        read_matrix("/nonexistent/matrix.txt")


def test_read_matrix_rejects_bad_number(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1.0, 2.0\n2.0, abc\n")
    with pytest.raises(MatrixParseError) as exc:
        read_matrix(p)
    assert exc.value.row == 2
    assert exc.value.col == 2
    assert "abc" in str(exc.value)


def test_read_matrix_rejects_non_finite(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1.0, 0.0\n0.0, inf\n")
    with pytest.raises(MatrixParseError) as exc:
        read_matrix(p)
    assert exc.value.row == 2


def test_read_matrix_rejects_ragged_rows(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1.0, 0.0\n0.0\n")
    with pytest.raises(MatrixParseError) as exc:
        read_matrix(p)
    assert exc.value.row == 2


def test_read_matrix_rejects_non_square(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1.0, 0.0\n")
    with pytest.raises(MatrixParseError):
        read_matrix(p)


def test_read_matrix_rejects_empty(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("# nothing here\n")
    with pytest.raises(MatrixParseError):
        read_matrix(p)


def test_read_matrix_rejects_asymmetry_and_reports_entries(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1.0, 0.5\n0.75, 1.0\n")
    with pytest.raises(MatrixParseError) as exc:
        read_matrix(p)
    msg = str(exc.value)
    assert "0.5" in msg and "0.75" in msg


def test_read_matrix_symmetrizes_tiny_asymmetry(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1.0, 0.5000000000001\n0.5, 1.0\n")
    got = read_matrix(p)
    np.testing.assert_array_equal(got, got.T)


def test_format_float_round_trips_doubles(rng):
    xs = [1.0 / 3.0, 0.1, 1e-300, 1e300, 12345678901234.5, -7.25]
    xs += list(rng.standard_normal(50))
    for x in xs:
        assert float(format_float(x)) == x


def test_manifest_round_trip_with_labels(tmp_path):
    write_manifest(tmp_path / "fam.json", ["a.txt", "b.txt"], labels=["first", "second"])
    man = read_manifest(tmp_path / "fam.json")
    assert man.operators == ["a.txt", "b.txt"]
    assert man.labels == ["first", "second"]
    assert man.resolved == [str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]


def test_manifest_relative_paths_resolve_against_manifest_dir(tmp_path):
    sub = tmp_path / "data"
    sub.mkdir()
    write_matrix(sub / "a.txt", np.eye(2))
    write_matrix(sub / "b.txt", 2.0 * np.eye(2))
    write_manifest(sub / "fam.json", ["a.txt", "b.txt"])
    man = read_manifest(sub / "fam.json")
    mats = load_family(man)
    np.testing.assert_array_equal(mats[0], np.eye(2))
    np.testing.assert_array_equal(mats[1], 2.0 * np.eye(2))


def test_manifest_validation_errors(tmp_path):
    p = tmp_path / "fam.json"
    p.write_text("[1, 2]\n")
    with pytest.raises(MatrixParseError):
        read_manifest(p)
    p.write_text("{\"operators\": []}\n")
    with pytest.raises(MatrixParseError):
        read_manifest(p)
    p.write_text("{\"operators\": [\"a.txt\"], \"labels\": [\"x\", \"y\"]}\n")
    with pytest.raises(MatrixParseError):
        read_manifest(p)
    p.write_text("not json\n")
    with pytest.raises(MatrixParseError):
        read_manifest(p)


def test_load_family_checks_dimensions(tmp_path):
    write_matrix(tmp_path / "a.txt", np.eye(2))
    write_matrix(tmp_path / "b.txt", np.eye(3))
    man = Manifest(
        operators=["a.txt", "b.txt"],
        labels=None,
        resolved=[str(tmp_path / "a.txt"), str(tmp_path / "b.txt")],
    )
    with pytest.raises(DimMismatchError):
        load_family(man)


def sample_report():
    return Report(
        command="demo",
        inputs={"b": 2, "a": [1.5, 1e-17]},
        results={"matrix": np.array([[1.0, 0.5], [0.5, 1.0]]), "flag": True},
        diagnostics={"nan_value": math.nan, "note": "fine"},
        version="0.0.0",
    )


def test_render_report_is_deterministic_and_sorted():
    text1 = render_report(sample_report())
    text2 = render_report(sample_report())
    assert text1 == text2
    doc = json.loads(text1)
    assert doc["inputs"]["a"] == [1.5, 1e-17]
    keys = list(text1.split("\n"))
    a_line = next(i for i, l in enumerate(keys) if '"a"' in l)
    b_line = next(i for i, l in enumerate(keys) if '"b"' in l)
    assert a_line < b_line


def test_render_report_maps_non_finite_to_null():
    doc = json.loads(render_report(sample_report()))
    assert doc["diagnostics"]["nan_value"] is None


def test_render_report_rejects_unknown_types():
    rep = sample_report()
    rep.results["bad"] = object()
    with pytest.raises(TypeError):
        render_report(rep)


def test_write_matrix_is_atomic_and_leaves_no_temp(tmp_path):
    p = tmp_path / "out.txt"
    write_matrix(p, np.eye(3))
    write_matrix(p, 2.0 * np.eye(3))
    np.testing.assert_array_equal(read_matrix(p), 2.0 * np.eye(3))
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".bwgeom-")]
    assert leftovers == []


SPECIAL_DOUBLES = [-0.0, 5e-324, 1e308, 1.0 / 3.0, 123456789012345678.0]


def reference_matrix_text(m):
    """The per-entry writer that the row-streaming ``write_matrix`` replaced."""
    return "\n".join(",".join(format(float(x), ".17g") for x in row) for row in m) + "\n"


@pytest.mark.parametrize("n", [1, 2, 5, 37, 200])
def test_write_matrix_bytes_match_per_entry_writer(tmp_path, rng, n):
    a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300, size=(n, n))
    a = (a + a.T) / 2.0
    for k, x in enumerate(SPECIAL_DOUBLES):
        i, j = k % n, (2 * k + 1) % n
        a[i, j] = a[j, i] = x if k % 2 else -x
    p = tmp_path / "m.txt"
    write_matrix(p, a)
    assert p.read_bytes() == reference_matrix_text(a).encode("utf-8")


def test_write_matrix_golden_text(tmp_path):
    p = tmp_path / "m.txt"
    write_matrix(p, np.array([[2.0, 1.0 / 3.0], [1.0 / 3.0, -0.0]]))
    assert p.read_bytes() == b"2,0.33333333333333331\n0.33333333333333331,-0\n"


def test_write_matrix_rejects_what_read_matrix_refuses(tmp_path):
    p = tmp_path / "m.txt"
    for bad in (np.ones((2, 3)), np.ones(3), np.zeros((0, 0))):
        with pytest.raises(ValueError, match="square"):
            write_matrix(p, bad)
    with pytest.raises(ValueError, match="non-finite"):
        write_matrix(p, np.diag([1.0, math.inf]))
    with pytest.raises(ValueError, match="asymmetric") as exc:
        write_matrix(p, np.array([[1.0, 0.5], [0.75, 1.0]]))
    assert "0.5" in str(exc.value) and "0.75" in str(exc.value)
    assert os.listdir(tmp_path) == []
    # Within SYMMETRY_RTOL the upper triangle is written for both halves.
    write_matrix(p, np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]]))
    np.testing.assert_array_equal(read_matrix(p), [[1.0, 0.5 + 1e-12], [0.5 + 1e-12, 1.0]])


def test_float_format_matches_format_float_on_random_bit_patterns(rng):
    xs = SPECIAL_DOUBLES + [-x for x in SPECIAL_DOUBLES] + [math.nan, -math.nan, math.inf, -math.inf]
    xs += np.frombuffer(rng.bytes(8 * 100_000), dtype=np.float64).tolist()
    expected = [format(x, ".17g") for x in xs]
    assert [FLOAT_FORMAT % x for x in xs] == expected
    assert [format_float(x) for x in xs] == expected


def test_render_report_arrays_match_their_lists(rng):
    arrays = {
        "vector": np.array(SPECIAL_DOUBLES + [-1e-300, 2.5]),
        "vector32": np.array([0.1, -2.5, 3e38, 1e-45], dtype=np.float32),
        "matrix": rng.standard_normal((3, 4)),
        "matrix32": rng.standard_normal((2, 2)).astype(np.float32),
        "cube": rng.standard_normal((2, 3, 2)),
        "non_finite": np.array([1.0, math.nan, math.inf, -math.inf]),
        "non_finite_rows": np.array([[math.nan, 1.0], [2.0, -math.inf]], dtype=np.float32),
        "empty": np.array([]),
        "empty_rows": np.zeros((3, 0)),
        "no_rows": np.zeros((0, 3)),
        "ints": np.arange(-3, 3),
        "int_matrix": np.arange(6, dtype=np.int32).reshape(2, 3),
        "bools": np.array([[True, False], [False, True]]),
    }

    def report(convert):
        values = {k: convert(v) for k, v in arrays.items()}
        return Report(
            command="demo",
            inputs={},
            results=values,
            diagnostics={"nested": [values["vector"], {"m": values["cube"]}]},
            version="0.0.0",
        )

    assert render_report(report(lambda v: v)) == render_report(report(lambda v: v.tolist()))
