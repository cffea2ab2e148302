import json
import math
import os
from decimal import Decimal

import numpy as np
import pytest

import bwgeom.io as bwgeom_io
from bwgeom import DimMismatchError, MatrixParseError
from bwgeom.io import (
    FLOAT_FORMAT,
    Manifest,
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
    return {
        "command": "demo",
        "inputs": {"b": 2, "a": [1.5, 1e-17]},
        "results": {"matrix": np.array([[1.0, 0.5], [0.5, 1.0]]), "flag": True},
        "diagnostics": {"nan_value": math.nan, "note": "fine"},
        "version": "0.0.0",
    }


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
    rep["results"]["bad"] = object()
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
        "matrix32_large": (rng.standard_normal((40, 30)) * 10.0 ** rng.integers(-6, 6, size=(40, 30))).astype(
            np.float32
        ),
        "matrix16": rng.standard_normal((20, 20)).astype(np.float16),
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
        return {
            "command": "demo",
            "inputs": {},
            "results": values,
            "diagnostics": {"nested": [values["vector"], {"m": values["cube"]}]},
            "version": "0.0.0",
        }

    assert render_report(report(lambda v: v)) == render_report(report(lambda v: v.tolist()))


# The numpy kernel behind write_matrix and render_report must give, entry for
# entry, the text of FLOAT_FORMAT %; these tests compare the two byte for byte.


def kernel_texts(x):
    return bwgeom_io._texts(np.asarray(x, dtype=np.float64))


def percent_texts(x):
    return [FLOAT_FORMAT % v for v in np.asarray(x, dtype=np.float64).tolist()]


def test_kernel_matches_percent_on_random_bit_patterns(rng):
    x = np.frombuffer(rng.bytes(8 * 200_000), dtype=np.float64)
    x = x[np.isfinite(x)]
    assert kernel_texts(x) == percent_texts(x)


def test_kernel_matches_percent_log_uniformly_in_and_around_the_fast_range(rng):
    x = np.exp(rng.uniform(math.log(1e-7), math.log(1e20), 200_000))
    x *= rng.choice([-1.0, 1.0], size=x.size)
    assert np.count_nonzero((1e-4 <= np.abs(x)) & (np.abs(x) < 1e17)) > 150_000
    edges = np.array([1e-4, 1e17, 0.0001, 99999999999999999.0, 1e16, 1e-3])
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    near = np.concatenate([near, -near])
    assert kernel_texts(np.concatenate([x, near])) == percent_texts(np.concatenate([x, near]))
    # The entries at the edges alone, too few for the kernel, and inside a long vector.
    assert kernel_texts(near) == percent_texts(near)
    assert kernel_texts(np.tile(near, 50)) == percent_texts(np.tile(near, 50))


def test_kernel_matches_percent_on_powers_of_ten_and_their_neighbours():
    p = np.array([10.0**e for e in range(-8, 23)] + [float(10**e) for e in range(23)])
    x = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    x = np.concatenate([x, -x, 9.0 * x, 9.999999999999999 * x])
    assert kernel_texts(x) == percent_texts(x)


def test_kernel_rounds_exact_seventeen_digit_ties_half_to_even(rng):
    # In [2**49, 10**15) doubles are multiples of 1/8: x.125, x.375, x.625 and
    # x.875 have 18 significant digits ending in 5, an exact tie at the 17th.
    x = rng.integers(2**49, 10**15, size=20_000).astype(np.float64)
    x += rng.choice([0.125, 0.375, 0.625, 0.875], size=x.size)
    x = np.concatenate([x, x * 2.0**-30, -x * 2.0**-45])
    ties = [v for v in x[:1000].tolist() if len(str(Decimal(v)).replace(".", "").lstrip("0")) == 18]
    assert len(ties) == 1000 and all(str(Decimal(v)).endswith("5") for v in ties)
    assert kernel_texts(x) == percent_texts(x)
    # Half to even both ways: ...12|5 keeps 2, ...13|5 rounds up to 4.
    assert kernel_texts(np.array([562949953421312.125, 562949953421313.375] * 200))[:2] == [
        "562949953421312.12",
        "562949953421313.38",
    ]


def test_kernel_drops_trailing_zeros_and_bare_points(rng):
    x = np.concatenate(
        [
            rng.integers(-10**6, 10**6, size=5000) / 4.0,
            rng.integers(-10**16, 10**16, size=5000).astype(np.float64),
            rng.integers(1, 10**4, size=5000) * 1e-4,
            [0.5, 100.0, 1e16, 1234.5, 0.0001, 0.25, 1.0, 10.0, 12345678901234567.0],
        ]
    )
    texts = kernel_texts(x)
    assert texts == percent_texts(x)
    assert "1234.5" in texts and "100" in texts and "0.0001" in texts and "1" in texts


def test_kernel_matches_percent_on_zeros_and_subnormals(rng):
    tiny = np.float64(5e-324) * rng.integers(1, 2**52, size=2000)
    x = np.concatenate([[0.0, -0.0] * 500, tiny, -tiny, [2.2250738585072014e-308, 5e-324]])
    rng.shuffle(x)
    texts = kernel_texts(x)
    assert texts == percent_texts(x)
    assert texts.count("0") + texts.count("-0") == 1000
    # A vector of zeros alone goes through the kernel's fast path.
    zeros = np.zeros(1000) * rng.choice([-1.0, 1.0], size=1000)
    assert kernel_texts(zeros) == percent_texts(zeros)


def test_render_report_floats_on_both_sides_of_the_crossover_and_block_edge(rng):
    sizes = [bwgeom_io._CROSSOVER + k for k in (-1, 0, 1)] + [bwgeom_io._BLOCK + k for k in (-1, 0, 1)]
    for n in sizes:
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 20, size=n)
        assert kernel_texts(x) == percent_texts(x)
        m = x[: n - n % 3].reshape(3, -1)
        report = {"command": "demo", "inputs": {}, "results": {"m": m}, "diagnostics": {}, "version": "0"}
        listed = {"command": "demo", "inputs": {}, "results": {"m": m.tolist()}, "diagnostics": {}, "version": "0"}
        assert render_report(report) == render_report(listed)


def symmetric_fast_range(n, rng):
    a = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 5, size=(n, n))
    a = (a + a.T) / 2.0
    a[rng.random((n, n)) < 0.05] = 0.0
    a[0, 0] = 1e-5  # one entry outside the fast range
    return np.triu(a) + np.triu(a, 1).T


# 24 * 25 / 2 == _CROSSOVER upper entries; 64 rows of 64 are one block.
@pytest.mark.parametrize("n", [23, 24, 25, 63, 64, 65])
def test_write_matrix_bytes_around_the_crossover_and_the_row_block(tmp_path, rng, n):
    assert 24 * 25 // 2 == bwgeom_io._CROSSOVER and 64 * 64 == bwgeom_io._BLOCK
    a = symmetric_fast_range(n, rng)
    p = tmp_path / "m.txt"
    write_matrix(p, a)
    assert p.read_bytes() == reference_matrix_text(a).encode("utf-8")


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 40])
def test_write_matrix_bytes_with_small_blocks(tmp_path, rng, monkeypatch, n):
    # Blocks of 16 entries and a crossover of 4 put row-block edges, partial
    # blocks and lines longer than a block (n > 16) into small matrices.
    monkeypatch.setattr(bwgeom_io, "_BLOCK", 16)
    monkeypatch.setattr(bwgeom_io, "_CROSSOVER", 4)
    for a in (symmetric_fast_range(n, rng), -symmetric_fast_range(n, rng) * 1e-9):
        p = tmp_path / "m.txt"
        write_matrix(p, a)
        assert p.read_bytes() == reference_matrix_text(a).encode("utf-8")
        assert kernel_texts(a.ravel()) == percent_texts(a.ravel())


def test_write_matrix_mirrors_the_upper_triangle_text(tmp_path):
    # Within SYMMETRY_RTOL the lower triangle is written as the upper one.
    a = np.full((30, 30), 0.5)
    a[np.tril_indices(30, -1)] = 0.5 + 1e-12
    p = tmp_path / "m.txt"
    write_matrix(p, a)
    assert p.read_bytes() == ((",".join(["0.5"] * 30) + "\n") * 30).encode("utf-8")
