import json
import math
import os
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bwgeom.barycenter as bwgeom_barycenter
import bwgeom.io as bwgeom_io
from bwgeom import DimMismatchError, EmptyFamilyError, MatrixParseError, validate_psd
from bwgeom.barycenter import JointCovariance
from bwgeom.io import (
    FLOAT_FORMAT,
    Manifest,
    format_float,
    read_manifest,
    read_matrix,
    render_report,
    write_manifest,
    write_matrix,
)
from bwgeom.spectral import symmetrize


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


def test_opposite_mirrors_above_half_the_largest_double_are_asymmetric(tmp_path):
    # a - a^T overflows to infinity here, with no overflow warning: an infinite gap is asymmetric.
    p, ok = tmp_path / "m.txt", tmp_path / "ok.txt"
    p.write_text("0,1e308\n-1e308,0\n")
    write_matrix(ok, np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for arg in (p, [str(p)], [str(ok), str(p)]):
            with pytest.raises(MatrixParseError, match="asymmetric") as exc:
                read_matrix(arg)
            assert exc.value.path == str(p) and exc.value.row == 1 and exc.value.col == 2
        with pytest.raises(ValueError, match="asymmetric"):
            write_matrix(tmp_path / "w.txt", [[0.0, 1e308], [-1e308, 0.0]])


def test_read_matrix_keeps_tiny_asymmetry_for_validation_to_symmetrize(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1.0, 0.5000000000001\n0.5, 1.0\n")
    got = read_matrix(p)
    assert got[0, 1] == 0.5000000000001 and got[1, 0] == 0.5
    mat = validate_psd(got).mat
    assert mat.tobytes() == symmetrize(got).tobytes()
    np.testing.assert_array_equal(mat, mat.T)


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


def test_write_manifest_bytes_with_labels(tmp_path):
    p = tmp_path / "fam.json"
    write_manifest(p, ["a.txt", "dir/b.txt"], labels=["first", "zweite \u00c4"])
    assert p.read_bytes() == (
        b'{\n  "labels": [\n    "first",\n    "zweite \\u00c4"\n  ],\n'
        b'  "operators": [\n    "a.txt",\n    "dir/b.txt"\n  ]\n}\n'
    )


def test_manifest_relative_paths_resolve_against_manifest_dir(tmp_path):
    sub = tmp_path / "data"
    sub.mkdir()
    write_matrix(sub / "a.txt", np.eye(2))
    write_matrix(sub / "b.txt", 2.0 * np.eye(2))
    write_manifest(sub / "fam.json", ["a.txt", "b.txt"])
    man = read_manifest(sub / "fam.json")
    mats = read_matrix(man.resolved)
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


def test_read_matrix_of_manifest_files_checks_dimensions(tmp_path):
    write_matrix(tmp_path / "a.txt", np.eye(2))
    write_matrix(tmp_path / "b.txt", np.eye(3))
    man = Manifest(
        operators=["a.txt", "b.txt"],
        labels=None,
        resolved=[str(tmp_path / "a.txt"), str(tmp_path / "b.txt")],
    )
    with pytest.raises(DimMismatchError):
        read_matrix(man.resolved)


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
    """The entries of a vector as the array path of render_report writes them:
    the text between its opening and closing brackets, split at each
    separator, so a stray byte in any entry's text shows in that entry."""
    head, body, tail = bwgeom_io._float_pieces(np.asarray(x, dtype=np.float64).ravel(), 0)
    assert (head, tail) == ("[\n  ", "\n]")
    return body.split(",\n  ")


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


# 24 * 25 / 2 == _CROSSOVER upper entries; 128 rows of 128 are one block.
@pytest.mark.parametrize("n", [23, 24, 25, 127, 128, 129])
def test_write_matrix_bytes_around_the_crossover_and_the_row_block(tmp_path, rng, n):
    assert 24 * 25 // 2 == bwgeom_io._CROSSOVER and 128 * 128 == bwgeom_io._BLOCK
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


def synthetic_joint(n, d, rng):
    """A joint covariance of n random maps of dimension d about a random mean."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    mean = validate_psd((q * rng.uniform(0.5, 2.0, size=d)) @ q.T)
    return JointCovariance(mean=mean, maps=np.eye(d) + 0.3 * rng.standard_normal((n, d, d)))


# n * d below one 64-row tile, equal to it, one past it and not a multiple of it.
@pytest.mark.parametrize("n, d", [(5, 3), (8, 8), (13, 5), (13, 7)])
@pytest.mark.parametrize("tile", [1, 3, None])
def test_joint_file_is_the_file_of_its_full_matrix(tmp_path, rng, monkeypatch, n, d, tile):
    if tile is not None:
        monkeypatch.setattr(bwgeom_barycenter, "_TILE", tile)
    joint = synthetic_joint(n, d, rng)
    p, q = tmp_path / "joint.txt", tmp_path / "full.txt"
    write_matrix(p, joint)
    write_matrix(q, joint.full())
    assert p.read_bytes() == q.read_bytes()
    rows = [line.split(",") for line in p.read_text().splitlines()]
    assert len(rows) == n * d and rows == [list(col) for col in zip(*rows)]


def test_joint_with_a_non_finite_entry_is_refused(tmp_path, rng):
    joint = synthetic_joint(13, 7, rng)
    joint.maps[-1, -1, -1] = math.nan  # only the last tile holds it
    with pytest.raises(ValueError, match="non-finite"):
        write_matrix(tmp_path / "joint.txt", joint)
    assert os.listdir(tmp_path) == []


def test_joint_file_peak_memory_is_its_cell_table(tmp_path, rng):
    # 40 maps of dimension 30: the joint is 1200 x 1200, 11.5 MB as a dense array.
    joint = synthetic_joint(40, 30, rng)
    n = 1200
    tracemalloc.start()
    try:
        write_matrix(tmp_path / "joint.txt", joint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = n * (n + 1) // 2 * bwgeom_io._CELL
    assert peak < table + 0.75 * n * n * 8


def test_small_matrix_file_buffers_only_its_own_lines(tmp_path):
    # A line block holds min(n, _BLOCK // n) lines: 625 bytes for a 5 x 5 file, not 400 kB.
    write_matrix(tmp_path / "m.txt", np.eye(5))
    tracemalloc.start()
    try:
        write_matrix(tmp_path / "m.txt", np.eye(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_take_their_mode_from_the_umask(tmp_path, mask, mode):
    old = os.umask(mask)
    try:
        write_matrix(tmp_path / "m.txt", np.eye(2))
        write_manifest(tmp_path / "manifest.json", ["m.txt"])
    finally:
        os.umask(old)
    for name in ("m.txt", "manifest.json"):
        assert os.stat(tmp_path / name).st_mode & 0o777 == mode


def _report(value):
    return {"command": "demo", "inputs": {}, "results": {"a": value}, "diagnostics": {"n": [value]}, "version": "0"}


@pytest.mark.parametrize(
    "shape",
    [(301,), (1, 400), (400, 1), (20, 16), (1, 1, 350), (350, 1, 1), (7, 1, 50), (11, 10, 10)],
)
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
def test_render_report_arrays_above_the_crossover_match_their_lists(rng, shape, dtype):
    # Magnitudes inside and outside the kernel's fast range, finite in float16 too.
    top = 4 if dtype is np.float16 else 20
    a = (rng.standard_normal(shape) * 10.0 ** rng.integers(-8, top, size=shape)).astype(dtype)
    assert a.size > bwgeom_io._CROSSOVER
    assert render_report(_report(a)) == render_report(_report(a.tolist()))


def test_render_report_stack_matches_the_list_of_its_matrices(rng):
    # The geodesic's points: a (steps, d, d) stack renders as its matrices.
    stack = rng.standard_normal((11, 10, 10))
    assert render_report(_report(stack)) == render_report(_report(list(stack)))
    assert render_report(_report(stack)) == render_report(_report(stack.tolist()))


@st.composite
def _float_arrays(draw, dtype):
    """Arrays of one to three axes and 1 to 2 * _CROSSOVER finite entries."""
    inner = draw(st.lists(st.integers(1, 12), max_size=2))
    size = draw(st.integers(1, 2 * bwgeom_io._CROSSOVER))
    shape = (max(1, size // math.prod(inner)), *inner)
    width = np.dtype(dtype).itemsize * 8
    return draw(hnp.arrays(dtype, shape, elements=st.floats(allow_nan=False, allow_infinity=False, width=width)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(data=st.data())
def test_render_report_arrays_match_their_lists_on_any_shape(dtype, data):
    a = data.draw(_float_arrays(dtype))
    assert render_report(_report(a)) == render_report(_report(a.tolist()))


def _float_reference(path) -> np.ndarray:
    """A matrix file parsed entry by entry with ``float()``, as the reader did before one
    ``np.loadtxt`` parsed whole families."""
    with open(path, encoding="utf-8") as f:
        lines = [line.split("#", 1)[0].strip() for line in f]
    return np.array([[float(t) for t in line.split(",")] for line in lines if line])


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(data=st.data())
def test_read_matrix_families_match_a_float_reference_bit_for_bit(data, tmp_path_factory):
    n, d = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    # The full finite range: the reader returns entries as written, so an entry
    # above half the largest double, whose mirror sum overflows, reads back too.
    finite = st.floats(allow_nan=False, allow_infinity=False)
    mats = data.draw(hnp.arrays(np.float64, (n, d, d), elements=finite))
    mats = np.triu(mats) + np.swapaxes(np.triu(mats, 1), 1, 2)
    directory = tmp_path_factory.mktemp("family")
    paths = [str(directory / f"m{k}.txt") for k in range(n)]
    for path, m in zip(paths, mats):
        write_matrix(path, m)
    got = read_matrix(paths)
    want = np.stack([_float_reference(p) for p in paths])
    assert got.shape == (n, d, d) and got.tobytes() == want.tobytes() == mats.tobytes()
    assert read_matrix(paths[-1]).tobytes() == want[-1].tobytes()


@pytest.mark.parametrize("text", ["", "# a comment\n"], ids=["one_pass", "per_file"])
def test_read_matrix_entries_above_half_the_largest_double_round_trip(tmp_path, text):
    # a + a^T would overflow here; the reader returns each entry as written, with
    # no overflow warning, through the one-pass parse and the per-file reader.
    big = np.array([[9e307, -1.7976931348623157e308], [-1.7976931348623157e308, 1e-310]])
    path = tmp_path / "big.txt"
    write_matrix(path, big)
    path.write_text(text + path.read_text())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_matrix(path).tobytes() == big.tobytes()
        assert read_matrix([str(path)] * 2).tobytes() == np.stack([big, big]).tobytes()
    write_matrix(path, [[9e307]])
    assert read_matrix(path).tobytes() == np.array([[9e307]]).tobytes()


# Comments, blank lines, CRLF ends, signs, spaces, exponents and an underscore,
# which float() reads and np.loadtxt does not.
_HAND_WRITTEN = [
    "# a comment\r\n\r\n+2.0, 1e0 # trailing\r\n 1 ,\t3E+0\r\n",
    "2.5e-1,-1_0\n-10,  +4\n\n",
    "1.0,0.5\n0.5,2.0",
]


@pytest.mark.parametrize("text", _HAND_WRITTEN)
def test_read_matrix_hand_written_members_parse_as_float_reads_them(tmp_path, text):
    clean = tmp_path / "clean.txt"
    write_matrix(clean, np.diag([1.0, 2.0]))
    member = tmp_path / "member.txt"
    member.write_bytes(text.encode("utf-8"))
    want = _float_reference(member)
    assert read_matrix(member).tobytes() == want.tobytes()
    stack = read_matrix([str(clean), str(member), str(clean)])
    np.testing.assert_array_equal(stack, [np.diag([1.0, 2.0]), want, np.diag([1.0, 2.0])])


_CLEAN = "2,0,0\n0,2,0\n0,0,2\n"
# Text of a faulty member -> (row, col) of the error.
_FAULTS = {
    "1,0,0\n0,abc,0\n0,0,1\n": (2, 2),
    "1,0,0\n0,1,0\n0,0,nan\n": (3, 3),
    "1,0,0\n0,1\n0,0,1\n": (2, None),
    "1,0,0\n0,1,0\n": (None, None),
    "# no data\n\n": (None, None),
    "": (None, None),
    "1,0,0.5\n0,1,0\n0,0,1\n": (1, 3),
    None: (None, None),
}


@pytest.mark.parametrize("k", [0, 2, 4])
@pytest.mark.parametrize("fault", list(_FAULTS), ids=lambda t: repr(t))
def test_read_matrix_names_the_faulty_member_of_a_family(tmp_path, fault, k):
    paths = [str(tmp_path / f"m{i}.txt") for i in range(5)]
    for i, path in enumerate(paths):
        if i != k or fault is not None:
            Path(path).write_text(fault if i == k else _CLEAN, encoding="utf-8")
    with pytest.raises(MatrixParseError) as exc:
        read_matrix(paths)
    assert (exc.value.path, exc.value.row, exc.value.col) == (paths[k], *_FAULTS[fault])


def test_read_matrix_does_not_pair_a_short_member_with_a_long_one(tmp_path):
    # The six rows of width 3 would fill a (2, 3, 3) stack of identities.
    paths = [str(tmp_path / "short.txt"), str(tmp_path / "long.txt")]
    Path(paths[0]).write_text("1,0,0\n0,1,0\n")
    Path(paths[1]).write_text("0,0,1\n1,0,0\n0,1,0\n0,0,1\n")
    with pytest.raises(MatrixParseError, match="matrix is 2x3, expected square") as exc:
        read_matrix(paths)
    assert exc.value.path == paths[0]


def test_read_matrix_of_no_files_is_an_empty_family():
    with pytest.raises(EmptyFamilyError):
        read_matrix([])


def test_read_matrix_reports_faults_in_file_order_before_dimensions(tmp_path):
    paths = [str(tmp_path / f"m{i}.txt") for i in range(1, 6)]
    Path(paths[0]).write_text(_CLEAN)
    Path(paths[1]).write_text("1,0,0\n0,1,0\n0,abc,1\n")
    Path(paths[2]).write_text("1,0\n0,1\n")
    Path(paths[4]).write_text(_CLEAN)
    with pytest.raises(MatrixParseError) as exc:
        read_matrix(paths)
    assert (exc.value.path, exc.value.row, exc.value.col) == (paths[1], 3, 2)
    Path(paths[1]).write_text(_CLEAN)
    with pytest.raises(MatrixParseError) as exc:
        read_matrix(paths)
    assert (exc.value.path, exc.value.row) == (paths[3], None)
    Path(paths[3]).write_text(_CLEAN)
    with pytest.raises(DimMismatchError):
        read_matrix(paths)


@pytest.mark.parametrize("empty", ["", "\n", "\n\n", "  \n"])
def test_read_matrix_of_an_empty_member_raises_no_numpy_warning(tmp_path, empty):
    Path(tmp_path / "a.txt").write_text(_CLEAN)
    Path(tmp_path / "b.txt").write_text(empty)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for paths in ([str(tmp_path / "b.txt")], [str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]):
            with pytest.raises(MatrixParseError, match="no matrix rows found"):
                read_matrix(paths)
