import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bwgeom import (
    BwGeomError,
    DegenerateError,
    DimMismatchError,
    EmptyFamilyError,
    KernelConditionError,
    LeavesConeError,
    MatrixParseError,
    MaxIterExceeded,
    NonFiniteError,
    NotPSDError,
    OutOfRangeError,
    __version__,
    mean_fixed_point,
    optimal_map,
    validate_psd,
)
import bwgeom.cli as bwgeom_cli
from bwgeom.cli import build_parser, main
from bwgeom.io import read_matrix, write_manifest, write_matrix
from bwgeom.spectral import _condition

from conftest import count_eigh_calls


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_family(tmp_path, mats, name="fam.json", labels=None):
    names = []
    for i, m in enumerate(mats):
        fname = f"op_{i}.txt"
        write_matrix(tmp_path / fname, m)
        names.append(fname)
    write_manifest(tmp_path / name, names, labels=labels)
    return str(tmp_path / name)


def test_distance_command_reports_exact_value(tmp_path, capsys):
    write_matrix(tmp_path / "a.txt", np.diag([4.0, 1.0]))
    write_matrix(tmp_path / "b.txt", np.diag([1.0, 4.0]))
    code, out, err = run_cli(capsys, "distance", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"))
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "distance"
    assert doc["results"]["procrustes"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert doc["results"]["procrustes"] <= doc["results"]["root_hs_distance"] + 1e-12
    assert doc["version"] == __version__


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_main_builds_the_parser_once_per_process(tmp_path, capsys):
    write_matrix(tmp_path / "a.txt", np.eye(2))
    build_parser.cache_clear()
    for _ in range(2):
        assert run_cli(capsys, "distance", str(tmp_path / "a.txt"), str(tmp_path / "a.txt"))[0] == 0
    assert build_parser.cache_info().misses == 1


def test_importing_the_cli_builds_no_parser():
    src = str(Path(bwgeom_cli.__file__).parents[1])
    code = "import bwgeom.cli as c; print(c.build_parser.cache_info().misses)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout == "0\n"


def test_mean_command_writes_file_and_converges(tmp_path, capsys):
    manifest = write_family(
        tmp_path,
        [np.diag([4.0, 1.0]), np.diag([1.0, 4.0])],
        labels=["first", "second"],
    )
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "mean", manifest, "--output", str(out_dir))
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["converged"] is True
    assert doc["inputs"]["labels"] == ["first", "second"]
    mean = read_matrix(out_dir / "mean.txt")
    np.testing.assert_allclose(mean, 2.25 * np.eye(2), atol=1e-9)
    assert doc["results"]["trace"] == pytest.approx(4.5, abs=1e-9)


def test_mean_gpa_agrees_with_descent(tmp_path, capsys):
    mats = [np.diag([4.0, 1.0]), np.diag([1.0, 4.0]), np.eye(2)]
    manifest = write_family(tmp_path, mats)
    code_d, out_d, _ = run_cli(capsys, "mean", manifest, "--output", str(tmp_path / "d"))
    code_g, out_g, _ = run_cli(
        capsys, "mean", manifest, "--algorithm", "gpa", "--output", str(tmp_path / "g")
    )
    assert code_d == 0 and code_g == 0
    md = read_matrix(tmp_path / "d" / "mean.txt")
    mg = read_matrix(tmp_path / "g" / "mean.txt")
    np.testing.assert_allclose(md, mg, atol=1e-5)


def test_mean_iteration_cap_still_writes_best_iterate(tmp_path, capsys, rng):
    from conftest import make_spd

    mats = [make_spd(3, rng) for _ in range(4)]
    manifest = write_family(tmp_path, mats)
    out_dir = tmp_path / "capped"
    code, out, err = run_cli(
        capsys, "mean", manifest, "--max-iter", "1", "--rel-tol", "1e-13",
        "--output", str(out_dir),
    )
    assert code == 6
    doc = json.loads(out)
    assert doc["results"]["converged"] is False
    assert doc["results"]["iterations"] == 1
    assert (out_dir / "mean.txt").exists()
    assert "warning" in err


def test_exit_codes_for_unusable_inputs(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0, oops\n2.0, 1.0\n")
    write_matrix(tmp_path / "good.txt", np.eye(2))
    code, out, err = run_cli(capsys, "distance", str(bad), str(tmp_path / "good.txt"))
    assert code == 2 and out == "" and "error" in err

    manifest = write_family(tmp_path, [np.eye(2), 2.0 * np.eye(2)])
    code, _, _ = run_cli(capsys, "mean", manifest, "--max-iter", "0")
    assert code == 2
    code, _, _ = run_cli(
        capsys, "geodesic", str(tmp_path / "good.txt"), str(tmp_path / "good.txt"),
        "--steps", "1",
    )
    assert code == 2
    code, _, _ = run_cli(capsys, "simulate", "counterexample", "--ratio", "5.0")
    assert code == 2
    code, _, _ = run_cli(
        capsys, "simulate", "moments", str(tmp_path / "good.txt"), "--samples", "10"
    )
    assert code == 2


def test_exit_code_for_opposite_huge_mirrors_names_the_file(tmp_path, capsys):
    # a - a^T overflows in the asymmetry test: unusable input, with no overflow warning.
    huge = tmp_path / "huge.txt"
    huge.write_text("0,1e308\n-1e308,0\n")
    write_matrix(tmp_path / "ok.txt", np.eye(2))
    write_manifest(tmp_path / "fam.json", ["ok.txt", "huge.txt"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (
            ["distance", str(huge), str(tmp_path / "ok.txt")],
            ["mean", str(tmp_path / "fam.json"), "--output", str(tmp_path / "out")],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "" and str(huge) in err and "asymmetric" in err


def test_entries_above_half_the_largest_double_exit_2_naming_the_overflow(tmp_path, capsys):
    # The file is symmetric and finite, but a + a^T overflows when validation symmetrizes it.
    huge = tmp_path / "huge.txt"
    huge.write_text("1e308,0\n0,1\n")
    write_matrix(tmp_path / "eye2.txt", np.eye(2))
    write_manifest(tmp_path / "fam.json", ["eye2.txt", "huge.txt"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (
            ["distance", str(huge), str(tmp_path / "eye2.txt")],
            ["geodesic", str(huge), str(tmp_path / "eye2.txt")],
            ["mean", str(tmp_path / "fam.json"), "--output", str(tmp_path / "out")],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "" and "overflow" in err


def test_scales_whose_products_overflow_exit_2_before_any_warning(tmp_path, capsys):
    # Finite, symmetric and PSD, but the root sandwiches of the distance and the maps would overflow.
    (tmp_path / "a.txt").write_text("1e300,2e299\n2e299,3e300\n")
    (tmp_path / "b.txt").write_text("2e300,0\n0,1e300\n")
    write_manifest(tmp_path / "fam.json", ["a.txt", "b.txt"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (
            ["distance", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")],
            ["geodesic", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")],
            ["mean", str(tmp_path / "fam.json"), "--output", str(tmp_path / "out")],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "" and "overflow" in err


def test_exit_code_dimension_mismatch(tmp_path, capsys):
    write_matrix(tmp_path / "a.txt", np.eye(2))
    write_matrix(tmp_path / "b.txt", np.eye(3))
    code, out, err = run_cli(capsys, "distance", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"))
    assert code == 3
    assert "error" in err


def test_exit_code_not_psd_names_offending_file(tmp_path, capsys):
    write_matrix(tmp_path / "indef.txt", np.array([[1.0, 2.0], [2.0, 1.0]]))
    write_matrix(tmp_path / "ok.txt", np.eye(2))
    code, out, err = run_cli(capsys, "distance", str(tmp_path / "indef.txt"), str(tmp_path / "ok.txt"))
    assert code == 4
    assert "indef.txt" in err


def test_exit_code_not_psd_names_the_first_offending_manifest_entry(tmp_path, capsys):
    mats = [np.eye(2) * (i + 1) for i in range(5)]
    mats[2] = np.array([[1.0, 2.0], [2.0, 1.0]])
    manifest = write_family(tmp_path, mats)
    for cmd in ("mean", "pca", "multicouple"):
        code, out, err = run_cli(capsys, cmd, manifest, "--output", str(tmp_path / cmd))
        assert (code, out) == (4, "") and "op_2.txt" in err
    # Two indefinite members: the error names the first in manifest order.
    mats[4] = -np.eye(2)
    code, out, err = run_cli(capsys, "mean", write_family(tmp_path, mats), "--output", str(tmp_path / "two"))
    assert code == 4 and "op_2.txt" in err and "op_4.txt" not in err


def test_unwritable_output_exits_2_and_names_it(tmp_path, capsys):
    manifest = write_family(tmp_path, [np.diag([4.0, 1.0]), np.diag([1.0, 4.0])])
    taken = tmp_path / "afile"
    taken.write_text("not a directory\n")
    code, out, err = run_cli(capsys, "mean", manifest, "--output", str(taken))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {taken}: ") and "File exists" in err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("k", ["0", "3"])
def test_pca_checks_components_before_the_solve(tmp_path, capsys, monkeypatch, k):
    import bwgeom.cli

    def unreachable(*args, **kwargs):
        raise AssertionError("the mean was solved before -k was checked")

    monkeypatch.setattr(bwgeom.cli, "mean_fixed_point", unreachable)
    # Two 2x2 members: at most min(2, 3) = 2 components.
    manifest = write_family(tmp_path, [np.diag([4.0, 1.0]), np.diag([1.0, 4.0])])
    out_dir = tmp_path / "pca"
    code, out, err = run_cli(capsys, "pca", manifest, "-k", k, "--output", str(out_dir))
    assert (code, out, err) == (2, "", f"error: component count k={k} outside 1..2\n")
    assert not out_dir.exists()


def test_exit_code_kernel_condition(tmp_path, capsys):
    write_matrix(tmp_path / "a.txt", np.diag([1.0, 0.0]))
    write_matrix(tmp_path / "b.txt", np.diag([0.0, 1.0]))
    code, out, err = run_cli(capsys, "geodesic", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"))
    assert code == 5
    assert "error" in err


def test_geodesic_speed_table_is_flat(tmp_path, capsys):
    write_matrix(tmp_path / "a.txt", np.diag([4.0, 1.0]))
    write_matrix(tmp_path / "b.txt", np.diag([1.0, 4.0]))
    code, out, _ = run_cli(
        capsys, "geodesic", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"), "--steps", "5"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]["grid"]) == 5
    assert len(doc["results"]["speed_table"]) == 10
    assert doc["results"]["max_speed_deviation"] <= 1e-6 * (1.0 + doc["results"]["distance"])
    assert doc["diagnostics"]["endpoint_gap"] <= 1e-12


def count_optimal_map_calls(monkeypatch) -> list:
    """Calls to ``optimal_map``, rebound in every module that imported it so no call escapes the count."""
    from bwgeom.bures import optimal_map

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return optimal_map(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("bwgeom") and hasattr(module, "optimal_map"):
            monkeypatch.setattr(module, "optimal_map", counted)
    return calls


def test_geodesic_command_computes_the_transport_map_once(tmp_path, capsys, monkeypatch):
    calls = count_optimal_map_calls(monkeypatch)
    eighs = count_eigh_calls(monkeypatch)
    rng = np.random.default_rng(3)
    for name in ("a.txt", "b.txt"):
        x = rng.standard_normal((4, 4))
        write_matrix(tmp_path / name, x @ x.T + np.eye(4))
    code, out, _ = run_cli(
        capsys, "geodesic", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"), "--steps", "11"
    )
    assert code == 0
    assert len(json.loads(out)["results"]["points"]) == 11
    assert len(calls) == 1
    # The validation of both inputs, the transport map, and the whole grid at once.
    assert eighs == [(2, 4, 4), (4, 4), (11, 4, 4)]


def _pca_with_lift_reference(tmp_path, capsys, monkeypatch, manifest, flag):
    """``pca``'s reported variances, its ``optimal_map`` calls, and the
    variances of ``tangent_pca`` over ``lift``'s maps at the solve's own mean."""
    import bwgeom.cli
    from bwgeom.tpca import lift, tangent_pca

    solve, solved = bwgeom.cli._solve_mean, []

    def recording(covs, args):
        solved.append((covs, solve(covs, args)))
        return solved[-1][1]

    monkeypatch.setattr(bwgeom.cli, "_solve_mean", recording)
    calls = count_optimal_map_calls(monkeypatch)
    code, out, _ = run_cli(capsys, "pca", manifest, *flag, "--output", str(tmp_path / "pca"))
    assert code == 0
    made = len(calls)
    [(covs, res)] = solved
    tol = float(flag[1]) if flag else None
    want = tangent_pca(lift(covs, res.mean, tol), res.mean, len(covs)).variances
    return np.array(json.loads(out)["results"]["variances"]), made, want


@pytest.mark.parametrize("flag", [[], ["--rank-tol", "1e-10"]])
def test_pca_command_lifts_from_the_solves_product_roots(tmp_path, capsys, monkeypatch, flag):
    rng = np.random.default_rng(5)
    manifest = write_family(tmp_path, [x @ x.T + np.eye(3) for x in rng.standard_normal((6, 3, 3))])
    got, calls, want = _pca_with_lift_reference(tmp_path, capsys, monkeypatch, manifest, flag)
    # At a full-rank mean the roots give lift's maps bit for bit.
    assert calls == 0 and np.array_equal(got, want)


@pytest.mark.parametrize("flag", [[], ["--rank-tol", "1e-10"]])
def test_pca_command_on_a_common_kernel_lifts_from_the_roots(tmp_path, capsys, monkeypatch, flag):
    # The run is deflated; its roots are lifted back to the full space.
    p = np.diag([1.0, 1.0, 0.0])
    rng = np.random.default_rng(5)
    manifest = write_family(tmp_path, [p @ (x @ x.T + np.eye(3)) @ p for x in rng.standard_normal((4, 3, 3))])
    got, calls, want = _pca_with_lift_reference(tmp_path, capsys, monkeypatch, manifest, flag)
    assert calls == 0 and np.max(np.abs(got - want)) <= 1e-10


def test_geodesic_command_solves_one_cross_trace_stack_for_all_pairs(tmp_path, capsys, monkeypatch):
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    rng = np.random.default_rng(3)
    for name in ("a.txt", "b.txt"):
        x = rng.standard_normal((4, 4))
        write_matrix(tmp_path / name, x @ x.T + np.eye(4))
    code, out, _ = run_cli(
        capsys, "geodesic", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"), "--steps", "11"
    )
    assert code == 0
    assert len(json.loads(out)["results"]["speed_table"]) == 55
    # The endpoint distance as a one-pair stack, then the 55 pairs of the grid,
    # all of full rank and within one block, as one stack.
    assert calls == [(1, 4, 4), (55, 4, 4)]


@pytest.mark.parametrize(
    "a, b, ranks",
    [
        (np.diag([4.0, 1.0, 2.0, 0.5]) + 0.3, np.diag([1.0, 4.0, 0.5, 2.0]) + 0.1, [4] * 6),
        # The last point has the lower rank, so every pair with it goes
        # through the factor of the last point.
        (np.diag([3.0, 2.0, 1.0, 0.0]), np.diag([1.0, 4.0, 0.0, 0.0]), [3] * 5 + [2]),
    ],
)
def test_geodesic_speed_table_is_procrustes_distance_of_each_pair(tmp_path, capsys, a, b, ranks):
    from bwgeom.cli import _load_matrices
    from bwgeom.bures import procrustes_distance
    from bwgeom.geometry import exp_map, log_map
    from bwgeom.spectral import numerical_rank

    write_matrix(tmp_path / "a.txt", a)
    write_matrix(tmp_path / "b.txt", b)
    paths = (str(tmp_path / "a.txt"), str(tmp_path / "b.txt"))
    code, out, _ = run_cli(capsys, "geodesic", *paths, "--steps", "6")
    assert code == 0
    results = json.loads(out)["results"]
    ca, cb = _load_matrices(*paths)
    grid = np.linspace(0.0, 1.0, 6)
    points = [exp_map(ca, float(t) * log_map(ca, cb)) for t in grid]
    dist = procrustes_distance(ca, cb)
    expected = [
        [float(grid[i]), float(grid[j]), abs(procrustes_distance(points[i], points[j]) - (grid[j] - grid[i]) * dist)]
        for i in range(6)
        for j in range(i + 1, 6)
    ]
    assert results["speed_table"] == expected
    assert results["max_speed_deviation"] == max(row[2] for row in expected)
    assert results["points"] == [p.mat.tolist() for p in points]
    assert [numerical_rank(p) for p in points] == ranks


def test_mean_gpa_makes_no_alignment_svd(tmp_path, capsys, monkeypatch):
    svd = np.linalg.svd
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    # Every caller looks the function up on numpy.linalg, so this catches them all.
    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng(4)
    mats = []
    for _ in range(5):
        x = rng.standard_normal((4, 4))
        mats.append(x @ x.T + np.eye(4))
    manifest = write_family(tmp_path, mats)
    code, out, _ = run_cli(capsys, "mean", manifest, "--algorithm", "gpa", "--output", str(tmp_path / "g"))
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["converged"] and doc["results"]["iterations"] >= 2
    assert calls == []


def test_distance_command_builds_each_root_once(tmp_path, capsys, monkeypatch):
    import bwgeom.spectral

    from_spectrum = bwgeom.spectral.from_spectrum
    built = []

    def counted(vectors, values):
        built.append(values.size)
        return from_spectrum(vectors, values)

    # sqrt_psd builds a root through spectral.from_spectrum; the positive
    # definite inputs need no clamping, which would rebuild a matrix there too.
    monkeypatch.setattr(bwgeom.spectral, "from_spectrum", counted)
    rng = np.random.default_rng(5)
    for name in ("a.txt", "b.txt"):
        x = rng.standard_normal((4, 4))
        write_matrix(tmp_path / name, x @ x.T + np.eye(4))
    code, out, _ = run_cli(capsys, "distance", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"))
    assert code == 0
    assert built == [4, 4]
    results = json.loads(out)["results"]
    assert results["alignment_distance"] == pytest.approx(results["procrustes"], rel=1e-9)


def test_pca_command_evaluates_no_reconstruction_entry_by_entry(tmp_path, capsys, monkeypatch):
    from bwgeom.bures import procrustes_distance
    from bwgeom.geometry import exp_map

    calls = []

    def counting(fn):
        def counted(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return counted

    # Rebind both names in every module that imported them, so no call escapes the count.
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("bwgeom"):
            for fn in (exp_map, procrustes_distance):
                if hasattr(module, fn.__name__):
                    monkeypatch.setattr(module, fn.__name__, counting(fn))
    rng = np.random.default_rng(5)
    mats = [x @ x.T + np.eye(3) for x in rng.standard_normal((6, 3, 3))]
    manifest = write_family(tmp_path, mats)
    code, out, _ = run_cli(capsys, "pca", manifest, "--output", str(tmp_path / "pca"))
    assert code == 0
    # Six centred lifts span five components: 6 x 6 entries, none evaluated alone.
    assert np.array(json.loads(out)["results"]["reconstruction_errors"]).shape == (6, 6)
    assert calls == []


def test_pca_command_formats_its_files_in_one_kernel_call(tmp_path, capsys, monkeypatch):
    import bwgeom.io

    format_cells, write, calls = bwgeom.io._format_cells, bwgeom_cli._write, []

    def counted(x, out):
        calls.append(x.size)
        format_cells(x, out)

    def write_phase(*args):
        # Counted in the write phase alone: the report's float arrays take the kernel too.
        with monkeypatch.context() as m:
            m.setattr(bwgeom.io, "_format_cells", counted)
            write(*args)

    monkeypatch.setattr(bwgeom_cli, "_write", write_phase)
    rng = np.random.default_rng(5)
    mats = [x @ x.T + np.eye(5) for x in rng.standard_normal((8, 5, 5))]
    code, out, _ = run_cli(capsys, "pca", write_family(tmp_path, mats), "--output", str(tmp_path / "pca"))
    assert code == 0
    results = json.loads(out)["results"]
    files = [results["mean_file"], *results["component_files"]]
    # The mean and seven components, 15 upper entries each, from one call.
    assert len(files) == 8 and calls == [8 * 15]


@pytest.mark.parametrize("flag, rank_tol", [([], None), (["--rank-tol", "1e-12"], 1e-12)])
def test_pca_command_passes_its_rank_tol_to_the_reconstruction_table(
    tmp_path, capsys, monkeypatch, flag, rank_tol
):
    import bwgeom.cli
    from bwgeom.tpca import reconstruction_errors

    seen = []

    def recording(mean, pca, family, rank_tol):
        seen.append(rank_tol)
        return reconstruction_errors(mean, pca, family, rank_tol)

    monkeypatch.setattr(bwgeom.cli, "reconstruction_errors", recording)
    manifest = write_family(tmp_path, [np.diag([4.0, 1.0]), np.diag([1.0, 4.0])])
    code, _, _ = run_cli(capsys, "pca", manifest, "--output", str(tmp_path / "pca"), *flag)
    assert code == 0 and seen == [rank_tol]


# One instance of every error class with the exit status README's table gives it.
ERROR_EXIT_CODES = [
    (MatrixParseError("x.txt", "bad entry"), 2),
    (OutOfRangeError("out of range"), 2),
    (EmptyFamilyError("no members"), 2),
    (DegenerateError("degenerate"), 2),
    (NonFiniteError("nan entry"), 2),
    (LeavesConeError(-0.5), 2),
    (DimMismatchError("2x2 against 3x3"), 3),
    (NotPSDError(-1.0), 4),
    (KernelConditionError(), 5),
    (MaxIterExceeded(None, "iteration cap reached"), 6),
]


def test_exit_code_cases_cover_every_error_class_and_the_readme_table():
    assert sorted(type(e).__name__ for e, _ in ERROR_EXIT_CODES) == sorted(
        cls.__name__ for cls in BwGeomError.__subclasses__()
    )
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("Exit codes:", 1)[1].split("\n## ", 1)[0]
    documented = {int(c) for c in re.findall(r"^\| (\d+) \|", table, flags=re.M)}
    assert documented == {0} | {code for _, code in ERROR_EXIT_CODES}


def _distance_raising(tmp_path, monkeypatch, error):
    import bwgeom.cli

    def raising(a, b):
        raise error

    monkeypatch.setattr(bwgeom.cli, "convergence_equivalence", raising)
    for name in ("a.txt", "b.txt"):
        write_matrix(tmp_path / name, np.eye(2))
    return ["distance", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]


@pytest.mark.parametrize(
    "error, code", ERROR_EXIT_CODES, ids=[type(e).__name__ for e, _ in ERROR_EXIT_CODES]
)
def test_every_error_exits_with_its_code(tmp_path, capsys, monkeypatch, error, code):
    argv = _distance_raising(tmp_path, monkeypatch, error)
    assert run_cli(capsys, *argv) == (code, "", f"error: {error}\n")


def test_errors_outside_the_package_propagate(tmp_path, capsys, monkeypatch):
    argv = _distance_raising(tmp_path, monkeypatch, ValueError("not a bwgeom error"))
    with pytest.raises(ValueError, match="not a bwgeom error"):
        main(argv)


@pytest.mark.parametrize("command", ["pca", "multicouple", "simulate deform", "simulate counterexample"])
def test_iteration_cap_exits_6_and_still_writes_files(tmp_path, capsys, rng, command):
    from conftest import make_spd

    argv = command.split()
    if len(argv) == 1:
        argv.append(write_family(tmp_path, [make_spd(3, rng) for _ in range(4)]))
    code, out, err = run_cli(
        capsys, *argv, "--max-iter", "1", "--rel-tol", "1e-13", "--output", str(tmp_path / "out")
    )
    assert code == 6
    assert err == "warning: iteration cap reached; result did not converge\n"
    doc = json.loads(out)
    assert doc["diagnostics"]["converged"] is False
    results = doc["results"]
    written = [v for k, v in results.items() if k.endswith("_file")] + results.get("component_files", [])
    assert written and all(Path(f).is_file() for f in written)


@pytest.mark.parametrize("rank_tol", ["nan", "-1", "1", "inf"])
def test_rank_tol_outside_the_unit_interval_exits_2(tmp_path, capsys, rank_tol):
    gpa = [*_family_argv(tmp_path, "mean"), "--algorithm", "gpa"]
    for argv in (_family_argv(tmp_path, "mean"), gpa, _geodesic_argv(tmp_path)):
        code, out, err = run_cli(capsys, *argv, f"--rank-tol={rank_tol}")
        assert (code, out) == (2, "")
        assert "rank_tol" in err and "outside [0, 1)" in err


@pytest.mark.parametrize("dim", ["0", "-2"])
def test_deform_rejects_a_generated_template_below_dimension_1(tmp_path, capsys, dim):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "simulate", "deform", f"--dim={dim}", "--output", str(out_dir))
    assert (code, out) == (2, "") and f"dim={dim}" in err
    assert not out_dir.exists()


def _near_kernel(w):
    """Covariance with eigenvalues ``w`` and 1e-13 (relative) in a rotated basis,
    so ``--rank-tol 1e-10`` moves that eigenvalue into the kernel while the
    default cutoff (dim * eps) keeps it in the range."""
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((len(w) + 1, len(w) + 1)))
    return (q * np.array([*w, 1e-13 * max(w)])) @ q.T


def _family_argv(tmp_path, command):
    manifest = write_family(tmp_path, [_near_kernel(w) for w in ([1.0, 2.0], [2.0, 1.5], [1.2, 0.8])])
    return [command, manifest, "--output", str(tmp_path / "out")]


def _geodesic_argv(tmp_path):
    write_matrix(tmp_path / "a.txt", _near_kernel([1.0, 2.0]))
    write_matrix(tmp_path / "b.txt", np.diag([1.0, 2.0, 3.0]))
    return ["geodesic", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]


def _deform_argv(tmp_path):
    write_matrix(tmp_path / "t.txt", _near_kernel([1.0, 2.0]))
    return ["simulate", "deform", "--template", str(tmp_path / "t.txt"), "--output", str(tmp_path / "out")]


# One case per command that accepts --rank-tol.  ``mean`` runs the descent;
# ``--algorithm gpa`` has its own test below.
RANK_TOL_CASES = {
    "mean": lambda tmp_path: _family_argv(tmp_path, "mean"),
    "pca": lambda tmp_path: _family_argv(tmp_path, "pca"),
    "multicouple": lambda tmp_path: _family_argv(tmp_path, "multicouple"),
    "geodesic": _geodesic_argv,
    "simulate deform": _deform_argv,
    # Block 2's mu is 0.9 * 2^-2 / ratio^2, about 1e-13 of the largest eigenvalue.
    "simulate counterexample": lambda tmp_path: [
        "simulate", "counterexample", "--blocks", "2", "--ratio", "2e6", "--output", str(tmp_path / "out"),
    ],
}


def _commands_with_rank_tol():
    found = []

    def walk(parser, prefix):
        for action in parser._actions:
            if "--rank-tol" in action.option_strings:
                found.append(" ".join(prefix))
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, prefix + [name])

    walk(build_parser(), [])
    return sorted(found)


def test_rank_tol_cases_cover_every_command_that_accepts_the_flag():
    assert _commands_with_rank_tol() == sorted(RANK_TOL_CASES)


def assert_rank_tol_has_an_effect(tmp_path, capsys, argv):
    def outcome(*flag):
        code, out, _ = run_cli(capsys, *argv, *flag)
        doc = json.loads(out) if out else {}
        # Echoed input fields do not count as an effect.
        doc.pop("inputs", None)
        doc.get("diagnostics", {}).pop("rank_tol", None)
        written = {p.name: p.read_bytes() for p in sorted((tmp_path / "out").glob("*"))}
        return code, doc, written

    default = outcome()
    assert default[0] == 0 and default != outcome("--rank-tol", "1e-10")


@pytest.mark.parametrize("command", sorted(RANK_TOL_CASES))
def test_every_accepted_rank_tol_has_an_effect(tmp_path, capsys, command):
    assert_rank_tol_has_an_effect(tmp_path, capsys, RANK_TOL_CASES[command](tmp_path))


def test_mean_gpa_converges_on_the_near_kernel_family_and_honours_rank_tol(tmp_path, capsys):
    # GPA's start, the squared average root, certifies as the mean of this
    # family at either split.  Stopped by the length of its step instead, GPA
    # stepped on until an iterate lost range inclusion (exit 5).
    assert_rank_tol_has_an_effect(tmp_path, capsys, [*_family_argv(tmp_path, "mean"), "--algorithm", "gpa"])


def test_geodesic_step_off_the_cone_exits_2(tmp_path, capsys, monkeypatch):
    import bwgeom.geometry
    from bwgeom import LeavesConeError

    def rejecting(*args, **kwargs):
        raise LeavesConeError(lambda_min=-0.5)

    # The command retracts its grid through geometry.geodesic's exp_map.
    monkeypatch.setattr(bwgeom.geometry, "exp_map", rejecting)
    for name in ("a.txt", "b.txt"):
        write_matrix(tmp_path / name, np.eye(2))
    code, out, err = run_cli(capsys, "geodesic", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"))
    assert code == 2
    assert out == ""
    assert "leaves the PSD cone" in err


def test_identical_command_lines_are_byte_identical(tmp_path, capsys):
    manifest = write_family(tmp_path, [np.diag([4.0, 1.0]), np.diag([1.0, 4.0])])
    out_dir = str(tmp_path / "out")
    argv = ["mean", manifest, "--output", out_dir]
    _, first, _ = run_cli(capsys, *argv)
    first_mean = (tmp_path / "out" / "mean.txt").read_bytes()
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    assert (tmp_path / "out" / "mean.txt").read_bytes() == first_mean

    argv = [
        "simulate", "deform", "--dim", "3", "--count", "3", "--eps", "0.2",
        "--seed", "5", "--output", str(tmp_path / "sim"),
    ]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_deform_round_trip_through_mean(tmp_path, capsys):
    sim_dir = tmp_path / "sim"
    code, out, _ = run_cli(
        capsys, "simulate", "deform", "--dim", "3", "--count", "4", "--eps", "0.3",
        "--seed", "7", "--output", str(sim_dir),
    )
    assert code == 0
    doc = json.loads(out)
    tr = doc["diagnostics"]["template_trace"]
    assert doc["results"]["recovery_distance"] <= 1e-5 * (1.0 + tr)
    assert doc["results"]["residual_at_template"] <= 1e-8 * (1.0 + tr)

    code, out, _ = run_cli(
        capsys, "mean", str(sim_dir / "manifest.json"), "--output", str(tmp_path / "back")
    )
    assert code == 0
    recovered = read_matrix(sim_dir / "recovered.txt")
    again = read_matrix(tmp_path / "back" / "mean.txt")
    np.testing.assert_array_equal(recovered, again)


def test_deform_eps_zero_members_equal_template(tmp_path, capsys):
    sim_dir = tmp_path / "flat"
    code, out, _ = run_cli(
        capsys, "simulate", "deform", "--dim", "3", "--count", "3", "--eps", "0",
        "--seed", "1", "--output", str(sim_dir),
    )
    assert code == 0
    doc = json.loads(out)
    template = (sim_dir / "template.txt").read_bytes()
    for i in range(1, 4):
        assert (sim_dir / f"member_{i:02d}.txt").read_bytes() == template
    assert doc["results"]["recovery_distance"] <= 1e-7


def test_project_command_tail_sums(tmp_path, capsys):
    write_matrix(tmp_path / "c.txt", np.diag([4.0, 1.0, 0.25]))
    code, out, _ = run_cli(capsys, "simulate", "project", str(tmp_path / "c.txt"))
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["ranks"] == [1, 2, 3]
    np.testing.assert_allclose(doc["results"]["projection_error"], [1.25, 0.25, 0.0], atol=1e-12)
    assert doc["results"]["max_identity_gap"] <= 1e-6


def test_project_command_family_sweep(tmp_path, capsys):
    manifest = write_family(tmp_path, [np.diag([4.0, 1.0, 0.25]), np.diag([9.0, 4.0, 1.0])])
    code, out, _ = run_cli(
        capsys, "simulate", "project", "--manifest", manifest, "--ranks", "1,2,3"
    )
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(
        doc["results"]["mean_trace_distance"], [2.8125, 0.5625, 0.0], atol=1e-9
    )
    assert doc["results"]["solver_errors"] == [None, None, None]


def test_project_rejects_ambiguous_inputs(tmp_path, capsys):
    write_matrix(tmp_path / "c.txt", np.eye(2))
    manifest = write_family(tmp_path, [np.eye(2)])
    code, _, err = run_cli(
        capsys, "simulate", "project", str(tmp_path / "c.txt"), "--manifest", manifest
    )
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli(capsys, "simulate", "project")
    assert code == 2 and "exactly one" in err


@pytest.mark.parametrize("manifest", [False, True])
@pytest.mark.parametrize(
    "ranks, message",
    [
        ("2,1", "ranks must be strictly increasing"),
        ("2,2", "ranks must be strictly increasing"),
        ("0,1", "ranks must lie in 1..3"),
        ("1,4", "ranks must lie in 1..3"),
    ],
)
def test_project_checks_ranks_alike_in_both_modes(tmp_path, capsys, manifest, ranks, message):
    mats = [np.diag([4.0, 1.0, 0.25]), np.diag([9.0, 4.0, 1.0])]
    write_matrix(tmp_path / "c.txt", mats[0])
    source = ["--manifest", write_family(tmp_path, mats)] if manifest else [str(tmp_path / "c.txt")]
    code, out, err = run_cli(capsys, "simulate", "project", *source, "--ranks", ranks)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("ranks, message", [("x", "cannot parse ranks 'x'"), (",", "ranks list is empty")])
def test_project_rejects_unparsable_ranks(tmp_path, capsys, ranks, message):
    write_matrix(tmp_path / "c.txt", np.eye(2))
    code, out, err = run_cli(capsys, "simulate", "project", str(tmp_path / "c.txt"), "--ranks", ranks)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_moments_command_rank_one_equality(tmp_path, capsys):
    u = np.array([[1.0], [2.0]])
    write_matrix(tmp_path / "r1.txt", u @ u.T)
    code, out, _ = run_cli(
        capsys, "simulate", "moments", str(tmp_path / "r1.txt"), "--samples", "20000"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["equality_case"] is True
    assert doc["results"]["bound_gap"] == pytest.approx(0.0, abs=1e-9)
    assert doc["results"]["within_five_se"] is True
    assert doc["results"]["bound_holds"] is True


def test_counterexample_command_reports_thresholds(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "counterexample", "--blocks", "3",
        "--output", str(tmp_path / "cx"),
    )
    assert code == 0
    doc = json.loads(out)
    th = doc["results"]["thresholds"]
    assert len(th) == 3
    assert all(a > b for a, b in zip(th, th[1:]))
    assert doc["results"]["min_threshold"] == pytest.approx(min(th))
    assert doc["results"]["recovery_distance"] <= 1e-6
    mean = read_matrix(tmp_path / "cx" / "mean.txt")
    assert mean.shape == (6, 6)


def test_pca_command_two_point_family(tmp_path, capsys):
    manifest = write_family(tmp_path, [np.diag([4.0, 1.0]), np.diag([1.0, 4.0])])
    code, out, _ = run_cli(
        capsys, "pca", manifest, "-k", "2", "--output", str(tmp_path / "pca")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["variances"][0] == pytest.approx(0.5, abs=1e-9)
    assert doc["results"]["effective_components"] == 1
    assert (tmp_path / "pca" / "component_01.txt").exists()
    errors = doc["results"]["reconstruction_errors"]
    for row in errors:
        assert row[-1] <= 1e-6


def test_pca_command_one_member_family(tmp_path, capsys):
    manifest = write_family(tmp_path, [np.diag([4.0, 1.0])])
    code, out, _ = run_cli(capsys, "pca", manifest, "--output", str(tmp_path / "pca"))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["effective_components"] == 0
    assert results["scores"] == []
    assert results["reconstruction_errors"][0][-1] <= 1e-12


def test_multicouple_command_consistency(tmp_path, capsys):
    manifest = write_family(tmp_path, [np.diag([4.0, 1.0]), np.diag([1.0, 4.0])])
    code, out, _ = run_cli(capsys, "multicouple", manifest, "--output", str(tmp_path / "mc"))
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["cost_functional_gap"] <= 1e-8
    assert doc["diagnostics"]["min_eigenvalue"] >= -1e-9
    assert doc["diagnostics"]["diagonal_block_gap"] <= 1e-9
    joint = read_matrix(tmp_path / "mc" / "multicoupling.txt")
    assert joint.shape == (4, 4)


def test_multicouple_builds_one_inverse_root_per_point(tmp_path, capsys, monkeypatch, rng):
    # The 2n maps from the mean share its inverse root: the solve builds one per step's
    # point and the maps one for the mean, not one per map.
    from bwgeom.spectral import Spectrum, pinv_sqrt

    calls = count_optimal_map_calls(monkeypatch)
    roots, sources = {}, {}

    def recorded(s, *args, **kwargs):
        out = pinv_sqrt(s, *args, **kwargs)
        if not isinstance(s, Spectrum):
            sources[id(s)], roots[id(out)] = s, out
        return out

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("bwgeom") and hasattr(module, "pinv_sqrt"):
            monkeypatch.setattr(module, "pinv_sqrt", recorded)
    manifest = write_family(tmp_path, [x @ x.T + np.eye(3) for x in rng.standard_normal((4, 3, 3))])
    code, out, _ = run_cli(capsys, "multicouple", manifest, "--output", str(tmp_path / "mc"))
    assert code == 0 and len(calls) == 8
    assert len(roots) == len(sources) == json.loads(out)["diagnostics"]["iterations"] + 1


def test_multicouple_map_conditioning_is_each_maps_own(tmp_path, capsys, rng):
    # One stacked eigvalsh over the maps gives each map's spectrum as alone, bit for bit.
    mats = [x @ x.T + 0.1 * np.eye(4) for x in rng.standard_normal((5, 4, 4))]
    manifest = write_family(tmp_path, mats)
    code, out, _ = run_cli(capsys, "multicouple", manifest, "--output", str(tmp_path / "mc"))
    assert code == 0
    covs = [validate_psd(m) for m in read_matrix([str(tmp_path / f"op_{i}.txt") for i in range(5)])]
    mean = mean_fixed_point(covs).mean
    want = [_condition(np.linalg.eigvalsh(optimal_map(mean, c))[::-1]) for c in covs]
    assert json.loads(out)["diagnostics"]["map_conditioning"] == want


def test_pca_reconstruction_leaving_the_cone_is_null(tmp_path, capsys):
    from bwgeom.simulate import RngSpec, deformation_family

    # Member 6 rebuilt from 3 components has lambda_min(I + v) < 0.
    fam = deformation_family(np.eye(3), 6, 0.99, RngSpec(1, "x"))
    manifest = write_family(tmp_path, [m.mat for m in fam.deformed])
    code, out, err = run_cli(capsys, "pca", manifest, "--output", str(tmp_path / "pca"))
    assert code == 0
    assert "null" in out
    errors = json.loads(out)["results"]["reconstruction_errors"]
    assert errors[5][3] is None
    for row in errors:
        assert row[-1] is not None and math.isfinite(row[-1]) and row[-1] <= 1e-6


SOLVER_KEYS = {
    "algorithm",
    "converged",
    "functional_trace",
    "iterations",
    "min_eig_of_iterates",
    "residual_trace",
    "trace_of_iterates",
}
MANIFEST_KEYS = {"manifest", "operators", "labels"}
MEAN_RESULTS = {"converged", "functional", "iterations", "mean_file", "residual", "trace"}
MEAN_DIAGNOSTICS = SOLVER_KEYS | {"max_iter", "rank_tol", "rel_tol"}
PCA_RESULTS = {
    "component_files",
    "effective_components",
    "lifted_mean_norm",
    "mean_file",
    "reconstruction_errors",
    "scores",
    "variances",
}
DEFORM_INPUTS = {"count", "dim", "eps", "seed", "template"}
DEFORM_RESULTS = {
    "eps",
    "manifest_file",
    "members",
    "recovered_file",
    "recovery_distance",
    "residual_at_template",
    "template_file",
}
DEFORM_DIAGNOSTICS = SOLVER_KEYS | {"map_identity_gap", "seed", "template_trace"}

# Every command form of the CLI smoke test in the CI workflow, run in a
# directory that holds the family ``simulate deform`` wrote into ``sim``:
# argv, then the key sets of inputs, results and diagnostics, then the names
# of the files written into --output.
REPORT_SHAPES = {
    "simulate deform": (
        "simulate deform --dim 3 --count 4 --seed 3 --output sim2",
        DEFORM_INPUTS,
        DEFORM_RESULTS,
        DEFORM_DIAGNOSTICS,
        ["manifest.json", *(f"member_{i:02d}.txt" for i in range(1, 5)), "recovered.txt", "template.txt"],
    ),
    "mean": (
        "mean sim/manifest.json --output out",
        MANIFEST_KEYS | {"algorithm"},
        MEAN_RESULTS,
        MEAN_DIAGNOSTICS,
        ["mean.txt"],
    ),
    "mean gpa": (
        "mean sim/manifest.json --algorithm gpa --rank-tol 1e-10 --output out",
        MANIFEST_KEYS | {"algorithm"},
        MEAN_RESULTS,
        MEAN_DIAGNOSTICS,
        ["mean.txt"],
    ),
    "multicouple": (
        "multicouple sim/manifest.json --output out",
        MANIFEST_KEYS,
        {"block_dim", "cost", "cost_functional_gap", "functional", "joint_file", "members"},
        SOLVER_KEYS | {"diagonal_block_gap", "map_conditioning", "min_eigenvalue", "rank_tol"},
        ["multicoupling.txt"],
    ),
    "pca": (
        "pca sim/manifest.json --output out",
        MANIFEST_KEYS,
        PCA_RESULTS,
        SOLVER_KEYS | {"rank_tol", "requested_components"},
        ["component_01.txt", "component_02.txt", "component_03.txt", "mean.txt"],
    ),
    "pca -k": (
        "pca sim/manifest.json -k 2 --output out",
        MANIFEST_KEYS,
        PCA_RESULTS,
        SOLVER_KEYS | {"rank_tol", "requested_components"},
        ["component_01.txt", "component_02.txt", "mean.txt"],
    ),
    "simulate deform --template": (
        "simulate deform --template sim/template.txt --count 3 --output out",
        DEFORM_INPUTS,
        DEFORM_RESULTS,
        DEFORM_DIAGNOSTICS,
        ["manifest.json", "member_01.txt", "member_02.txt", "member_03.txt", "recovered.txt", "template.txt"],
    ),
    "geodesic": (
        "geodesic sim/member_01.txt sim/member_02.txt --steps 3",
        {"a", "b", "rank_tol", "steps"},
        {"distance", "grid", "max_speed_deviation", "points", "speed_table"},
        {"dim", "endpoint_gap"},
        [],
    ),
    "distance": (
        "distance sim/member_01.txt sim/member_02.txt",
        {"a", "b"},
        {"alignment_distance", "procrustes", "procrustes_squared", "root_hs_distance", "trace_distance"},
        {"dim", "equivalence_constant", "rotation_orthogonality_gap", "trace_a", "trace_b", "trace_regime"},
        [],
    ),
    "simulate project": (
        "simulate project sim/member_01.txt",
        {"basis", "input", "ranks"},
        {"max_identity_gap", "projection_error", "ranks", "squared_distance"},
        {"dim", "trace"},
        [],
    ),
    "simulate project --manifest": (
        "simulate project --manifest sim/manifest.json --ranks 1,2 --basis eigen",
        {"basis", "manifest", "operators", "ranks"},
        {"basis", "full_mean_trace", "mean_trace_distance", "metric_discrepancy", "ranks", "solver_errors"},
        {"max_iter", "rel_tol"},
        [],
    ),
    "simulate counterexample": (
        "simulate counterexample --blocks 2 --output out",
        {"b0", "blocks", "ratio"},
        {"dim", "manifest_file", "mean_file", "min_threshold", "recovery_distance", "thresholds"},
        SOLVER_KEYS | {"max_iter", "mean_eigenvalues", "rel_tol"},
        ["manifest.json", "mean.txt", "member_01.txt", "member_02.txt"],
    ),
    "simulate moments": (
        "simulate moments sim/member_01.txt --samples 10000 --seed 2",
        {"input", "samples", "seed"},
        {
            "bound_gap",
            "bound_holds",
            "equality_case",
            "estimate",
            "exact",
            "rank",
            "samples",
            "std_error",
            "upper_bound",
            "within_five_se",
            "z_score",
        },
        {"dim", "trace"},
        [],
    ),
}


@pytest.mark.parametrize("form", sorted(REPORT_SHAPES))
def test_report_shape_of_every_smoke_test_form(tmp_path, capsys, monkeypatch, form):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *"simulate deform --dim 3 --count 4 --seed 3 --output sim".split())[0] == 0
    argv, inputs, results, diagnostics, files = REPORT_SHAPES[form]
    code, out, _ = run_cli(capsys, *argv.split())
    doc = json.loads(out)
    assert code == 0
    assert (set(doc["inputs"]), set(doc["results"]), set(doc["diagnostics"])) == (inputs, results, diagnostics)
    output = argv.split()[-1] if "--output" in argv else None
    assert (sorted(p.name for p in Path(output).iterdir()) if output else []) == files
    # The results name each written file by its path under --output.
    named = [v for k, v in doc["results"].items() if k.endswith("_file")]
    named += doc["results"].get("component_files", [])
    assert all(Path(p).parent == Path(output) and Path(p).name in files for p in named)
