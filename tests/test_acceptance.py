"""Acceptance battery: one test per advertised guarantee of the package.

Each test pins the quantitative contract of a public behavior: exact
tolerances, runtime caps, and exit codes.  Random inputs are seeded so every
run checks the identical instances.
"""

import json
import math
import time

import numpy as np
import pytest

from bwgeom import (
    KernelConditionError,
    MeanConfig,
    RngSpec,
    counterexample_family,
    deformation_family,
    exp_map,
    fixed_point_residual,
    fourth_moment_check,
    frechet_functional,
    geodesic,
    lift,
    log_map,
    mean_fixed_point,
    mean_procrustes_averaging,
    multicoupling,
    multicoupling_cost,
    optimal_map,
    procrustes_distance,
    procrustes_distance_squared,
    procrustes_distance_via_alignment,
    project,
    projection_error,
    projection_stability_experiment,
    reconstruct,
    sqrt_psd,
    tangent_inner,
    tangent_pca,
    validate_psd,
)
from bwgeom.cli import main
from bwgeom.io import read_matrix, write_manifest, write_matrix
from bwgeom.spectral import operator_norm


def rand_orth(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def rand_spd(d, rng, lo=0.2, hi=3.0):
    q = rand_orth(d, rng)
    return (q * rng.uniform(lo, hi, d)) @ q.T


def rand_psd(d, rank, rng):
    x = rng.standard_normal((d, rank))
    return x @ x.T


def one_injective_family(rng, max_dim=12, max_n=10):
    d = int(rng.integers(2, max_dim + 1))
    n = int(rng.integers(2, max_n + 1))
    fam = [rand_spd(d, rng)]
    for _ in range(n - 1):
        fam.append(rand_psd(d, int(rng.integers(1, d + 1)), rng))
    return fam


def test_c01_distance_routes_agree_and_commuting_case_is_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(200):
        d = int(rng.integers(2, 17))
        a = rand_spd(d, rng)
        b = rand_spd(d, rng)
        pi = procrustes_distance(a, b)
        ali, _ = procrustes_distance_via_alignment(a, b)
        assert abs(pi - ali) <= 1e-8 * max(pi, 1e-6)
    for _ in range(40):
        d = int(rng.integers(2, 9))
        q = rand_orth(d, rng)
        va = rng.uniform(0.2, 3.0, d)
        vb = rng.uniform(0.2, 3.0, d)
        a = (q * va) @ q.T
        b = (q * vb) @ q.T
        hs = float(np.linalg.norm(sqrt_psd(a) - sqrt_psd(b)))
        assert abs(procrustes_distance(a, b) - hs) <= 1e-9
        assert abs(procrustes_distance_via_alignment(a, b)[0] - hs) <= 1e-9
    assert time.perf_counter() - start < 10.0


def test_c02_transport_pushforward_and_kernel_errors():
    rng = np.random.default_rng(102)
    for trial in range(200):
        d = int(rng.integers(2, 9))
        s1 = rand_spd(d, rng)
        if trial % 2:
            s2 = rand_psd(d, int(rng.integers(1, d + 1)), rng)
        else:
            s2 = rand_spd(d, rng)
        t = optimal_map(s1, s2)
        push = t @ s1 @ t
        tr2 = float(np.trace(np.asarray(s2)))
        assert float(np.max(np.abs(push - s2))) <= 1e-8 * (1.0 + tr2)
    with pytest.raises(KernelConditionError):
        optimal_map(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    for _ in range(10):
        d = int(rng.integers(3, 7))
        q = rand_orth(d, rng)
        vals = np.concatenate([rng.uniform(0.5, 2.0, d - 1), [0.0]])
        s1 = (q * vals) @ q.T
        s2 = rand_spd(d, rng)
        with pytest.raises(KernelConditionError):
            optimal_map(s1, s2)


def test_c03_geodesics_have_constant_speed():
    rng = np.random.default_rng(103)
    grid = np.linspace(0.0, 1.0, 11)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        a = rand_spd(d, rng)
        b = rand_spd(d, rng)
        pi01 = procrustes_distance(a, b)
        pts = [geodesic(a, b, float(t)) for t in grid]
        for i in range(len(grid)):
            for j in range(i + 1, len(grid)):
                seg = procrustes_distance(pts[i], pts[j])
                assert abs(seg - (grid[j] - grid[i]) * pi01) <= 1e-6 * (1.0 + pi01)


def test_c04_exp_inverts_log_at_injective_bases():
    rng = np.random.default_rng(104)
    for trial in range(100):
        d = int(rng.integers(2, 8))
        base = rand_spd(d, rng)
        if trial % 3:
            target = rand_spd(d, rng)
        else:
            target = rand_psd(d, int(rng.integers(1, d + 1)), rng)
        back = exp_map(base, log_map(base, target))
        tr = float(np.trace(np.asarray(target)))
        assert float(np.max(np.abs(back.mat - np.asarray(target)))) <= 1e-8 * (1.0 + tr)


def test_c05_mean_certificates_trace_bound_and_algorithm_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    cfg = MeanConfig(max_iter=2000, rel_tol=1e-12)
    gpa_cfg = MeanConfig(max_iter=4000, rel_tol=1e-12)
    for _ in range(20):
        fam = one_injective_family(rng)
        res = mean_fixed_point(fam, cfg)
        assert res.converged
        tr = res.mean.trace
        assert fixed_point_residual(res.mean, fam) <= 1e-6 * (1.0 + tr)
        avg_trace = sum(float(np.trace(np.asarray(m))) for m in fam) / len(fam)
        assert tr <= avg_trace + 1e-9
        alt = mean_procrustes_averaging(fam, gpa_cfg)
        assert procrustes_distance(res.mean, alt.mean) <= 1e-5
    assert time.perf_counter() - start < 60.0


def test_c06_descent_diagnostics_monotone_on_all_runs():
    rng = np.random.default_rng(106)
    families = [one_injective_family(rng) for _ in range(12)]
    for _ in range(4):
        d = int(rng.integers(2, 9))
        q = rand_orth(d, rng)
        families.append([(q * rng.uniform(0.2, 3.0, d)) @ q.T for _ in range(4)])
    for seed in range(4):
        fam = deformation_family(rand_spd(4, rng, 0.5, 2.0), 2 + seed, 0.3, RngSpec(seed))
        families.append(list(fam.deformed))
    for m in range(1, 6):
        _, s1, s2, _ = counterexample_family(m)
        families.append([s1, s2])
    s = rand_spd(3, rng)
    families.append([s, s, s])
    families.append([rand_spd(4, rng)])
    for cfg in (None, MeanConfig(max_iter=2000, rel_tol=1e-12)):
        for fam in families:
            res = mean_fixed_point(fam, cfg)
            assert res.converged
            f = res.functional_trace
            t = res.trace_of_iterates
            assert res.iterations == len(f) - 1
            assert len(t) == res.iterations
            if len(f) > 1:
                assert float(np.max(np.diff(f))) <= 1e-12
            if len(t) > 1:
                assert float(np.min(np.diff(t))) >= -1e-10


def test_c07_commuting_family_solved_in_one_step():
    rng = np.random.default_rng(107)
    for _ in range(5):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(2, 6))
        q = rand_orth(d, rng)
        vals = [rng.uniform(0.2, 3.0, d) for _ in range(n)]
        fam = [(q * v) @ q.T for v in vals]
        res = mean_fixed_point(fam)
        assert res.iterations >= 1
        assert float(res.residual_trace[1]) <= 1e-10
        avg_root = sum(np.sqrt(v) for v in vals) / n
        expected = (q * avg_root**2) @ q.T
        assert float(np.max(np.abs(res.mean.mat - expected))) <= 1e-10


def test_c08_multicoupling_marginals_psd_and_cost_identity():
    rng = np.random.default_rng(108)
    for _ in range(5):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 6))
        fam = [rand_spd(d, rng) for _ in range(n)]
        mean = mean_fixed_point(fam, MeanConfig(max_iter=1000, rel_tol=1e-12)).mean
        joint = multicoupling(mean, fam)
        full = joint.full()
        for i in range(n):
            assert float(np.max(np.abs(full[i * d : (i + 1) * d, i * d : (i + 1) * d] - fam[i]))) <= 1e-8
        tr_full = float(np.trace(full))
        lam_min = float(np.linalg.eigvalsh(0.5 * (full + full.T))[0])
        assert lam_min >= -1e-8 * (1.0 + tr_full)
        cost = multicoupling_cost(joint)
        assert abs(cost - frechet_functional(mean, fam)) <= 1e-8


def test_c09_deformation_families_identify_their_template():
    rng = np.random.default_rng(109)
    for seed in range(20):
        n = 2 + seed % 5
        eps = (0.1, 0.3)[seed % 2]
        template = rand_spd(4, rng, 0.5, 2.0)
        fam = deformation_family(template, n, eps, RngSpec(seed, "accept"))
        assert fixed_point_residual(template, fam.deformed) <= 1e-8
        f0 = frechet_functional(template, fam.deformed)
        for k in range(50):
            e = rng.standard_normal((4, 4))
            e = e + e.T
            e /= operator_norm(e)
            delta = (0.01, 0.1)[k % 2]
            assert f0 <= frechet_functional(template + delta * e, fam.deformed)


def test_c10_projection_identity_and_stability_sweep():
    rng = np.random.default_rng(110)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        s = rand_spd(d, rng)
        r = int(rng.integers(1, d + 1))
        basis = ("standard", "eigen")[int(rng.integers(2))]
        err = projection_error(s, r, basis=basis)
        pi2 = procrustes_distance_squared(s, project(s, r, basis=basis))
        assert abs(err - pi2) <= 1e-9
    fam = [rand_spd(6, rng) for _ in range(4)]
    rep = projection_stability_experiment(fam, list(range(1, 7)), basis="eigen")
    assert rep["solver_errors"] == [None] * 6
    assert len(rep["mean_trace_distance"]) == 6
    assert rep["mean_trace_distance"][-1] <= 1e-6
    assert rep["metric_discrepancy"][-1] <= 1e-6


def test_c11_tangent_pca_orthonormal_reconstructive_and_sharp():
    rng = np.random.default_rng(111)
    fam = [rand_spd(4, rng) for _ in range(6)]
    mean = mean_fixed_point(fam, MeanConfig(max_iter=1000, rel_tol=1e-12)).mean
    pca = tangent_pca(lift(fam, mean), mean, k=6)
    for a, ca in enumerate(pca.components):
        for b, cb in enumerate(pca.components):
            want = 1.0 if a == b else 0.0
            assert abs(tangent_inner(mean, ca, cb) - want) <= 1e-8
    for i, member in enumerate(fam):
        rec = reconstruct(mean, pca, i, k=len(pca.variances))
        tr = float(np.trace(member))
        assert float(np.max(np.abs(rec.mat - member))) <= 1e-7 * (1.0 + tr)
    a = rand_spd(3, rng)
    b = rand_spd(3, rng)
    line = [geodesic(a, b, t) for t in np.linspace(0.0, 1.0, 7)]
    pca_line = tangent_pca(lift(line, a), validate_psd(a), k=6)
    assert int(np.sum(pca_line.variances > 1e-10)) == 1


def test_c12_fourth_moment_identity_and_rank_one_equality():
    start = time.perf_counter()
    rng = np.random.default_rng(112)
    u = rng.standard_normal((3, 1))
    rank_one = fourth_moment_check(u @ u.T, 100_000, RngSpec(1, "c12"))
    assert rank_one["equality_case"] is True
    assert rank_one["within_five_se"] is True
    assert rank_one["bound_holds"] is True
    assert abs(rank_one["bound_gap"]) <= 1e-9
    fixed = fourth_moment_check(np.diag([4.0, 1.0]), 100_000, RngSpec(2, "c12"))
    assert fixed["exact"] == pytest.approx(59.0)
    assert fixed["upper_bound"] == pytest.approx(75.0)
    assert fixed["equality_case"] is False
    assert fixed["within_five_se"] is True
    full = fourth_moment_check(rand_spd(5, rng), 100_000, RngSpec(3, "c12"))
    assert full["within_five_se"] is True
    assert full["bound_holds"] is True
    assert full["equality_case"] is False
    assert full["bound_gap"] > 0.0
    assert time.perf_counter() - start < 20.0


def test_c13_counterexample_recovery_and_threshold_decay():
    previous_min = math.inf
    for m in range(1, 6):
        mean, s1, s2, thresholds = counterexample_family(m)
        res = mean_fixed_point([s1, s2], MeanConfig(max_iter=1000, rel_tol=1e-12))
        assert res.converged
        assert procrustes_distance(res.mean, mean) <= 1e-6
        assert np.all(thresholds > 0.0)
        assert np.all(np.diff(thresholds) < 0.0) or m == 1
        current = float(thresholds.min())
        assert current < previous_min
        previous_min = current


def test_c14_cli_round_trip_determinism_and_exit_codes(tmp_path, capsys):
    rng = np.random.default_rng(114)
    a = validate_psd(rand_spd(3, rng)).mat
    write_matrix(tmp_path / "a.txt", a)
    assert np.array_equal(read_matrix(tmp_path / "a.txt"), a)

    write_matrix(tmp_path / "b.txt", rand_spd(3, rng))
    names = []
    for i, m in enumerate([rand_spd(3, rng) for _ in range(3)]):
        write_matrix(tmp_path / f"m{i}.txt", m)
        names.append(f"m{i}.txt")
    write_manifest(tmp_path / "fam.json", names)

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    argv = ["mean", str(tmp_path / "fam.json"), "--output", str(tmp_path / "out")]
    code1, out1, _ = run(*argv)
    bytes1 = (tmp_path / "out" / "mean.txt").read_bytes()
    code2, out2, _ = run(*argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert (tmp_path / "out" / "mean.txt").read_bytes() == bytes1
    assert np.array_equal(
        read_matrix(tmp_path / "out" / "mean.txt"), read_matrix(tmp_path / "out" / "mean.txt")
    )

    sim = ["simulate", "deform", "--dim", "3", "--seed", "9", "--output", str(tmp_path / "sim")]
    _, sim1, _ = run(*sim)
    _, sim2, _ = run(*sim)
    assert sim1 == sim2

    code, _, _ = run("distance", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"))
    assert code == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0, x\n0.0, 1.0\n")
    assert run("distance", str(bad), str(tmp_path / "a.txt"))[0] == 2
    write_matrix(tmp_path / "wide.txt", np.eye(4))
    assert run("distance", str(tmp_path / "a.txt"), str(tmp_path / "wide.txt"))[0] == 3
    write_matrix(tmp_path / "indef.txt", np.array([[1.0, 2.0], [2.0, 1.0]]))
    write_matrix(tmp_path / "eye2.txt", np.eye(2))
    assert run("distance", str(tmp_path / "indef.txt"), str(tmp_path / "eye2.txt"))[0] == 4
    write_matrix(tmp_path / "k1.txt", np.diag([1.0, 0.0]))
    write_matrix(tmp_path / "k2.txt", np.diag([0.0, 1.0]))
    assert run("geodesic", str(tmp_path / "k1.txt"), str(tmp_path / "k2.txt"))[0] == 5
    code, out, err = run(
        "mean", str(tmp_path / "fam.json"), "--max-iter", "1", "--rel-tol", "1e-14",
        "--output", str(tmp_path / "capped"),
    )
    assert code == 6
    assert (tmp_path / "capped" / "mean.txt").exists()
    assert json.loads(out)["results"]["converged"] is False
    assert "warning" in err
