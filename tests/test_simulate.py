import math

import numpy as np
import pytest

from bwgeom import (
    DegenerateError,
    OutOfRangeError,
    RngSpec,
    convergence_equivalence,
    counterexample_family,
    deformation_family,
    equivalence_constant,
    fixed_point_residual,
    fourth_moment_check,
    frechet_functional,
    mean_fixed_point,
    procrustes_distance,
    project,
    projection_error,
    projection_stability_experiment,
    sample_gaussian,
)
from bwgeom.spectral import operator_norm
from conftest import make_spd


def test_rng_spec_reproducible_and_stream_separated():
    a = RngSpec(7, "alpha").generator().standard_normal(16)
    b = RngSpec(7, "alpha").generator().standard_normal(16)
    c = RngSpec(7, "beta").generator().standard_normal(16)
    d = RngSpec(8, "alpha").generator().standard_normal(16)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sample_gaussian_zero_covariance_gives_zero_rows():
    x = sample_gaussian(np.zeros((3, 3)), 50, RngSpec(1))
    assert x.shape == (50, 3)
    np.testing.assert_array_equal(x, 0.0)


def test_sample_gaussian_matches_covariance_empirically():
    s = np.array([[2.0, 0.5], [0.5, 1.0]])
    x = sample_gaussian(s, 100_000, RngSpec(3, "cov"))
    emp = x.T @ x / x.shape[0]
    assert operator_norm(emp - s) <= 0.05
    again = sample_gaussian(s, 100_000, RngSpec(3, "cov"))
    np.testing.assert_array_equal(x, again)


def test_sample_gaussian_rejects_empty_draw():
    with pytest.raises(OutOfRangeError):
        sample_gaussian(np.eye(2), 0, RngSpec(0))


def test_deformation_maps_average_to_identity(rng):
    s = make_spd(4, rng)
    fam = deformation_family(s, 2, 0.3, RngSpec(11, "pair"))
    t1, t2 = (np.asarray(t) for t in fam.maps)
    np.testing.assert_allclose(t1 + t2, 2.0 * np.eye(4), atol=1e-12)
    fam5 = deformation_family(s, 5, 0.2, RngSpec(11, "five"))
    total = sum(np.asarray(t) for t in fam5.maps)
    np.testing.assert_allclose(total, 5.0 * np.eye(4), atol=1e-12)


def test_deformation_size_is_exactly_eps(rng):
    s = make_spd(3, rng)
    fam = deformation_family(s, 4, 0.25, RngSpec(2))
    sizes = [operator_norm(np.asarray(t) - np.eye(3)) for t in fam.maps]
    assert max(sizes) == pytest.approx(0.25, abs=1e-12)
    # every map stays positive definite below eps = 1
    for t in fam.maps:
        assert np.linalg.eigvalsh(np.asarray(t))[0] > 0.0


def test_deformation_eps_zero_copies_template(rng):
    s = make_spd(3, rng)
    fam = deformation_family(s, 3, 0.0, RngSpec(4))
    for m in fam.deformed:
        np.testing.assert_array_equal(np.asarray(m), np.asarray(fam.template))


def test_deformation_rejects_bad_parameters(rng):
    s = make_spd(2, rng)
    with pytest.raises(OutOfRangeError):
        deformation_family(s, 1, 0.1, RngSpec(0))
    with pytest.raises(OutOfRangeError):
        deformation_family(s, 3, 1.0, RngSpec(0))
    with pytest.raises(OutOfRangeError):
        deformation_family(s, 3, -0.1, RngSpec(0))


def test_template_is_the_mean_of_its_deformations(rng):
    s = make_spd(4, rng)
    fam = deformation_family(s, 5, 0.3, RngSpec(9, "recover"))
    tr = float(np.trace(np.asarray(s)))
    assert fixed_point_residual(s, fam.deformed) <= 1e-8 * (1.0 + tr)
    res = mean_fixed_point(fam.deformed)
    assert res.converged
    assert procrustes_distance(res.mean, s) <= 1e-5 * (1.0 + math.sqrt(tr))


def test_template_minimizes_the_functional(rng):
    s = make_spd(3, rng)
    fam = deformation_family(s, 4, 0.2, RngSpec(5, "minim"))
    f0 = frechet_functional(s, fam.deformed)
    base = np.asarray(s)
    for delta in (0.01, 0.1):
        for _ in range(25):
            e = rng.standard_normal((3, 3))
            e = e + e.T
            e /= operator_norm(e)
            assert frechet_functional(base + delta * e, fam.deformed) >= f0 - 1e-12


def test_project_examples():
    got = project(np.diag([4.0, 1.0]), 1)
    np.testing.assert_allclose(np.asarray(got), np.diag([4.0, 0.0]), atol=1e-14)
    assert projection_error(np.diag([4.0, 1.0]), 1) == pytest.approx(1.0)
    assert projection_error(np.eye(5), 2) == pytest.approx(3.0)
    # eigen basis picks the top eigendirection regardless of coordinate order
    got = project(np.diag([1.0, 4.0]), 1, basis="eigen")
    np.testing.assert_allclose(np.asarray(got), np.diag([0.0, 4.0]), atol=1e-12)
    assert projection_error(np.diag([1.0, 4.0]), 1, basis="eigen") == pytest.approx(1.0)


def test_project_full_rank_is_identity(rng):
    s = make_spd(4, rng)
    for basis in ("standard", "eigen"):
        got = project(s, 4, basis=basis)
        assert operator_norm(np.asarray(got) - np.asarray(s)) <= 1e-9
        assert projection_error(s, 4, basis=basis) <= 1e-9


def test_projection_error_is_squared_distance(rng):
    for basis in ("standard", "eigen"):
        for _ in range(20):
            s = make_spd(5, rng)
            r = int(rng.integers(1, 5))
            err = projection_error(s, r, basis=basis)
            dist = procrustes_distance(s, project(s, r, basis=basis))
            # the distance itself carries sqrt(eps)-level noise
            assert dist**2 == pytest.approx(err, rel=1e-6, abs=1e-6)


def test_projection_error_decreases_to_zero(rng):
    s = make_spd(6, rng)
    errs = [projection_error(s, r, basis="eigen") for r in range(1, 7)]
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-9


def test_stability_experiment_diagonal_tail_sums():
    fam = [np.diag([4.0, 1.0, 0.25]), np.diag([9.0, 4.0, 1.0])]
    rep = projection_stability_experiment(fam, [1, 2, 3])
    # commuting family: compressed means are truncations of the full mean
    np.testing.assert_allclose(rep["mean_trace_distance"], [2.8125, 0.5625, 0.0], atol=1e-9)
    assert rep["metric_discrepancy"][-1] <= 1e-9
    assert rep["solver_errors"] == [None, None, None]
    assert rep["full_mean_trace"] == pytest.approx(9.0625)


def test_stability_experiment_full_rank_recovers_everything(rng):
    fam = [make_spd(5, rng) for _ in range(4)]
    rep = projection_stability_experiment(fam, [5])
    assert rep["mean_trace_distance"][0] <= 1e-9
    assert rep["metric_discrepancy"][0] <= 1e-9


def test_stability_experiment_random_family_settles(rng):
    fam = [make_spd(8, rng) for _ in range(4)]
    rep = projection_stability_experiment(fam, [2, 4, 6, 8], basis="eigen")
    assert rep["solver_errors"] == [None] * 4
    gaps = rep["mean_trace_distance"]
    assert all(np.isfinite(gaps))
    assert gaps[-1] <= 1e-6
    assert gaps[0] >= gaps[-1]


def test_stability_experiment_rejects_bad_ranks(rng):
    fam = [make_spd(3, rng) for _ in range(2)]
    with pytest.raises(OutOfRangeError):
        projection_stability_experiment(fam, [])
    with pytest.raises(OutOfRangeError):
        projection_stability_experiment(fam, [2, 2])
    with pytest.raises(OutOfRangeError):
        projection_stability_experiment(fam, [1, 4])


def test_convergence_equivalence_ordering(rng):
    for _ in range(50):
        a = make_spd(4, rng)
        b = make_spd(4, rng)
        pi, root_hs, tr_dist = convergence_equivalence(a, b)
        assert pi <= root_hs + 1e-12
        if float(np.trace(np.asarray(a))) <= float(np.trace(np.asarray(b))) + 1.0:
            assert tr_dist <= equivalence_constant(b) * pi * (1.0 + 1e-9) + 1e-12


def test_convergence_equivalence_commuting_pair_is_tight():
    a = np.diag([4.0, 1.0])
    b = np.diag([1.0, 0.25])
    pi, root_hs, tr_dist = convergence_equivalence(a, b)
    assert pi == pytest.approx(root_hs, abs=1e-12)
    assert pi == pytest.approx(math.sqrt(1.0 + 0.25), abs=1e-12)
    assert tr_dist == pytest.approx(3.75)


def test_equivalence_constant_example():
    assert equivalence_constant(np.eye(2)) == pytest.approx(2.0 + math.sqrt(2.0))


def test_counterexample_thresholds_match_formula():
    mean, s1, s2, thresholds = counterexample_family(3)
    k = np.arange(1, 4, dtype=float)
    lam = 0.5**k
    mu = 0.9 * lam / 6.0**k
    b = 0.5 * 0.5**k
    np.testing.assert_allclose(thresholds, mu / (mu + b * b * lam), rtol=1e-15)
    assert np.all(np.diff(thresholds) < 0.0)


def test_counterexample_threshold_is_exact_on_paired_direction():
    m = 4
    mean, s1, _, thresholds = counterexample_family(m)
    a = np.asarray(mean)
    b = np.asarray(s1)
    for k in range(m):
        f = np.zeros(2 * m)
        f[m + k] = 1.0
        form = f @ (a - thresholds[k] * b) @ f
        assert abs(form) <= 1e-15 * (1.0 + abs(f @ a @ f))
        assert np.linalg.eigvalsh(a - 1.05 * thresholds[k] * b)[0] < 0.0


def test_counterexample_mean_is_recovered_by_solver():
    last_min = 1.0
    for m in range(1, 6):
        mean, s1, s2, thresholds = counterexample_family(m)
        res = mean_fixed_point([s1, s2])
        assert res.converged
        gap = procrustes_distance(res.mean, mean)
        assert gap <= 1e-6 * (1.0 + mean.trace)
        assert 0.0 < float(thresholds.min()) < last_min
        last_min = float(thresholds.min())


def test_counterexample_rejects_bad_parameters():
    with pytest.raises(DegenerateError):
        counterexample_family(16)
    with pytest.raises(OutOfRangeError):
        counterexample_family(0)
    with pytest.raises(OutOfRangeError):
        counterexample_family(3, ratio=5.0)
    with pytest.raises(OutOfRangeError):
        counterexample_family(3, b0=0.0)


def test_counterexample_small_mixing_pushes_thresholds_to_one():
    _, _, _, thresholds = counterexample_family(3, b0=1e-6)
    assert np.all(thresholds >= 0.999)


def test_fourth_moment_exact_values():
    rep = fourth_moment_check(np.eye(2), 10_000, RngSpec(0))
    assert rep["exact"] == pytest.approx(8.0)
    rep = fourth_moment_check(np.diag([2.0, 1.0]), 10_000, RngSpec(0))
    assert rep["exact"] == pytest.approx(19.0)
    rep = fourth_moment_check(np.diag([4.0, 1.0]), 10_000, RngSpec(0))
    assert rep["exact"] == pytest.approx(59.0)
    assert rep["upper_bound"] == pytest.approx(75.0)
    assert rep["bound_holds"]
    assert not rep["equality_case"]


def test_fourth_moment_rank_one_attains_bound():
    u = np.array([[1.0], [2.0]])
    rep = fourth_moment_check(u @ u.T, 50_000, RngSpec(6, "rank1"))
    assert rep["rank"] == 1
    assert rep["equality_case"]
    assert rep["bound_gap"] == pytest.approx(0.0, abs=1e-9)
    assert rep["within_five_se"]


def test_fourth_moment_bound_holds_for_rank_one_at_every_scale(rng):
    # At rank one the bound holds with equality, so only rounding separates
    # exact from bound: the verdict must not depend on the scale of S.
    vs = rng.standard_normal((40, 4))
    for c in (1e-6, 1.0, 1e3, 1e6, 1e9):
        for i, v in enumerate(vs):
            rep = fourth_moment_check(c * np.outer(v, v), 10_000, RngSpec(i, "scale"))
            assert rep["equality_case"]
            assert rep["bound_holds"], (c, i, rep["exact"], rep["upper_bound"])


def test_fourth_moment_estimate_is_consistent():
    s = np.array([[2.0, 0.5], [0.5, 1.0]])
    rep = fourth_moment_check(s, 200_000, RngSpec(12, "mc"))
    assert rep["std_error"] > 0.0
    assert rep["within_five_se"]
    assert rep["bound_holds"]


def test_fourth_moment_rejects_small_samples():
    with pytest.raises(OutOfRangeError):
        fourth_moment_check(np.eye(2), 9_999, RngSpec(0))
