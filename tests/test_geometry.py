import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwgeom import (
    DimMismatchError,
    KernelConditionError,
    LeavesConeError,
    OutOfRangeError,
    exp_map,
    geodesic,
    log_map,
    optimal_map,
    principal_geodesic,
    procrustes_distance,
    tangent_inner,
    tangent_norm,
)
from bwgeom.geometry import _cone_test
from bwgeom.spectral import EPS, validate_psd

from conftest import eigvalsh_cone_test, make_spd

A41 = np.diag([4.0, 1.0])
B14 = np.diag([1.0, 4.0])


def test_tangent_inner_examples(rng):
    a = np.array([[1.0, 2.0], [2.0, -1.0]])
    b = np.array([[0.0, 1.0], [1.0, 3.0]])
    assert tangent_inner(np.eye(2), a, b) == pytest.approx(float(np.trace(a @ b)))
    s = make_spd(3, rng)
    assert tangent_inner(s, np.eye(3), np.eye(3)) == pytest.approx(s.trace)
    assert tangent_inner(np.diag([2.0, 3.0]), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == 0.0
    # exp_map takes a stack of directions; the inner product does not.
    with pytest.raises(DimMismatchError):
        tangent_inner(np.eye(2), np.zeros((3, 2, 2)), np.eye(2))


def test_tangent_inner_bilinear_symmetric(rng):
    s = make_spd(4, rng)
    a, b, c = (0.5 * (x + x.T) for x in rng.standard_normal((3, 4, 4)))
    left = tangent_inner(s, a + 2.0 * b, c)
    assert left == pytest.approx(tangent_inner(s, a, c) + 2.0 * tangent_inner(s, b, c), abs=1e-10)
    assert tangent_inner(s, a, b) == pytest.approx(tangent_inner(s, b, a), abs=1e-10)


def test_tangent_inner_positive_form(rng):
    s = make_spd(5, rng)
    for _ in range(20):
        a = rng.standard_normal((5, 5))
        a = 0.5 * (a + a.T)
        assert tangent_inner(s, a, a) >= -1e-12
    a = 0.5 * (rng.standard_normal((5, 5)) + np.eye(5))
    a = 0.5 * (a + a.T)
    assert tangent_inner(s, a, a) > 0.0


def test_exp_map_examples(rng):
    s = make_spd(3, rng)
    assert np.allclose(exp_map(s, np.zeros((3, 3))).mat, s.mat)
    assert np.allclose(exp_map(A41, np.diag([-0.5, 1.0])).mat, B14)
    z = exp_map(np.eye(2), -np.eye(2))
    assert np.allclose(z.mat, np.zeros((2, 2)))


def test_exp_map_leaves_cone():
    with pytest.raises(LeavesConeError) as err:
        exp_map(np.eye(2), np.diag([-1.5, 0.0]))
    assert err.value.lambda_min == pytest.approx(-0.5)


def test_exp_map_rejects_a_fold_near_the_rank_cutoff():
    # kappa = 1e15 is still inside the numerical range at d = 2; a fold of
    # -0.1 max|lambda(I + A)| is far beyond any rounding of a direction there.
    for small in (1e-14, 1e-15, 1e-16):
        with pytest.raises(LeavesConeError):
            exp_map(np.diag([1.0, small]), np.diag([-1.1, 0.0]))


def test_exp_map_cone_tolerance_follows_the_callers_rank_tol():
    # At the default rank_tol, 1e-18 is kernel and kappa = 1; at 1e-22 it is
    # range, as in a logarithm computed with that rank_tol, and kappa = 1e18
    # scales the tolerance up to its cap of 1e-3 max|lambda(I + A)|.
    base, fold = np.diag([1.0, 1e-18]), np.diag([0.0, -1.0 - 1e-6])
    with pytest.raises(LeavesConeError):
        exp_map(base, fold)
    np.testing.assert_allclose(exp_map(base, fold, rank_tol=1e-22).mat, np.diag([1.0, 1e-30]))


def test_exp_map_at_the_zero_base_rejects_a_small_fold():
    # The zero base has no range, so kappa = 1 and the tolerance stays at
    # d eps max|lambda(I + A)|: a fold of -1e-6 max|lambda| is a rejection.
    with pytest.raises(LeavesConeError):
        exp_map(np.zeros((3, 3)), np.diag([0.0, 0.0, -1.0 - 1e-6]))


def test_log_map_examples(rng):
    s = make_spd(3, rng)
    assert tangent_norm(s, log_map(s, s)) <= 1e-7
    v = log_map(A41, B14)
    assert np.allclose(v, np.diag([-0.5, 1.0]), atol=1e-12)
    with pytest.raises(KernelConditionError):
        log_map(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


def test_exp_log_inversion_batch(rng):
    for _ in range(100):
        d = int(rng.integers(2, 9))
        s0, s1 = make_spd(d, rng), make_spd(d, rng)
        back = exp_map(s0, log_map(s0, s1))
        assert np.max(np.abs(back.mat - s1.mat)) <= 1e-8 * (1.0 + s1.trace)


def test_log_exp_along_segments(rng):
    s0, s1 = make_spd(4, rng), make_spd(4, rng)
    a = log_map(s0, s1)
    for t in np.linspace(0.0, 1.0, 11):
        back = log_map(s0, exp_map(s0, t * a))
        assert np.max(np.abs(back - t * a)) <= 1e-7


def test_geodesic_endpoints_and_midpoint(rng):
    s0, s1 = make_spd(3, rng), make_spd(3, rng)
    assert np.max(np.abs(geodesic(s0, s1, 0.0).mat - s0.mat)) <= 1e-10
    assert np.max(np.abs(geodesic(s0, s1, 1.0).mat - s1.mat)) <= 1e-10
    assert np.allclose(geodesic(A41, B14, 0.5).mat, np.diag([2.25, 2.25]), atol=1e-12)
    s = make_spd(3, rng)
    for t in (0.0, 0.3, 1.0):
        assert np.max(np.abs(geodesic(s, s, t).mat - s.mat)) <= 1e-8


def test_geodesic_rejects_out_of_range(rng):
    s0, s1 = make_spd(2, rng), make_spd(2, rng)
    for t in (-0.1, 1.1, np.nan):
        with pytest.raises(OutOfRangeError):
            geodesic(s0, s1, t)
        with pytest.raises(OutOfRangeError):
            geodesic(s0, s1, np.array([0.0, t, 1.0]))


def test_geodesic_of_a_grid_is_each_point_bit_for_bit(rng):
    for d in (1, 3, 6):
        s0, s1 = make_spd(d, rng), make_spd(d, rng)
        grid = np.linspace(0.0, 1.0, 7)
        points = geodesic(s0, s1, grid)
        assert len(points) == len(grid)
        for t, p in zip(grid, points):
            alone = geodesic(s0, s1, float(t))
            assert np.array_equal(p.mat, alone.mat)
            assert np.array_equal(p.spectrum.values, alone.spectrum.values)
            assert np.array_equal(p.spectrum.vectors, alone.spectrum.vectors)


def test_geodesic_constant_speed_batch(rng):
    grid = np.linspace(0.0, 1.0, 11)
    for _ in range(50):
        d = int(rng.integers(2, 11))
        s0, s1 = make_spd(d, rng), make_spd(d, rng)
        full = procrustes_distance(s0, s1)
        pts = [geodesic(s0, s1, float(t)) for t in grid]
        for i in range(len(grid)):
            for j in range(i + 1, len(grid)):
                seg = procrustes_distance(pts[i], pts[j])
                assert abs(seg - (grid[j] - grid[i]) * full) <= 1e-6 * (1.0 + full)


def test_geodesic_matches_expanded_formula(rng):
    # quadratic-form oracle: S_t = t^2 S1 + (1-t)^2 S0 + t(1-t) (t01 S0 + S0 t01)
    s0, s1 = make_spd(5, rng), make_spd(5, rng)
    t01 = optimal_map(s0, s1)
    for t in (0.25, 0.5, 0.9):
        expanded = (
            t * t * s1.mat
            + (1.0 - t) * (1.0 - t) * s0.mat
            + t * (1.0 - t) * (t01 @ s0.mat + s0.mat @ t01)
        )
        assert np.max(np.abs(geodesic(s0, s1, t).mat - expanded)) <= 1e-10


def test_exp_map_reaches_geodesic_point_from_ill_conditioned_source():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    a = (q * np.logspace(0, -12, 5)) @ q.T
    x = rng.standard_normal((5, 2))
    b = x @ x.T
    t = 1.0
    g = geodesic(a, b, t)
    assert g.spectrum.values[-1] >= 0.0
    p = exp_map(a, t * log_map(a, b))
    assert np.max(np.abs(p.mat - g.mat)) <= 1e-12 * np.max(np.abs(g.mat))


def _with_spectrum(rng, values):
    q, _ = np.linalg.qr(rng.standard_normal((len(values), len(values))))
    m = (q * values) @ q.T
    return 0.5 * (m + m.T)


@st.composite
def _cone_cases(draw):
    """(base, rank_tol, b): d in 2..12, a base of condition number up to 1e12,
    and either one I + A or a stack of up to 5 in which one member's smallest
    eigenvalue is +-1e-18..+-1e-2 of its largest and the others are positive
    definite, so that a fold sends the whole stack to the eigenvalue test."""
    d = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = _with_spectrum(rng, np.logspace(0.0, -draw(st.floats(0.0, 12.0)), d))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    fold = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** -draw(st.floats(2.0, 18.0))
    size = draw(st.integers(0, 5))
    spectra = rng.uniform(0.1, 1.0, (max(size, 1), d))
    spectra[draw(st.integers(0, max(size, 1) - 1)), :2] = (fold, 1.0)
    b = np.array([_with_spectrum(rng, scale * w) for w in spectra])
    return base, draw(st.sampled_from([None, 1e-22])), b if size else b[0]


@given(_cone_cases())
@settings(derandomize=True, deadline=None, database=None, max_examples=300)
def test_cholesky_first_cone_test_matches_the_eigenvalue_test(case):
    # Cholesky accepts a matrix only up to its backward error, of order
    # d eps max|lambda|; outside twice that band the two tests must agree.
    base, rank_tol, b = case
    s = validate_psd(base)
    got, want = _cone_test(s, b, rank_tol)[0], eigvalsh_cone_test(s, b, rank_tol)[0]
    assert np.shape(got) == np.shape(want) == b.shape[:-2]
    w = np.linalg.eigvalsh(b)
    outside = np.abs(w[..., 0]) > 2.0 * s.dim * EPS * np.max(np.abs(w), axis=-1)
    assert np.array_equal(np.asarray(got)[outside], np.asarray(want)[outside])


def test_a_rejected_step_solves_its_eigenvalue_problem_once(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    with pytest.raises(LeavesConeError) as err:
        exp_map(np.eye(3), np.diag([-1.5, 0.0, 0.0]))
    # The cone test's own solve gives lambda_min; Cholesky failed first.
    assert calls == [(3, 3)] and err.value.lambda_min == pytest.approx(-0.5)
    calls.clear()
    with pytest.raises(LeavesConeError) as err:
        principal_geodesic(np.eye(2), np.diag([1.0, -1.0]) / math.sqrt(2.0), 2.0)
    # One more for the admissible interval, from the component's spectrum.
    assert len(calls) == 2 and err.value.interval == pytest.approx((-math.sqrt(2.0), math.sqrt(2.0)))
