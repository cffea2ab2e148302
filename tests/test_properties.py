"""Property tests of the symmetries the Procrustes geometry guarantees.

Bounds of the generated inputs, fixed up front: dimension d in 2..6, family
size n in 2..6, eigenvalues in [0.1, 10] (condition number at most 100), with
eigenbases drawn from seeded Gaussian matrices.  Tolerances: closed-form
quantities (distance, map, geodesic) agree to 1e-12 relative to the scale of
their inputs; means agree to 1e-6 relative to the trace, the solver's residual
certificate.  The triangle inequality gets the slack 1e-7 sqrt(tr), above the
sqrt(eps tr) floor of a distance computed through its square.  The cone test
of ``exp_map`` is checked on ill-conditioned sources instead (condition number
up to 1e12, rank-deficient targets): it must pass every geodesic point, at
the default rank_tol and at a smaller one, and still reject a fold of
-1e-2 max|lambda(I + A)|, above its cap of 1e-3 max|lambda(I + A)|.

The mean's symmetries are checked on full-rank families and on families
whose members after the first may miss their smallest eigenvalue, so that
the solver's exact-rank factor path is held to them at the same tolerance.

Downstream of the mean, ``tangent_pca`` and ``multicoupling`` are evaluated at
the mean transformed with the members (c M, Q M Q^T), not solved again, on
families whose members after the first may miss their smallest eigenvalue:
the variances and the multicoupling cost agree to 2e-13 relative (about three
times the largest error seen on 1500 such families) above a roundoff floor of
1e-14 tr M, which families of near-equal members reach; the maps agree to the
closed-form 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwgeom import (
    LeavesConeError,
    MeanConfig,
    exp_map,
    geodesic,
    log_map,
    mean_fixed_point,
    mean_procrustes_averaging,
    multicoupling,
    multicoupling_cost,
    optimal_map,
    procrustes_distance,
    procrustes_distance_squared,
    tangent_pca,
)

CLOSED_FORM_TOL = 1e-12
SOLVER_TOL = 1e-6
TRIANGLE_SLACK = 1e-7
DOWNSTREAM_TOL = 2e-13
ROUNDOFF_FLOOR = 1e-14
SCALES = (1e-6, 1e-3, 1e3, 1e6)
MEAN_SCALES = (1e3, 1e6)

# Derandomized so a run is reproducible; no example database is kept.
BASE = settings(derandomize=True, deadline=None, database=None)

# The solvers' certificate is relative to the trace, so their default
# stopping rule is scale-invariant; the two fixed families at the end check it
# at the default tolerance.  Here the descent runs to roundoff, so that a
# random family whose stopping test sits at the threshold cannot flip by
# rounding alone.  GPA runs at its default.
SCALE_SOLVERS = (
    lambda members: mean_fixed_point(members, MeanConfig(rel_tol=1e-12)),
    mean_procrustes_averaging,
)


def _orthogonal(seed, d):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q


@st.composite
def _spd(draw, d):
    values = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d)))
    q = _orthogonal(draw(st.integers(0, 2**32 - 1)), d)
    return (q * values) @ q.T


@st.composite
def _family(draw):
    """(members, orthogonal Q) with d in 2..6 and n in 2..6."""
    d = draw(st.integers(2, 6))
    n = draw(st.integers(2, 6))
    members = [draw(_spd(d)) for _ in range(n)]
    return members, _orthogonal(draw(st.integers(0, 2**32 - 1)), d)


@st.composite
def _points(draw, k):
    """k covariances of one dimension d in 2..6."""
    d = draw(st.integers(2, 6))
    return [draw(_spd(d)) for _ in range(k)]


@st.composite
def _ill_conditioned_pair(draw):
    """(source, target): d in 2..6, a source of condition number up to 1e12 and a
    target of rank 1..d-1."""
    d = draw(st.integers(2, 6))
    q = _orthogonal(draw(st.integers(0, 2**32 - 1)), d)
    source = (q * np.logspace(0.0, -draw(st.floats(0.0, 12.0)), d)) @ q.T
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((d, draw(st.integers(1, d - 1))))
    return source, x @ x.T


@st.composite
def _mixed_family(draw):
    """(members, orthogonal Q) as ``_family``, but each member after the first,
    which keeps the mean of full rank, may have its smallest eigenvalue set to 0."""
    d = draw(st.integers(2, 6))
    members = []
    for i in range(draw(st.integers(2, 6))):
        values = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d)))
        if i and draw(st.booleans()):
            values[np.argmin(values)] = 0.0
        q = _orthogonal(draw(st.integers(0, 2**32 - 1)), d)
        members.append((q * values) @ q.T)
    return members, _orthogonal(draw(st.integers(0, 2**32 - 1)), d)


def _downstream(members, mean):
    """(maps, variances, cost): the multicoupling maps and cost and the tangent
    PCA variances of ``members`` at ``mean``, with as many components as fit."""
    d = len(mean)
    joint = multicoupling(mean, members)
    pca = tangent_pca(joint.maps - np.eye(d), mean, min(len(members), d * (d + 1) // 2))
    return joint.maps, pca.variances, multicoupling_cost(joint)


def _assert_downstream_close(got, want, trace):
    """Maps to ``CLOSED_FORM_TOL``; variances and cost to ``DOWNSTREAM_TOL``
    relative, above the roundoff floor ``ROUNDOFF_FLOOR * trace`` of the
    differences they are summed from, which a family of near-equal members
    reaches."""
    (maps, variances, cost), (maps_want, variances_want, cost_want) = got, want
    floor = ROUNDOFF_FLOOR * trace
    assert np.max(np.abs(maps - maps_want)) <= CLOSED_FORM_TOL * np.max(np.abs(maps_want))
    assert np.max(np.abs(variances - variances_want)) <= DOWNSTREAM_TOL * variances_want[0] + floor
    assert abs(cost - cost_want) <= DOWNSTREAM_TOL * cost_want + floor


def _conj(q, m):
    return q @ np.asarray(m) @ q.T


def _trace_norm(a):
    return float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (a + a.T)))))


@given(_family())
@settings(BASE, max_examples=60)
def test_distance_orthogonal_equivariance(fam):
    (a, b, *_), q = fam
    d2 = procrustes_distance_squared(a, b)
    d2q = procrustes_distance_squared(_conj(q, a), _conj(q, b))
    assert abs(d2q - d2) <= CLOSED_FORM_TOL * (np.trace(a) + np.trace(b))


@given(_family())
@settings(BASE, max_examples=60)
def test_optimal_map_orthogonal_equivariance(fam):
    (a, b, *_), q = fam
    t = optimal_map(a, b)
    tq = optimal_map(_conj(q, a), _conj(q, b))
    assert np.max(np.abs(tq - _conj(q, t))) <= CLOSED_FORM_TOL * np.max(np.abs(t))


@given(_family(), st.floats(0.0, 1.0))
@settings(BASE, max_examples=60)
def test_geodesic_orthogonal_equivariance(fam, t):
    (a, b, *_), q = fam
    g = geodesic(a, b, t).mat
    gq = geodesic(_conj(q, a), _conj(q, b), t).mat
    assert _trace_norm(gq - _conj(q, g)) <= CLOSED_FORM_TOL * (np.trace(a) + np.trace(b))


@given(st.one_of(_family(), _mixed_family()))
@settings(BASE, max_examples=30)
def test_mean_orthogonal_equivariance(fam):
    members, q = fam
    for solver in (mean_fixed_point, mean_procrustes_averaging):
        mean = solver(members).mean.mat
        mean_q = solver([_conj(q, m) for m in members]).mean.mat
        assert _trace_norm(mean_q - _conj(q, mean)) <= SOLVER_TOL * np.trace(mean)


@given(st.one_of(_family(), _mixed_family()), st.randoms(use_true_random=False))
@settings(BASE, max_examples=30)
def test_mean_member_order_invariance(fam, random):
    members, _ = fam
    shuffled = list(members)
    random.shuffle(shuffled)
    for solver in (mean_fixed_point, mean_procrustes_averaging):
        mean = solver(members).mean.mat
        mean_s = solver(shuffled).mean.mat
        assert _trace_norm(mean_s - mean) <= SOLVER_TOL * np.trace(mean)


@given(st.one_of(_family(), _mixed_family()), st.sampled_from(MEAN_SCALES))
@settings(BASE, max_examples=30)
def test_mean_scale_equivariance(fam, c):
    members, _ = fam
    for solver in SCALE_SOLVERS:
        mean = solver(members).mean.mat
        mean_c = solver([c * m for m in members]).mean.mat
        assert _trace_norm(mean_c - c * mean) <= SOLVER_TOL * c * np.trace(mean)


@given(_mixed_family(), st.sampled_from(SCALES))
@settings(BASE, max_examples=40)
def test_tangent_pca_and_multicoupling_scale_equivariance(fam, c):
    # Maps do not change; the tangent metric, so the variances, and the cost scale by c.
    members, _ = fam
    mean = mean_fixed_point(members).mean.mat
    maps, variances, cost = _downstream(members, mean)
    got = _downstream([c * m for m in members], c * mean)
    _assert_downstream_close(got, (maps, c * variances, c * cost), c * np.trace(mean))


@given(_mixed_family())
@settings(BASE, max_examples=40)
def test_tangent_pca_and_multicoupling_orthogonal_equivariance(fam):
    members, q = fam
    mean = mean_fixed_point(members).mean.mat
    maps, variances, cost = _downstream(members, mean)
    got = _downstream([_conj(q, m) for m in members], _conj(q, mean))
    _assert_downstream_close(got, (q @ maps @ q.T, variances, cost), np.trace(mean))


@given(_mixed_family(), st.permutations(range(6)))
@settings(BASE, max_examples=40)
def test_tangent_pca_and_multicoupling_member_order_invariance(fam, order):
    members, _ = fam
    order = [i for i in order if i < len(members)]
    mean = mean_fixed_point(members).mean.mat
    maps, variances, cost = _downstream(members, mean)
    got = _downstream([members[i] for i in order], mean)
    _assert_downstream_close(got, (maps[order], variances, cost), np.trace(mean))


@given(_points(2), st.sampled_from(SCALES))
@settings(BASE, max_examples=60)
def test_distance_scale_equivariance(pair, c):
    a, b = pair
    d2 = procrustes_distance_squared(a, b)
    d2c = procrustes_distance_squared(c * a, c * b)
    assert abs(d2c - c * d2) <= CLOSED_FORM_TOL * c * (np.trace(a) + np.trace(b))


@given(_points(2), st.sampled_from(SCALES))
@settings(BASE, max_examples=60)
def test_optimal_map_scale_invariance(pair, c):
    a, b = pair
    t = optimal_map(a, b)
    tc = optimal_map(c * a, c * b)
    assert np.max(np.abs(tc - t)) <= CLOSED_FORM_TOL * np.max(np.abs(t))


@given(_points(2), st.sampled_from(SCALES), st.floats(0.0, 1.0))
@settings(BASE, max_examples=60)
def test_geodesic_scale_equivariance(pair, c, t):
    a, b = pair
    g = geodesic(a, b, t).mat
    gc = geodesic(c * a, c * b, t).mat
    assert _trace_norm(gc - c * g) <= CLOSED_FORM_TOL * c * (np.trace(a) + np.trace(b))


@given(_points(2))
@settings(BASE, max_examples=60)
def test_distance_symmetry(pair):
    a, b = pair
    gap = abs(procrustes_distance_squared(a, b) - procrustes_distance_squared(b, a))
    assert gap <= CLOSED_FORM_TOL * (np.trace(a) + np.trace(b))


@given(_points(3))
@settings(BASE, max_examples=60)
def test_triangle_inequality(triple):
    a, b, c = triple
    slack = TRIANGLE_SLACK * np.sqrt(np.trace(a) + np.trace(b) + np.trace(c))
    assert procrustes_distance(a, c) <= procrustes_distance(a, b) + procrustes_distance(b, c) + slack


@given(_points(2), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(BASE, max_examples=60)
def test_geodesic_distance_is_proportional(pair, s, t):
    a, b = pair
    s, t = min(s, t), max(s, t)
    d2 = procrustes_distance_squared(geodesic(a, b, s), geodesic(a, b, t))
    want = (t - s) ** 2 * procrustes_distance_squared(a, b)
    assert abs(d2 - want) <= CLOSED_FORM_TOL * (np.trace(a) + np.trace(b))


@given(_ill_conditioned_pair(), st.sampled_from([None, 1e-22]))
@settings(BASE, max_examples=100)
def test_exp_map_accepts_every_geodesic_point(pair, rank_tol):
    a, b = pair
    direction = log_map(a, b, rank_tol)
    grid = np.linspace(0.0, 1.0, 11)
    points = [exp_map(a, t * direction, rank_tol) for t in grid]
    for p in points:
        assert p.spectrum.values[-1] >= 0.0
    # The whole grid as one stack gives each point bit for bit as alone.
    stacked = exp_map(a, grid[:, None, None] * direction, rank_tol)
    assert len(stacked) == len(points)
    for got, want in zip(stacked, points):
        assert np.array_equal(got.mat, want.mat)
        assert np.array_equal(got.spectrum.values, want.spectrum.values)
        assert np.array_equal(got.spectrum.vectors, want.spectrum.vectors)


@given(_ill_conditioned_pair(), st.integers(0, 2**32 - 1))
@settings(BASE, max_examples=100)
def test_exp_map_rejects_a_fold_at_an_ill_conditioned_base(pair, seed):
    # I + A has eigenvalues from -1e-2 to 1, so lambda_min = -1e-2 max|lambda|.
    a, _ = pair
    d = len(a)
    q = _orthogonal(seed, d)
    fold = (q * np.linspace(-1e-2, 1.0, d)) @ q.T - np.eye(d)
    with pytest.raises(LeavesConeError) as alone:
        exp_map(a, fold)
    # In a stack the first rejected direction names lambda_min, here the fold
    # at position 1 and not the deeper one (lambda_min near -1.02) after it.
    with pytest.raises(LeavesConeError) as stacked:
        exp_map(a, np.stack([np.zeros((d, d)), fold, 2.0 * fold]))
    assert stacked.value.lambda_min == alone.value.lambda_min


def test_mean_scale_equivariance_at_tiny_scale():
    rng = np.random.default_rng(7)
    members = []
    for _ in range(5):
        q = _orthogonal(int(rng.integers(2**32)), 4)
        members.append((q * rng.uniform(0.1, 10.0, size=4)) @ q.T)
    for solver in (mean_fixed_point, mean_procrustes_averaging):
        mean = solver(members).mean.mat
        tiny = solver([1e-12 * m for m in members]).mean.mat
        assert _trace_norm(tiny - 1e-12 * mean) <= SOLVER_TOL * 1e-12 * np.trace(mean)


def test_mean_scale_equivariance_at_default_tolerance():
    a = np.array([
        [0.64171147, -0.81592868, -0.13959035, -0.19587746],
        [-0.81592868, 3.51659729, -0.27472855, 1.8949458],
        [-0.13959035, -0.27472855, 0.94604096, -0.05321855],
        [-0.19587746, 1.8949458, -0.05321855, 2.14565029],
    ])
    b = np.array([
        [6.8927136, 0.33692806, -0.5966426, 0.39458551],
        [0.33692806, 5.92167062, 1.67226063, -1.50665542],
        [-0.5966426, 1.67226063, 1.67476477, -0.47043805],
        [0.39458551, -1.50665542, -0.47043805, 2.01085101],
    ])
    for solver in (mean_fixed_point, mean_procrustes_averaging):
        mean = solver([a, b]).mean.mat
        big = solver([1e3 * a, 1e3 * b]).mean.mat
        assert _trace_norm(big - 1e3 * mean) <= SOLVER_TOL * 1e3 * np.trace(mean)
