import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwgeom import (
    DimMismatchError,
    EmptyFamilyError,
    KernelConditionError,
    MaxIterExceeded,
    MeanConfig,
    OutOfRangeError,
    fixed_point_residual,
    frechet_functional,
    log_map,
    mean_fixed_point,
    mean_procrustes_averaging,
    multicoupling,
    multicoupling_cost,
    optimal_map,
    pairwise_alignment,
    procrustes_distance,
    procrustes_distance_squared,
    sqrt_psd,
    tangent_norm,
    validate_psd,
)
from bwgeom.barycenter import RESIDUAL_CERT
from bwgeom.bures import product_root
from bwgeom.spectral import trace_norm

from conftest import make_psd_rank, make_spd

A41 = np.diag([4.0, 1.0])
B14 = np.diag([1.0, 4.0])


def check_descent_diagnostics(res):
    """Shared assertions for every descent-solver run in the suite."""
    f = res.functional_trace
    assert np.all(np.diff(f) <= 1e-12 * np.maximum(1.0, f[:-1]))
    t = res.trace_of_iterates
    if len(t) > 1:
        assert np.all(np.diff(t) >= -1e-10 * np.maximum(1.0, t[:-1]))
    assert res.iterations == len(f) - 1
    assert len(t) == res.iterations


def test_frechet_functional_examples(rng):
    s = make_spd(3, rng)
    assert frechet_functional(s, [s, s]) <= 1e-12
    assert frechet_functional(np.diag([2.25, 2.25]), [A41, B14]) == pytest.approx(0.25, abs=1e-12)
    assert frechet_functional(np.zeros((3, 3)), [s]) == pytest.approx(s.trace / 2.0, abs=1e-9)


def test_frechet_functional_errors(rng):
    with pytest.raises(EmptyFamilyError):
        frechet_functional(np.eye(2), [])
    with pytest.raises(DimMismatchError):
        frechet_functional(np.eye(2), [np.eye(3)])


def test_fixed_point_residual_vanishes_at_mean():
    assert fixed_point_residual(np.diag([2.25, 2.25]), [A41, B14]) <= 1e-12
    # at the identity: ||I - (sqrt(A41) + sqrt(B14))/2||_1 = ||I - 1.5 I||_1 = 1
    assert fixed_point_residual(np.eye(2), [A41, B14]) == pytest.approx(1.0, abs=1e-12)


def test_mean_config_validation():
    with pytest.raises(OutOfRangeError):
        MeanConfig(max_iter=0)
    with pytest.raises(OutOfRangeError):
        MeanConfig(rel_tol=0.0)


def test_mean_identical_family(rng):
    s = make_spd(4, rng)
    res = mean_fixed_point([s, s, s])
    assert res.converged
    assert np.max(np.abs(res.mean.mat - s.mat)) <= 1e-10
    check_descent_diagnostics(res)


def test_mean_commuting_oracle():
    res = mean_fixed_point([A41, B14])
    assert np.allclose(res.mean.mat, np.diag([2.25, 2.25]), atol=1e-10)
    assert res.converged
    check_descent_diagnostics(res)


def test_commuting_one_step_from_euclidean_mean(rng):
    # shared eigenbasis: one descent step from the euclidean mean lands on
    # (average of roots)^2 with residual at numerical zero
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    roots = [rng.uniform(0.4, 1.8, 5) for _ in range(4)]
    fam = [(q * (w * w)) @ q.T for w in roots]
    res = mean_fixed_point(fam)
    avg_root = sum(roots) / len(roots)
    want = (q * (avg_root * avg_root)) @ q.T
    assert np.max(np.abs(res.mean.mat - want)) <= 1e-8
    assert res.residual_trace[1] <= 1e-10 * (1.0 + res.mean.trace)
    assert res.iterations <= 2
    check_descent_diagnostics(res)


def test_mean_random_families_certificate(rng):
    for _ in range(10):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(2, 7))
        fam = [make_spd(d, rng) for _ in range(n)]
        res = mean_fixed_point(fam)
        assert res.converged
        assert fixed_point_residual(res.mean, fam) <= 1e-6 * (1.0 + res.mean.trace)
        avg_trace = sum(m.trace for m in fam) / n
        assert res.mean.trace <= avg_trace + 1e-9
        check_descent_diagnostics(res)


def test_mean_first_order_condition(rng):
    fam = [make_spd(5, rng) for _ in range(4)]
    res = mean_fixed_point(fam, MeanConfig(rel_tol=1e-12))
    avg_dir = sum(log_map(res.mean, m) for m in fam) / len(fam)
    assert tangent_norm(res.mean, avg_dir) <= 1e-6


def test_mean_trace_bound_equality_for_equal_family(rng):
    s = make_spd(3, rng)
    res = mean_fixed_point([s, s])
    assert res.mean.trace == pytest.approx(s.trace, abs=1e-9)


def test_algorithms_agree(rng):
    for _ in range(5):
        fam = [make_spd(5, rng) for _ in range(3)]
        r1 = mean_fixed_point(fam)
        r2 = mean_procrustes_averaging(fam)
        assert procrustes_distance(r1.mean, r2.mean) <= 1e-5
        assert r2.algorithm == "procrustes_averaging"


def test_mean_with_rank_deficient_members(rng):
    # one injective member keeps every iterate usable
    fam = [make_spd(5, rng)] + [make_psd_rank(5, 2, rng) for _ in range(3)]
    res = mean_fixed_point(fam)
    assert res.converged
    assert fixed_point_residual(res.mean, fam) <= 1e-6 * (1.0 + res.mean.trace)
    check_descent_diagnostics(res)


def test_mean_all_singular_members_converges_or_stops(rng):
    # Without an injective member the averaged transport image can drop rank,
    # so a kernel stop is a valid outcome; a returned mean must still certify.
    hits = 0
    for _ in range(20):
        d = int(rng.integers(3, 8))
        fam = [make_psd_rank(d, int(rng.integers(max(1, d // 2), d)), rng) for _ in range(4)]
        try:
            res = mean_fixed_point(fam, MeanConfig(max_iter=500))
        except KernelConditionError:
            continue
        hits += 1
        assert res.converged
        assert fixed_point_residual(res.mean, fam) <= 1e-5 * (1.0 + res.mean.trace)
    assert hits > 0


def test_mean_deflates_common_kernel(rng):
    p = np.zeros((5, 5))
    p[:3, :3] = np.eye(3)
    fam = [p @ np.asarray(make_spd(5, rng)) @ p for _ in range(3)]
    res = mean_fixed_point(fam)
    assert res.converged
    w = np.linalg.eigvalsh(res.mean.mat)
    assert abs(w[0]) <= 1e-12 and abs(w[1]) <= 1e-12
    assert fixed_point_residual(res.mean, fam) <= 1e-6 * (1.0 + res.mean.trace)


def test_mean_explicit_init_on_common_kernel():
    # Commuting members: the mean is ((sqrt(a) + sqrt(b)) / 2)^2 on the shared range.
    fam = [np.diag([1.0, 2.0, 0.0]), np.diag([2.0, 1.0, 0.0])]
    res = mean_fixed_point(fam)
    assert res.converged
    c = ((1.0 + np.sqrt(2.0)) / 2.0) ** 2
    assert np.max(np.abs(res.mean.mat - np.diag([c, c, 0.0]))) <= 1e-10


def test_mean_zero_family():
    res = mean_fixed_point([np.zeros((3, 3)), np.zeros((3, 3))])
    assert res.converged and res.mean.trace == 0.0


def test_mean_with_zero_member():
    # S = ((S^{1/2} I S^{1/2})^{1/2} + 0) / 2 gives S = I / 4.
    res = mean_fixed_point([np.eye(3), np.zeros((3, 3))])
    assert res.converged
    assert np.max(np.abs(res.mean.mat - 0.25 * np.eye(3))) <= 1e-10


def test_max_iter_exceeded_carries_result(rng):
    fam = [make_spd(6, rng) for _ in range(5)]
    with pytest.raises(MaxIterExceeded) as err:
        mean_fixed_point(fam, MeanConfig(max_iter=1, rel_tol=1e-16))
    res = err.value.result
    assert not res.converged and res.iterations == 1
    check_descent_diagnostics(res)


def test_mean_single_member(rng):
    s = make_spd(4, rng)
    res = mean_fixed_point([s])
    assert res.iterations == 0
    assert np.max(np.abs(res.mean.mat - s.mat)) <= 1e-10


def test_gpa_identical_and_commuting(rng):
    s = make_spd(3, rng)
    res = mean_procrustes_averaging([s, s])
    assert np.max(np.abs(res.mean.mat - s.mat)) <= 1e-8
    res = mean_procrustes_averaging([A41, B14])
    assert np.allclose(res.mean.mat, np.diag([2.25, 2.25]), atol=1e-10)


def test_gpa_max_iter(rng):
    fam = [make_spd(4, rng) for _ in range(3)]
    with pytest.raises(MaxIterExceeded):
        mean_procrustes_averaging(fam, MeanConfig(max_iter=1, rel_tol=1e-16))


def test_gpa_diagnostics_contract(rng):
    fam = [make_spd(4, rng) for _ in range(3)]
    res = mean_procrustes_averaging(fam)
    assert res.converged
    assert len(res.functional_trace) == len(res.residual_trace) == res.iterations + 1
    assert len(res.trace_of_iterates) == len(res.min_eig_of_iterates) == res.iterations
    tr = res.mean.trace
    assert abs(res.functional_trace[-1] - frechet_functional(res.mean, fam)) <= 1e-12 * (1.0 + tr)
    assert res.residual_trace[-1] == fixed_point_residual(res.mean, fam)
    assert res.trace_of_iterates[-1] == tr
    assert res.min_eig_of_iterates[-1] == res.mean.spectrum.values[-1]
    with pytest.raises(MaxIterExceeded) as err:
        mean_procrustes_averaging(fam, MeanConfig(max_iter=3, rel_tol=1e-16))
    capped = err.value.result
    assert not capped.converged and capped.iterations == 3
    assert len(capped.functional_trace) == len(capped.residual_trace) == 4
    assert len(capped.trace_of_iterates) == len(capped.min_eig_of_iterates) == 3


def svd_alignment_iterates(family, steps):
    """Generalized Procrustes averaging as an explicit loop: rotate each root
    toward the average root by the polar factor of one SVD, average, square."""
    aligned = [sqrt_psd(m) for m in family]
    avg = sum(aligned) / len(aligned)
    squares = []
    for _ in range(steps):
        aligned = [l @ pairwise_alignment(avg, l) for l in aligned]
        avg = sum(aligned) / len(aligned)
        squares.append(avg @ avg.T)
    return squares


@st.composite
def one_full_rank_family(draw):
    """One member of full rank, eigenvalues in [0.2, 3], and 1..5 members of
    rank 1..d, each X X^T for a Gaussian d x r factor X."""
    d = draw(st.integers(2, 7))
    ranks = draw(st.lists(st.integers(1, d), min_size=1, max_size=5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = [make_spd(d, gen)]
    for r in ranks:
        x = gen.standard_normal((d, r))
        family.append(validate_psd(x @ x.T))
    return family


@given(one_full_rank_family())
@settings(derandomize=True, deadline=None, database=None, max_examples=40)
def test_gpa_iterates_match_the_svd_alignment_loop(family):
    # Both compute (T S T) from the same start; they differ by roundoff, except
    # that the loop aligns the full PSD root of a rank-deficient member.  The
    # roots of that root's clamped roundoff eigenvalues (at most d eps
    # lambda_max) reach sqrt(d eps lambda_max), where the solver's product
    # roots work on the member's range only, so the iterates agree to
    # sqrt(d eps) relative (the largest gap seen on 1000 such families was
    # 0.45 of it; families of full-rank members agree to 1e-13).
    d = family[0].dim
    bound = np.sqrt(d * np.finfo(float).eps)
    for k, want in enumerate(svd_alignment_iterates(family, 6), start=1):
        with pytest.raises(MaxIterExceeded) as err:
            mean_procrustes_averaging(family, MeanConfig(max_iter=k, rel_tol=1e-300))
        got = err.value.result.mean.mat
        assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)


def common_kernel_family(seed):
    """Members on a random r-dimensional range in d = 3..7 dimensions: one of
    full rank on that range, the others of rank 1..r."""
    gen = np.random.default_rng([77, seed])
    d = int(gen.integers(3, 8))
    r = int(gen.integers(2, d))
    n = int(gen.integers(3, 7))
    q = np.linalg.qr(gen.standard_normal((d, d)))[0][:, :r]
    a = gen.standard_normal((r, r))
    family = [q @ (a @ a.T + 0.1 * np.eye(r)) @ q.T]
    for _ in range(n - 1):
        b = gen.standard_normal((r, int(gen.integers(1, r + 1))))
        family.append(q @ b @ b.T @ q.T)
    return [0.5 * (m + m.T) for m in family]


def assert_gpa_matches_descent(family):
    res = mean_procrustes_averaging(family)
    assert res.converged
    want = mean_fixed_point(family).mean.mat
    assert np.linalg.norm(res.mean.mat - want) <= 1e-5 * np.linalg.norm(want)


def test_gpa_deflates_common_kernel():
    # Without the deflation the iterates of this family (d = 4 on a range of
    # dimension 2) lose rank within the range: the kernel check stops them at
    # iterate 8, and without that check too they settle on a lower-rank fixed
    # point 4e-3 away from the mean.
    assert_gpa_matches_descent(common_kernel_family(1))


@pytest.mark.parametrize("seed", [3084, 3868])
def test_gpa_converges_on_common_kernel_families_the_alignment_loop_does_not(seed):
    # The SVD alignment loop needs 412 (seed 3084) and 2483 (seed 3868)
    # iterations for these families, beyond the default cap of 200.  Without
    # the deflation the kernel check stops the transport-map iterates at
    # iterate 28 and 23.
    assert_gpa_matches_descent(common_kernel_family(seed))


@pytest.mark.parametrize("seed", [21, 68, 86, 92])
def test_descent_converges_on_common_kernel_families_through_the_deflation(seed):
    # Without the deflation to the members' common range the kernel check
    # stops the descent on these families with KernelConditionError.
    family = common_kernel_family(seed)
    res = mean_fixed_point(family)
    assert res.converged
    assert res.residual_trace[-1] <= RESIDUAL_CERT * res.mean.trace
    assert fixed_point_residual(res.mean, family) <= RESIDUAL_CERT * res.mean.trace


def test_pairwise_alignment_examples(rng):
    l = np.asarray(make_spd(4, rng))
    assert np.max(np.abs(pairwise_alignment(l, l) - np.eye(4))) <= 1e-10
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    r = pairwise_alignment(np.eye(4), q)
    assert np.max(np.abs(r - q.T)) <= 1e-10


def test_pairwise_alignment_achieves_trace_norm(rng):
    l1, l2 = rng.standard_normal((2, 4, 4))
    r = pairwise_alignment(l1, l2)
    achieved = float(np.trace(r.T @ l2.T @ l1))
    sv = np.linalg.svd(l2.T @ l1, compute_uv=False)
    assert achieved == pytest.approx(float(sv.sum()), abs=1e-10)


def test_multicoupling_oracle():
    res = mean_fixed_point([A41, B14])
    joint = multicoupling(res.mean, [A41, B14])
    assert joint.n == 2 and joint.dim == 2
    assert np.allclose(joint.block(0, 1), np.diag([2.0, 2.0]), atol=1e-8)
    assert multicoupling_cost(joint) == pytest.approx(0.25, abs=1e-8)


def test_multicoupling_contract(rng):
    fam = [make_spd(4, rng) for _ in range(3)]
    res = mean_fixed_point(fam)
    joint = multicoupling(res.mean, fam)
    full = joint.full()
    assert np.max(np.abs(full - full.T)) <= 1e-12
    for i, m in enumerate(fam):
        assert np.max(np.abs(joint.block(i, i) - m.mat)) <= 1e-8 * (1.0 + m.trace)
    lam_min = float(np.linalg.eigvalsh(0.5 * (full + full.T))[0])
    assert lam_min >= -1e-8 * (1.0 + float(np.trace(full)))
    g = multicoupling_cost(joint)
    f = frechet_functional(res.mean, fam)
    assert abs(g - f) <= 1e-8


def test_multicoupling_single_member(rng):
    s = make_spd(3, rng)
    joint = multicoupling(s, [s])
    assert np.max(np.abs(joint.full() - s.mat)) <= 1e-8
    assert multicoupling_cost(joint) == 0.0


def _blockwise_joint(maps, mean):
    """Reference assembly: (t_i M) t_j on and above the diagonal, its transpose below."""
    n, d = len(maps), mean.shape[0]
    out = np.empty((n * d, n * d))
    for i in range(n):
        left = maps[i] @ mean
        for j in range(i, n):
            b = left @ maps[j]
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] = b
            out[j * d : (j + 1) * d, i * d : (i + 1) * d] = b.T
    return out


def _pairwise_trace_cost(full, n, d):
    """Reference cost: (1/2N^2) sum_{i<j} tr B_ii + tr B_jj - 2 tr B_ij over the blocks."""
    tr = lambda i, j: float(np.trace(full[i * d : (i + 1) * d, j * d : (j + 1) * d]))
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += tr(i, i) + tr(j, j) - 2.0 * tr(i, j)
    return total / (2.0 * n * n)


@pytest.mark.parametrize("n, d", [(1, 3), (2, 2), (4, 5), (7, 3)])
def test_joint_covariance_matches_blockwise_reference(rng, n, d):
    fam = [make_spd(d, rng) for _ in range(n)]
    mean = mean_fixed_point(fam).mean
    joint = multicoupling(mean, fam)
    assert joint.maps.shape == (n, d, d) and (joint.n, joint.dim) == (n, d)
    ref = _blockwise_joint([optimal_map(mean, m) for m in fam], mean.mat)
    scale = float(np.max(np.abs(ref)))
    full = joint.full()
    assert np.max(np.abs(full - ref)) <= 1e-13 * scale
    assert np.array_equal(full, full.T)
    blocks = joint.blocks
    assert blocks.shape == (n, n, d, d) and not blocks.flags.writeable
    for i in range(n):
        for j in range(n):
            assert np.max(np.abs(blocks[i, j] - joint.block(i, j))) <= 1e-13 * scale
    cost = multicoupling_cost(joint)
    want = _pairwise_trace_cost(ref, n, d)
    if n == 1:
        assert cost == want == 0.0
    else:
        # Relative to the member traces that cancel in each pairwise term.
        assert abs(cost - want) <= 1e-13 * sum(m.trace for m in fam) / n


@pytest.mark.parametrize("n, d", [(1, 3), (1, 6), (2, 4), (5, 3), (8, 6)])
def test_joint_min_eigenvalue_matches_the_full_spectrum(rng, n, d):
    fam = [make_spd(d, rng) for _ in range(n)]
    # A mean that is not the family's own, so a one-member joint is t M t with t != I.
    joint = multicoupling(make_spd(d, rng), fam)
    full = joint.full()
    ref = float(np.linalg.eigvalsh(full)[0])
    assert abs(joint.min_eigenvalue() - ref) <= 1e-13 * float(np.max(np.abs(full)))
    if n == 1:
        assert joint.min_eigenvalue() == pytest.approx(float(np.linalg.eigvalsh(fam[0].mat)[0]), rel=1e-12)
    else:
        assert joint.min_eigenvalue() == 0.0


def old_evaluation(s, family):
    """Functional and residual from the product roots of the full PSD root of
    S, the evaluation used before S was rooted on its numerical range."""
    root = sqrt_psd(s)
    gs = [product_root(root, m) for m in family]
    f = sum(max(0.0, s.trace + m.trace - 2.0 * float(np.trace(g))) for m, g in zip(family, gs))
    gbar = sum(gs) / len(gs)
    return f / (2.0 * len(family)), trace_norm(s.mat - gbar)


def test_evaluation_at_full_rank_points_is_unchanged(rng):
    for d in (2, 5, 9):
        family = [make_spd(d, rng) for _ in range(4)] + [make_psd_rank(d, d - 1, rng)]
        for s in (make_spd(d, rng), family[0], validate_psd(sum(m.mat for m in family) / 5.0)):
            assert (frechet_functional(s, family), fixed_point_residual(s, family)) == old_evaluation(s, family)


def mp_evaluation(s, family):
    """40-digit functional, residual and squared distances at the exact float matrices."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40

    def root(a):
        w, q = mpmath.eigsy(a)
        return q * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in w]) * q.T

    tr = lambda a: sum(a[i, i] for i in range(a.rows))
    sm = mpmath.matrix(s.tolist())
    r = root(sm)
    d2, gsum = [], mpmath.zeros(sm.rows, sm.rows)
    for m in family:
        mm = mpmath.matrix(m.tolist())
        g = root(r * mm * r)
        d2.append(tr(sm) + tr(mm) - 2 * tr(g))
        gsum += g
    diff = sm - gsum / len(family)
    residual = sum(abs(x) for x in mpmath.eigsy((diff + diff.T) / 2, eigvals_only=True))
    return float(sum(d2) / (2 * len(family))), float(residual), [float(x) for x in d2]


def test_evaluation_at_rank_deficient_points_is_as_accurate_as_the_distance(rng):
    # Integer factors make S = L L^T exactly rank r in floating point, so the
    # 40-digit reference evaluates the same matrices the code receives.
    rel = lambda got, ref: abs(got - ref) / ref
    errors = {"functional": [], "residual": [], "distance": []}
    for d, r in [(3, 1), (3, 2), (4, 2), (5, 3), (6, 4), (6, 5)]:
        lf = rng.integers(-3, 4, size=(d, r)).astype(float)
        s = lf @ lf.T
        assert np.linalg.matrix_rank(s) == r
        lm = rng.integers(-3, 4, size=(d, d - 1)).astype(float)
        family = [make_spd(d, rng).mat for _ in range(3)] + [lm @ lm.T]
        f_ref, res_ref, d2_ref = mp_evaluation(s, family)
        errors["functional"].append(rel(frechet_functional(s, family), f_ref))
        errors["residual"].append(rel(fixed_point_residual(s, family), res_ref))
        errors["distance"] += [rel(procrustes_distance_squared(s, m), x) for m, x in zip(family, d2_ref)]
    floor = max(max(errors["distance"]), 16 * np.finfo(float).eps)
    assert max(errors["functional"]) <= floor
    assert max(errors["residual"]) <= floor
