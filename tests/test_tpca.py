import math
import sys

import numpy as np
import pytest

from bwgeom import (
    DimMismatchError,
    KernelConditionError,
    LeavesConeError,
    OutOfRangeError,
    geodesic,
    lift,
    log_map,
    mean_fixed_point,
    optimal_map,
    principal_geodesic,
    procrustes_distance,
    reconstruct,
    reconstruction_errors,
    tangent_inner,
    tangent_norm,
    tangent_pca,
)
from bwgeom.geometry import _tangent_gram
from bwgeom.simulate import RngSpec, deformation_family
from bwgeom.spectral import EPS, cov_from_product, numerical_rank, rank_cutoff, validate_psd
from bwgeom.tpca import PcaResult
from conftest import make_spd


def total_centred_variance(base, lifted):
    dirs = list(lifted)
    abar = sum(dirs) / len(dirs)
    return sum(tangent_inner(base, a - abar, a - abar) for a in dirs) / len(dirs)


def test_lift_two_point_directions_are_opposite():
    fam = [np.diag([4.0, 1.0]), np.diag([1.0, 4.0])]
    mean = 2.25 * np.eye(2)
    lifted = lift(fam, mean)
    v0 = lifted[0]
    v1 = lifted[1]
    np.testing.assert_allclose(v0, np.diag([1.0 / 3.0, -1.0 / 3.0]), atol=1e-12)
    np.testing.assert_allclose(v0 + v1, 0.0, atol=1e-12)


def test_lift_reports_member_index_on_kernel_failure():
    fam = [np.diag([2.0, 0.0]), np.diag([0.0, 2.0])]
    with pytest.raises(KernelConditionError) as exc:
        lift(fam, np.diag([1.0, 0.0]))
    assert exc.value.index == 1


def test_lift_dimension_mismatch():
    with pytest.raises(DimMismatchError):
        lift([np.eye(3)], np.eye(2))


def test_two_point_family_single_exact_variance():
    fam = [np.diag([4.0, 1.0]), np.diag([1.0, 4.0])]
    mean = 2.25 * np.eye(2)
    res = tangent_pca(lift(fam, mean), mean, k=2)
    np.testing.assert_allclose(res.variances, [0.5, 0.0], atol=1e-12)
    assert len(res.components) == 1
    # scores are +-(distance / 2) and centred, sign set by the eigensolver
    assert res.scores.shape == (2, 1)
    np.testing.assert_allclose(np.abs(res.scores[:, 0]), math.sqrt(0.5), atol=1e-12)
    np.testing.assert_allclose(res.scores[:, 0].sum(), 0.0, atol=1e-12)
    assert res.lifted_mean_norm <= 1e-9


def test_one_member_family_has_no_components():
    s = np.diag([3.0, 1.0])
    res = tangent_pca(lift([s], s), s, k=1)
    assert len(res.components) == 0
    assert res.scores.shape == (1, 0)
    np.testing.assert_array_equal(res.variances, [0.0])
    assert reconstruct(s, res, 0, 1).mat == pytest.approx(s)


def test_identical_family_has_no_variance(rng):
    s = make_spd(4, rng)
    fam = [s, s, s]
    res = tangent_pca(lift(fam, s), s, k=3)
    assert np.all(res.variances <= 1e-10)


def test_geodesic_family_concentrates_on_one_component(rng):
    s0 = make_spd(3, rng)
    s1 = make_spd(3, rng)
    ts = np.linspace(0.0, 1.0, 6)
    fam = [geodesic(s0, s1, t) for t in ts]
    lifted = lift(fam, s0)
    res = tangent_pca(lifted, s0, k=5)
    v = log_map(s0, s1)
    var = float(ts.var()) * tangent_inner(s0, v, v)
    assert res.variances[0] == pytest.approx(var, rel=1e-8)
    assert np.all(res.variances[1:] <= 1e-9 * res.variances[0])
    # scores along the single component are affine in the grid parameter
    fit = np.polynomial.polynomial.polyfit(ts, res.scores[:, 0], 1)
    np.testing.assert_allclose(
        np.polynomial.polynomial.polyval(ts, fit), res.scores[:, 0], atol=1e-8
    )


def test_components_orthonormal_under_tangent_metric(rng):
    fam = [make_spd(4, rng) for _ in range(6)]
    res = mean_fixed_point(fam)
    pca = tangent_pca(lift(fam, res.mean), res.mean, k=5)
    for a, ca in enumerate(pca.components):
        for b, cb in enumerate(pca.components):
            want = 1.0 if a == b else 0.0
            assert tangent_inner(res.mean, ca, cb) == pytest.approx(want, abs=1e-9)


def test_variances_account_for_total_and_scores(rng):
    fam = [make_spd(3, rng) for _ in range(5)]
    res = mean_fixed_point(fam)
    lifted = lift(fam, res.mean)
    pca = tangent_pca(lifted, res.mean, k=5)
    total = total_centred_variance(res.mean, lifted)
    assert float(pca.variances.sum()) == pytest.approx(total, rel=1e-9)
    n = len(fam)
    for a in range(pca.scores.shape[1]):
        col = pca.scores[:, a]
        assert float(col @ col) / n == pytest.approx(float(pca.variances[a]), rel=1e-8, abs=1e-12)
        assert col.sum() == pytest.approx(0.0, abs=1e-8)


def test_stacked_inner_products_match_pairwise_trace_loop(rng):
    # Reference: the per-pair trace loops the stacked products replaced.  The
    # summation order differs, so entries agree to 1e-12 of the largest one
    # (d^2 n eps is about 1e-13 here), not bit for bit.
    for d, n in ((3, 4), (5, 12), (8, 6)):
        fam = [make_spd(d, rng) for _ in range(n)]
        res = mean_fixed_point(fam)
        s = res.mean.mat
        dirs = list(lift(fam, res.mean))
        pca = tangent_pca(dirs, res.mean, k=n)
        abar = sum(dirs) / n
        centred = [a - abar for a in dirs]
        gram = np.array([[np.trace(x @ s @ y) for y in centred] for x in centred])
        want = np.linalg.eigvalsh(gram)[::-1][: len(pca.components)] / n
        np.testing.assert_allclose(pca.variances[: len(want)], want, rtol=0.0, atol=1e-12 * want[0])
        comps = list(pca.components)
        scores = np.array([[np.trace(x @ s @ m) for m in comps] for x in centred])
        np.testing.assert_allclose(pca.scores, scores, rtol=0.0, atol=1e-12 * np.max(np.abs(scores)))


def _gram_schmidt_loop_components(base, dirs):
    """Reference: the pair-by-pair Gram-Schmidt loop the Cholesky step replaced,
    on the same raw components; also returns the smallest kept Gram eigenvalue
    over the rank cutoff (None when nothing is kept)."""
    stack = np.array(dirs)
    centred = stack - stack.mean(axis=0)
    gcov = cov_from_product(_tangent_gram(base, centred, centred))
    gvals, gvecs = gcov.spectrum.values, gcov.spectrum.vectors
    k = numerical_rank(gcov)
    raw = np.einsum("ia,ijk->ajk", gvecs[:, :k], centred) / np.sqrt(gvals[:k])[:, None, None]
    comps = []
    for m in raw:
        for prev in comps:
            m = m - tangent_inner(base, m, prev) * prev
        nrm = tangent_norm(base, m)
        if nrm <= 0.0:
            break
        comps.append(m / nrm)
    return comps, (gvals[k - 1] / rank_cutoff(gvals) if k else None)


def _near_cutoff_family(d, n, rng):
    """Base and n lifted directions whose centred Gram eigenvalues spread over
    eight decades below the largest, down to and past the rank cutoff."""
    base = make_spd(d, rng)
    m = min(n - 1, d * (d + 1) // 2)
    x = rng.standard_normal((m, d, d))
    x = x + x.transpose(0, 2, 1)
    # Orthonormal columns orthogonal to the ones vector: the weights are centred.
    u, _ = np.linalg.qr(np.concatenate([np.ones((n, 1)), rng.standard_normal((n, m))], axis=1))
    scales = 10.0 ** -rng.uniform(0.0, 8.5, size=m)
    return base, list(np.einsum("ia,a,ajk->ijk", u[:, 1:], scales, x) + x[0])


def test_cholesky_orthonormalisation_matches_the_gram_schmidt_loop(rng):
    ratios = []
    for _ in range(100):
        d, n = int(rng.integers(2, 6)), int(rng.integers(2, 16))
        base, dirs = _near_cutoff_family(d, n, rng)
        want, ratio = _gram_schmidt_loop_components(base, dirs)
        pca = tangent_pca(dirs, base, k=min(n, d * (d + 1) // 2))
        got = pca.components
        assert len(got) == len(want)
        if want:
            ratios.append(ratio)
            np.testing.assert_allclose(got, np.array(want), rtol=0.0, atol=1e-14)
            gram = _tangent_gram(validate_psd(base), got, got)
            np.testing.assert_allclose(gram, np.eye(len(got)), rtol=0.0, atol=1e-14)
    # The draw reaches kept Gram eigenvalues within a factor 10 of the cutoff.
    assert sum(r < 10.0 for r in ratios) >= 5
    # One member: nothing to orthonormalise, for the loop and the Cholesky step.
    s = make_spd(3, rng)
    assert _gram_schmidt_loop_components(s, [s.mat])[0] == []
    pca = tangent_pca([s.mat], s, k=1)
    assert len(pca.components) == 0 and pca.scores.shape == (1, 0)


def test_tangent_pca_makes_no_tangent_inner_call(rng, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return tangent_inner(*args)

    # Rebind the name in every module that holds it, so no call escapes the count.
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("bwgeom") and hasattr(module, "tangent_inner"):
            monkeypatch.setattr(module, "tangent_inner", counting)
    fam = [make_spd(4, rng) for _ in range(8)]
    mean = mean_fixed_point(fam).mean
    pca = tangent_pca(lift(fam, mean), mean, k=8)
    assert len(pca.components) == 7 and calls == []


def test_full_rank_reconstruction_recovers_members(rng):
    fam = [make_spd(4, rng) for _ in range(5)]
    res = mean_fixed_point(fam)
    pca = tangent_pca(lift(fam, res.mean), res.mean, k=5)
    for i, m in enumerate(fam):
        rec = reconstruct(res.mean, pca, i, k=len(pca.variances))
        err = procrustes_distance(rec, m)
        assert err <= 1e-7 * (1.0 + float(np.trace(m)))


def test_reconstruction_error_decreases_with_k(rng):
    fam = [make_spd(5, rng) for _ in range(7)]
    res = mean_fixed_point(fam)
    pca = tangent_pca(lift(fam, res.mean), res.mean, k=7)
    for i in range(len(fam)):
        errs = [
            procrustes_distance(reconstruct(res.mean, pca, i, k=k), fam[i])
            for k in range(len(pca.components) + 1)
        ]
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi + 1e-7


def test_reconstruct_with_no_components_returns_lift_mean_point(rng):
    fam = [np.diag([4.0, 1.0]), np.diag([1.0, 4.0])]
    mean = 2.25 * np.eye(2)
    pca = tangent_pca(lift(fam, mean), mean, k=2)
    rec = reconstruct(mean, pca, 0, k=0)
    np.testing.assert_allclose(np.asarray(rec), mean, atol=1e-9)


def test_principal_geodesic_matches_closed_form():
    base = np.eye(2)
    comp = np.diag([1.0, -1.0]) / math.sqrt(2.0)
    assert np.allclose(np.asarray(principal_geodesic(base, comp, 0.0)), base)
    got = principal_geodesic(base, comp, 0.5)
    a = (1.0 + 0.5 / math.sqrt(2.0)) ** 2
    b = (1.0 - 0.5 / math.sqrt(2.0)) ** 2
    np.testing.assert_allclose(np.asarray(got), np.diag([a, b]), atol=1e-12)


def test_principal_geodesic_reports_admissible_interval():
    base = np.eye(2)
    comp = np.diag([1.0, -1.0]) / math.sqrt(2.0)
    with pytest.raises(LeavesConeError) as exc:
        principal_geodesic(base, comp, 2.0)
    lo, hi = exc.value.interval
    assert lo == pytest.approx(-math.sqrt(2.0))
    assert hi == pytest.approx(math.sqrt(2.0))
    assert exc.value.lambda_min == pytest.approx(1.0 - math.sqrt(2.0))


def test_maps_and_lifts_are_plain_symmetric_matrices(rng):
    def check(a, shape):
        assert type(a) is np.ndarray and a.dtype == np.float64 and a.shape == shape
        assert np.array_equal(a, np.swapaxes(a, -1, -2))
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0

    fam = [make_spd(3, rng) for _ in range(4)]
    mean = mean_fixed_point(fam).mean
    check(optimal_map(mean, fam[0]), (3, 3))
    # A singular source: the map is extended as the identity on its kernel.
    check(optimal_map(np.diag([2.0, 1.0, 0.0]), np.diag([1.0, 3.0, 0.0])), (3, 3))
    check(log_map(mean, fam[0]), (3, 3))
    lifted = lift(fam, mean)
    check(lifted, (4, 3, 3))
    a = tangent_pca(lifted, mean, k=3)
    check(a.mean_direction, (3, 3))
    check(a.components, (3, 3, 3))
    check(deformation_family(mean, 5, 0.3, RngSpec(1)).maps, (5, 3, 3))
    check(deformation_family(mean, 2, 0.0, RngSpec(1)).maps, (2, 3, 3))
    b = tangent_pca([np.array(v) for v in lifted], mean, k=3)
    np.testing.assert_array_equal(a.mean_direction, b.mean_direction)
    np.testing.assert_array_equal(a.components, b.components)
    np.testing.assert_array_equal(a.variances, b.variances)
    np.testing.assert_array_equal(a.scores, b.scores)
    assert a.lifted_mean_norm == b.lifted_mean_norm


def test_tangent_pca_rejects_bad_k(rng):
    fam = [make_spd(3, rng) for _ in range(4)]
    mean = mean_fixed_point(fam).mean
    lifted = lift(fam, mean)
    with pytest.raises(OutOfRangeError):
        tangent_pca(lifted, mean, k=0)
    with pytest.raises(OutOfRangeError):
        tangent_pca(lifted, mean, k=5)


def test_reconstruct_rejects_bad_arguments(rng):
    fam = [make_spd(3, rng) for _ in range(4)]
    mean = mean_fixed_point(fam).mean
    pca = tangent_pca(lift(fam, mean), mean, k=3)
    with pytest.raises(OutOfRangeError):
        reconstruct(mean, pca, 4, k=1)
    with pytest.raises(OutOfRangeError):
        reconstruct(mean, pca, 0, k=7)


def _shared_kernel_family(rng):
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    return [(q[:, :3] * rng.uniform(0.2, 3.0, size=3)) @ q[:, :3].T for _ in range(6)]


FAMILIES = {
    "full_rank": lambda rng: [make_spd(4, rng) for _ in range(6)],
    "shared_kernel": _shared_kernel_family,
    # Member 6 rebuilt from 3 components leaves the cone, as in the CLI test.
    "leaves_cone": lambda rng: deformation_family(np.eye(3), 6, 0.99, RngSpec(1, "x")).deformed,
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_reconstruction_errors_match_entrywise_reconstruction(rng, name):
    fam = [validate_psd(m) for m in FAMILIES[name](rng)]
    mean = mean_fixed_point(fam).mean
    pca = tangent_pca(lift(fam, mean), mean, k=len(fam))
    table = reconstruction_errors(mean, pca, fam)
    assert table.shape == (len(fam), len(pca.components) + 1)
    for i, member in enumerate(fam):
        for k in range(table.shape[1]):
            try:
                rec = reconstruct(mean, pca, i, k)
            except LeavesConeError:
                assert math.isnan(table[i, k])
                continue
            # The trace form's floor: the smallest root of the cross trace
            # carries an error of about eps lambda_max kappa, kappa the member's
            # condition number (1e-4 is an eigenvalue of the last cone member).
            pos = member.spectrum.values[: numerical_rank(member)]
            floor = math.sqrt(EPS * (rec.trace + member.trace) * pos[0] / pos[-1])
            assert abs(table[i, k] - procrustes_distance(rec, member)) <= 2.0 * floor
    assert np.isnan(table).any() == (name == "leaves_cone")


def test_reconstruction_errors_cone_test_follows_the_callers_rank_tol():
    # As for exp_map: 1e-18 is kernel at the default rank_tol, so the fold of
    # I + v is rejected; at 1e-22 it is range, kappa = 1e18 and the tolerance
    # reaches its cap.
    mean, member = validate_psd(np.diag([1.0, 1e-18])), validate_psd(np.diag([1.0, 1e-30]))
    pca = PcaResult(np.diag([0.0, -1.0 - 1e-6]), np.empty((0, 2, 2)), np.zeros(1), np.empty((1, 0)), 0.0)
    assert np.isnan(reconstruction_errors(mean, pca, [member])).all()
    with pytest.raises(LeavesConeError):
        reconstruct(mean, pca, 0, 0)
    table = reconstruction_errors(mean, pca, [member], rank_tol=1e-22)
    assert table.shape == (1, 1) and 0.0 <= table[0, 0] <= 1e-12
    assert procrustes_distance(reconstruct(mean, pca, 0, 0, rank_tol=1e-22), member) <= 1e-12


def test_reconstruction_errors_rejects_a_family_of_another_size(rng):
    fam = [make_spd(3, rng) for _ in range(4)]
    mean = mean_fixed_point(fam).mean
    pca = tangent_pca(lift(fam, mean), mean, k=3)
    with pytest.raises(DimMismatchError):
        reconstruction_errors(mean, pca, fam[:3])
