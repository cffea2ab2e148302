"""Principal component analysis in the tangent space at a Frechet mean.

Family members are lifted through the logarithm map to the symmetric matrices
``T_i - I``, centred, and eigendecomposed through their N x N Gram matrix
under the tangent metric.  Components are pushed back to matrix space,
orthonormalized in that metric, and can be retracted to covariances along
principal geodesics.  The Gram matrix, the orthonormalization, the scores and
each block of members' rows of reconstruction errors are one stacked
evaluation each; the rows apply ``exp_map``'s cone test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barycenter import coerce_point_and_family, multicoupling
from .bures import _BLOCK_ENTRIES, _range_factor, _trace_form, rank_positions
from .errors import DimMismatchError, EmptyFamilyError, LeavesConeError, OutOfRangeError
from .geometry import _cone_test, _tangent_gram, exp_map
from .spectral import (
    Covariance,
    Spectrum,
    as_matrix,
    as_symmetric,
    cov_from_product,
    member_sum,
    numerical_rank,
    readonly,
    symmetrize,
    validate_psd,
)


@dataclass(frozen=True)
class PcaResult:
    """Tangent PCA of a covariance family.

    ``variances`` has the requested length with zeros past the Gram rank;
    ``components``, a read-only (K, d, d) stack, and the score columns stop
    at the effective rank K.  Scores are inner products of the centred lifts
    with the components, so the variance of score column a equals
    ``variances[a]``.
    """

    mean_direction: np.ndarray
    components: np.ndarray
    variances: np.ndarray
    scores: np.ndarray
    lifted_mean_norm: float


def lift(family, mean, rank_tol: float | None = None) -> np.ndarray:
    """Logarithms ``T_i - I`` of all family members at the mean: the maps of
    their ``multicoupling`` minus the identity, as a read-only (n, d, d) stack."""
    joint = multicoupling(mean, family, rank_tol)
    return readonly(joint.maps - np.eye(joint.dim))


def tangent_pca(lifted, mean, k: int) -> PcaResult:
    """PCA of lifted directions under the tangent metric at the mean.

    Eigenvalues of the centred Gram matrix divided by N give the component
    variances, so their sum equals the total tangent variance of the centred
    lifts.  Duplicate or geodesic families simply produce fewer positive
    variances; rank deficiency is not an error.  ``lifted`` is any sequence
    of symmetric matrices, such as the stack ``lift`` returns.
    """
    c, n = validate_psd(mean), len(lifted)
    if n == 0:
        raise EmptyFamilyError("no lifted directions")
    d = c.dim
    for i, a in enumerate(lifted):
        if np.shape(a) != (d, d):
            raise DimMismatchError(f"lifted direction {i} has shape {np.shape(a)}, expected {(d, d)}")
    stack = as_symmetric(lifted)
    k_cap = min(n, d * (d + 1) // 2)
    if not 1 <= k <= k_cap:
        raise OutOfRangeError(f"component count k={k} outside 1..{k_cap}")

    abar = member_sum(stack) / n
    centred = stack - abar
    gcov = cov_from_product(_tangent_gram(c, centred, centred))
    gvals, gvecs = gcov.spectrum.values, gcov.spectrum.vectors

    k_eff = min(k, numerical_rank(gcov))
    variances = gvals[:k] / n
    variances[k_eff:] = 0.0

    raw = np.einsum("ia,ijk->ajk", gvecs[:, :k_eff], centred) / np.sqrt(gvals[:k_eff])[:, None, None]
    # Gram-Schmidt under the tangent metric absorbs rounding in the weights:
    # with L L^T the Cholesky factorization of the raw Gram matrix, the rows
    # of L^{-1} raw are its orthonormal result.
    chol = np.linalg.cholesky(_tangent_gram(c, raw, raw))
    comps = np.linalg.solve(chol, raw.reshape(k_eff, d * d)).reshape(k_eff, d, d)

    return PcaResult(
        mean_direction=readonly(abar),
        # The solve leaves the components symmetric only to rounding.
        components=readonly(symmetrize(comps)),
        variances=readonly(variances),
        scores=readonly(_tangent_gram(c, centred, comps)),
        lifted_mean_norm=math.sqrt(max(0.0, float(_tangent_gram(c, abar[None], abar[None])[0, 0]))),
    )


def principal_geodesic(base, component, s: float) -> Covariance:
    """Point at parameter ``s`` along a principal component direction.

    The admissible range of ``s`` keeps I + s * component PSD.  When
    ``exp_map``'s cone test rejects the step, ``LeavesConeError`` reports
    that interval.
    """
    comp = as_symmetric(as_matrix(component))
    try:
        return exp_map(base, float(s) * comp)
    except LeavesConeError as e:
        w = np.linalg.eigvalsh(comp)
        lo = -math.inf if w[-1] <= 0.0 else -1.0 / w[-1]
        hi = math.inf if w[0] >= 0.0 else -1.0 / w[0]
        raise LeavesConeError(lambda_min=e.lambda_min, interval=(lo, hi)) from e


def reconstruct(mean, pca: PcaResult, index: int, k: int, rank_tol: float | None = None) -> Covariance:
    """Retraction of member ``index`` from its first ``k`` component scores."""
    c = validate_psd(mean)
    n = pca.scores.shape[0]
    if not 0 <= index < n:
        raise OutOfRangeError(f"member index {index} outside 0..{n - 1}")
    if not 0 <= k <= len(pca.variances):
        raise OutOfRangeError(f"component count k={k} outside 0..{len(pca.variances)}")
    v = pca.mean_direction.copy()
    for a in range(min(k, len(pca.components))):
        v += pca.scores[index, a] * pca.components[a]
    return exp_map(c, v, rank_tol)


def reconstruction_errors(mean, pca: PcaResult, family, rank_tol: float | None = None) -> np.ndarray:
    """Distances of member i from ``reconstruct(mean, pca, i, k, rank_tol)``,
    k = 0..K with K the effective component count; NaN where that leaves the
    cone.  Members of equal numerical rank go in blocks that keep B within ``_BLOCK_ENTRIES``
    entries (at least one member); the K + 1 retractions ``B M B`` of each member of a block
    are one stack ``B = I + v``: one cone test (Cholesky, the eigenvalue test only where that
    fails) and one ``_trace_form`` of their squared distances.
    """
    c, members = coerce_point_and_family(mean, family, "mean")
    n, k, d = len(members), len(pca.components), c.dim
    if n != len(pca.scores):
        raise DimMismatchError(f"family of {n} members for a PCA of {len(pca.scores)}")
    step, traces = max(1, _BLOCK_ENTRIES // ((k + 1) * d * d)), members.mats.trace(axis1=1, axis2=2)
    out, buf = np.empty((n, k + 1)), np.empty((min(step, n), k + 1, d, d))
    for r, idx in rank_positions(members):
        for rows in np.split(idx, range(step, len(idx), step)):
            b = buf[: len(rows)]
            b[:, 0] = pca.mean_direction
            np.multiply(pca.scores[rows, :, None, None], pca.components, out=b[:, 1:])
            for j in range(1, k + 1):  # cumulative sums, faster than the strided cumsum
                np.add(b[:, j], b[:, j - 1], out=b[:, j])
            np.add(b, np.eye(d), out=b)
            bm = b @ c.mat
            l = _range_factor(Spectrum(members.values[rows], members.vectors[rows]), r)[:, None]
            d2 = _trace_form(l, traces[rows, None], bm @ b, np.sum(bm * b, axis=(2, 3)))
            out[rows] = np.where(_cone_test(c, b, rank_tol)[0], np.nan, np.sqrt(d2))
    return out
