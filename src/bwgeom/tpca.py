"""Principal component analysis in the tangent space at a Frechet mean.

Family members are lifted through the logarithm map to the symmetric matrices
``T_i - I``, centred, and eigendecomposed through their N x N Gram matrix
under the tangent metric.  Components are pushed back to matrix space,
orthonormalized in that metric, and can be retracted to covariances along
principal geodesics.  The Gram matrix, the orthonormalization, the scores and
each member's row of reconstruction errors are one stacked evaluation each;
the rows apply ``exp_map``'s cone test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barycenter import coerce_point_and_family
from .bures import _cross_trace, _range_factor
from .errors import (
    DimMismatchError,
    EmptyFamilyError,
    KernelConditionError,
    LeavesConeError,
    OutOfRangeError,
)
from .geometry import _cone_test, _tangent_gram, exp_map, log_map
from .spectral import (
    Covariance,
    as_symmetric,
    cov_from_product,
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
    """Logarithms ``T_i - I`` of all family members at the mean, as a
    read-only (n, d, d) stack."""
    c, members = coerce_point_and_family(mean, family, "mean")
    out = np.empty((len(members), c.dim, c.dim))
    for i, m in enumerate(members):
        try:
            out[i] = log_map(c, m, rank_tol)
        except KernelConditionError as e:
            raise KernelConditionError(
                "family member cannot be lifted at this mean", index=i
            ) from e
    return readonly(out)


def tangent_pca(lifted, mean, k: int) -> PcaResult:
    """PCA of lifted directions under the tangent metric at the mean.

    Eigenvalues of the centred Gram matrix divided by N give the component
    variances, so their sum equals the total tangent variance of the centred
    lifts.  Duplicate or geodesic families simply produce fewer positive
    variances; rank deficiency is not an error.  ``lifted`` is any sequence
    of symmetric matrices, such as the stack ``lift`` returns.
    """
    c = validate_psd(mean)
    dirs = [as_symmetric(a) for a in lifted]
    n = len(dirs)
    if n == 0:
        raise EmptyFamilyError("no lifted directions")
    d = c.dim
    for i, a in enumerate(dirs):
        if a.shape != (d, d):
            raise DimMismatchError(f"lifted direction {i} has shape {a.shape}, expected {(d, d)}")
    k_cap = min(n, d * (d + 1) // 2)
    if not 1 <= k <= k_cap:
        raise OutOfRangeError(f"component count k={k} outside 1..{k_cap}")

    stack = np.array(dirs)
    abar = stack.mean(axis=0)
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
    comp = as_symmetric(component)
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
    cone.  A member's K + 1 retractions ``B M B`` are one stack ``B = I + v``:
    one ``eigvalsh`` for the cone test, one for the cross traces.
    """
    c, members = coerce_point_and_family(mean, family, "mean")
    if len(members) != len(pca.scores):
        raise DimMismatchError(f"family of {len(members)} members for a PCA of {len(pca.scores)}")
    out = np.empty((len(members), len(pca.components) + 1))
    for i, member in enumerate(members):
        steps = np.concatenate([pca.mean_direction[None], pca.scores[i, :, None, None] * pca.components])
        b = np.cumsum(steps, axis=0) + np.eye(c.dim)
        bm = b @ c.mat
        cross = _cross_trace(_range_factor(member, numerical_rank(member)), bm @ b)
        d2 = np.sum(bm * b, axis=(1, 2)) + member.trace - 2.0 * cross
        out[i] = np.where(_cone_test(c, b, rank_tol), np.nan, np.sqrt(np.maximum(d2, 0.0)))
    return out
