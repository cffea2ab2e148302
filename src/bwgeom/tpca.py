"""Principal component analysis in the tangent space at a Frechet mean.

Family members are lifted through the logarithm map, centred, and
eigendecomposed through their N x N Gram matrix under the tangent metric.
Components are pushed back to matrix space, orthonormalized in that metric,
and can be retracted to covariances along principal geodesics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barycenter import coerce_point_and_family
from .errors import (
    DimMismatchError,
    EmptyFamilyError,
    KernelConditionError,
    LeavesConeError,
    OutOfRangeError,
)
from .geometry import TangentVector, exp_map, log_map, tangent_inner
from .spectral import Covariance, SymMatrix, cov_from_product, numerical_rank, validate_psd


@dataclass(frozen=True)
class PcaResult:
    """Tangent PCA of a covariance family.

    ``variances`` has the requested length with zeros past the Gram rank;
    ``components`` and the score columns stop at the effective rank.  Scores
    are inner products of the centred lifts with the components, so the
    variance of score column a equals ``variances[a]``.
    """

    base: Covariance
    mean_direction: SymMatrix
    components: list[SymMatrix]
    variances: np.ndarray
    scores: np.ndarray
    lifted_mean_norm: float


def lift(family, mean, rank_tol: float | None = None) -> list[TangentVector]:
    """Logarithms of all family members at the mean."""
    c, members = coerce_point_and_family(mean, family, "mean")
    out = []
    for i, m in enumerate(members):
        try:
            out.append(log_map(c, m, rank_tol))
        except KernelConditionError as e:
            raise KernelConditionError(
                "family member cannot be lifted at this mean", index=i
            ) from e
    return out


def tangent_pca(lifted, mean, k: int) -> PcaResult:
    """PCA of lifted directions under the tangent metric at the mean.

    Eigenvalues of the centred Gram matrix divided by N give the component
    variances, so their sum equals the total tangent variance of the centred
    lifts.  Duplicate or geodesic families simply produce fewer positive
    variances; rank deficiency is not an error.
    """
    c = validate_psd(mean)
    dirs = [tv.direction.mat if isinstance(tv, TangentVector) else SymMatrix(tv).mat for tv in lifted]
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

    abar = sum(dirs) / n
    centred = [a - abar for a in dirs]
    weighted = [c.mat @ ci for ci in centred]
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            g = float(np.trace(centred[i] @ weighted[j]))
            gram[i, j] = g
            gram[j, i] = g
    gcov = cov_from_product(gram)
    gvals, gvecs = gcov.spectrum.values, gcov.spectrum.vectors

    variances = gvals[:k] / n
    rank = numerical_rank(gcov)
    variances[min(k, rank):] = 0.0
    k_eff = min(k, rank)

    components: list[SymMatrix] = []
    comp_mats: list[np.ndarray] = []
    for a in range(k_eff):
        m = sum(gvecs[i, a] * centred[i] for i in range(n)) / math.sqrt(gvals[a])
        # Gram-Schmidt under the tangent metric absorbs rounding in the weights.
        for prev in comp_mats:
            m = m - tangent_inner(c, m, prev) * prev
        nrm = math.sqrt(max(0.0, tangent_inner(c, m, m)))
        if nrm <= 0.0:
            break
        m = m / nrm
        comp_mats.append(m)
        components.append(SymMatrix(m))
    k_eff = len(comp_mats)

    scores = np.empty((n, k_eff))
    for i in range(n):
        for a in range(k_eff):
            scores[i, a] = float(np.trace(centred[i] @ c.mat @ comp_mats[a]))
    lifted_mean_norm = math.sqrt(max(0.0, tangent_inner(c, abar, abar)))
    variances.flags.writeable = False
    scores.flags.writeable = False
    return PcaResult(
        base=c,
        mean_direction=SymMatrix(abar),
        components=components,
        variances=variances,
        scores=scores,
        lifted_mean_norm=float(lifted_mean_norm),
    )


def principal_geodesic(base, component, s: float) -> Covariance:
    """Point at parameter ``s`` along a principal component direction.

    The admissible range of ``s`` keeps I + s * component PSD; outside it the
    retraction leaves the cone and ``LeavesConeError`` reports the interval.
    """
    c = validate_psd(base)
    comp = SymMatrix(component)
    if comp.dim != c.dim:
        raise DimMismatchError(f"component dimension {comp.dim} does not match base {c.dim}")
    w = np.linalg.eigvalsh(comp.mat)
    lo = -math.inf if w[-1] <= 0.0 else -1.0 / w[-1]
    hi = math.inf if w[0] >= 0.0 else -1.0 / w[0]
    try:
        return exp_map(c, float(s) * comp.mat)
    except LeavesConeError as e:
        raise LeavesConeError(lambda_min=e.lambda_min, interval=(lo, hi)) from e


def reconstruct(mean, pca: PcaResult, index: int, k: int) -> Covariance:
    """Retraction of member ``index`` from its first ``k`` component scores."""
    c = validate_psd(mean)
    n = pca.scores.shape[0]
    if not 0 <= index < n:
        raise OutOfRangeError(f"member index {index} outside 0..{n - 1}")
    if not 0 <= k <= len(pca.variances):
        raise OutOfRangeError(f"component count k={k} outside 0..{len(pca.variances)}")
    v = pca.mean_direction.mat.copy()
    for a in range(min(k, len(pca.components))):
        v += pca.scores[index, a] * pca.components[a].mat
    return exp_map(c, v)
