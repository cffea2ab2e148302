"""Procrustes (Bures-Wasserstein) distance and optimal transport between covariances.

The squared distance between PSD matrices S1, S2 is

    tr S1 + tr S2 - 2 tr (S2^{1/2} S1 S2^{1/2})^{1/2},

which equals the squared 2-Wasserstein distance between the centred Gaussians
with these covariances, and also the minimum of ||S1^{1/2} - U S2^{1/2}||_HS
over orthogonal U.  The optimal transport map from S1 to S2 is itself a PSD
operator, and ``optimal_map`` returns it as a read-only symmetric array.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimMismatchError, KernelConditionError, NonFiniteError
from .spectral import (
    Covariance,
    Family,
    Spectrum,
    as_family,
    from_spectrum,
    numerical_rank,
    pinv_sqrt,
    rank_rel,
    readonly,
    sqrt_psd,
    sym_eigen,
    symmetrize,
    validate_psd,
)


def _check_pair(s1, s2) -> tuple[Covariance, Covariance]:
    a = validate_psd(s1)
    b = validate_psd(s2)
    if a.dim != b.dim:
        raise DimMismatchError(f"covariance dimensions differ: {a.dim} vs {b.dim}")
    return a, b


def _range_factor(spec, r: int) -> np.ndarray:
    """Exact-rank factor L of ``S = L L^T``, r its numerical rank, from its spectrum, or the stack
    (k, d, r) of a ``Family`` or stack of spectra: the leading r eigenvectors times the roots of their values."""
    return spec.vectors[..., :r] * np.sqrt(spec.values[..., None, :r])


def _trace_form(l: np.ndarray, ta, hs: np.ndarray, ths) -> np.ndarray:
    """Squared distances ``tr A + tr H - 2 tr (L^T H L)^{1/2}``, clamped at zero, from
    ``A = L L^T`` of trace ``ta`` to one H or each of a stack (..., d, d) of traces ``ths``,
    or L a stack; the cross traces are the roots of the spectra of ``L^T H L``."""
    w = np.linalg.eigvalsh(symmetrize(l.swapaxes(-1, -2) @ hs @ l))
    return np.maximum(0.0, ta + ths - 2.0 * np.sum(np.sqrt(np.maximum(w, 0.0)), axis=-1))


def _squared_distances(a: Covariance, bs: Family) -> np.ndarray:
    """Squared Procrustes distances from ``a`` to each member of ``bs``, of its
    dimension, as one array from ``_trace_form``.  Each goes through the factor of
    the lower-rank side, which avoids square roots of spurious near-zero
    eigenvalues: every member through the factor of ``a`` in one stacked
    evaluation, each bit for bit as alone, then those of lower rank than ``a``
    again through their own."""
    ra, rbs, tbs = numerical_rank(a), numerical_rank(bs), bs.mats.trace(axis1=1, axis2=2)
    d2 = _trace_form(_range_factor(a.spectrum, ra), a.trace, bs.mats, tbs)
    for k in np.flatnonzero(rbs < ra):
        d2[k] = _trace_form(_range_factor(bs[k].spectrum, rbs[k]), tbs[k], a.mat, a.trace)
    return d2


def procrustes_distance_squared(s1, s2) -> float:
    """Squared Procrustes distance: ``_squared_distances`` from S1 to the one-member family of S2."""
    a, b = _check_pair(s1, s2)
    return float(_squared_distances(a, Family(b.mat[None], b.spectrum.values[None], b.spectrum.vectors[None]))[0])


def procrustes_distance(s1, s2) -> float:
    """Procrustes (Bures-Wasserstein) distance between two PSD matrices."""
    return math.sqrt(procrustes_distance_squared(s1, s2))


def pairwise_distances(family) -> dict[tuple[int, int], float]:
    """``procrustes_distance`` of each pair i < j of a family, keyed ``(i, j)``
    in row order, bit for bit; member i's distances to the later members are
    one ``_squared_distances`` evaluation."""
    members = as_family(family) if len(family) else ()
    return {
        (i, j): math.sqrt(d2)
        for i in range(len(members) - 1)
        for j, d2 in enumerate(_squared_distances(members[i], members[i + 1 :]), i + 1)
    }


def procrustes_distance_via_alignment(s1, s2) -> tuple[float, np.ndarray]:
    """``(distance, rotation)`` through the explicit orthogonal alignment of
    matrix roots.

    The optimal rotation U is the transpose of ``pairwise_alignment(sqrt(S1),
    sqrt(S2))``; the distance is ``||sqrt(S1) - U sqrt(S2)||_HS`` evaluated
    literally at that rotation.
    """
    a, b = _check_pair(s1, s2)
    r1, r2 = sqrt_psd(a), sqrt_psd(b)
    u = pairwise_alignment(r1, r2).T
    return float(np.linalg.norm(r1 - u @ r2)), u


def pairwise_alignment(l1, l2) -> np.ndarray:
    """Orthogonal R maximizing tr(R.T @ L2.T @ L1), aligning L2 toward L1.

    R is the orthogonal polar factor of ``L2.T @ L1`` (via SVD); the achieved
    value of the trace is the trace norm of ``L2.T @ L1``.
    """
    a1 = np.asarray(l1, dtype=np.float64)
    a2 = np.asarray(l2, dtype=np.float64)
    if a1.shape != a2.shape or a1.ndim != 2 or a1.shape[0] != a1.shape[1]:
        raise DimMismatchError(f"expected square factors of equal shape, got {a1.shape} and {a2.shape}")
    w, _, vt = np.linalg.svd(a2.T @ a1)
    return w @ vt


def gaussian_w2(m1, s1, m2, s2) -> float:
    """2-Wasserstein distance between Gaussians (m1, S1) and (m2, S2)."""
    v1 = np.asarray(m1, dtype=np.float64).reshape(-1)
    v2 = np.asarray(m2, dtype=np.float64).reshape(-1)
    if not (np.all(np.isfinite(v1)) and np.all(np.isfinite(v2))):
        raise NonFiniteError("mean vectors must be finite")
    a, b = _check_pair(s1, s2)
    if v1.size != a.dim or v2.size != a.dim:
        raise DimMismatchError(
            f"mean lengths {v1.size}, {v2.size} do not match covariance dimension {a.dim}"
        )
    delta = v1 - v2
    return math.sqrt(float(delta @ delta) + procrustes_distance_squared(a, b))


def kernel_leaks(source: Covariance, mats: np.ndarray, rank_tol: float | None = None):
    """Whether a target, or each of a stack of them, has mass on the numerical kernel of ``source``.

    The compression of a target onto that kernel, the span of ``spectrum.vectors[:, r:]``, leaks
    when its operator norm exceeds ``rank_rel * tr target``; an empty kernel never leaks.
    """
    kernel = source.spectrum.vectors[:, numerical_rank(source, rank_tol):]
    if not kernel.size:
        return np.zeros(mats.shape[:-2], dtype=bool)
    w = np.linalg.eigvalsh(symmetrize(kernel.T @ mats @ kernel))
    return np.max(np.abs(w), axis=-1) > rank_rel(mats.shape[-1], rank_tol) * mats.trace(axis1=-2, axis2=-1)


def kernel_condition(s1, s2, rank_tol: float | None = None) -> bool:
    """Whether ker(S1) is contained in ker(S2) numerically.

    This is exactly the condition for an optimal transport map from S1 to S2
    to exist.  The numerical kernel of S1 collects eigenvalues at or below
    ``rank_tol * lambda_max(S1)``; the condition holds when the compression of
    S2 onto that kernel has operator norm at most ``rank_tol * tr S2``.
    """
    a, b = _check_pair(s1, s2)
    return not kernel_leaks(a, b.mat, rank_tol)


def rank_positions(members: Family, rank_tol: float | None = None) -> list[tuple[int, np.ndarray]]:
    """Members of a family by numerical rank r, highest first, as ``(r, positions)``."""
    ranks = numerical_rank(members, rank_tol)
    return [(r, np.flatnonzero(ranks == r)) for r in sorted(set(ranks.tolist()), reverse=True)]


def rank_groups(members: Family, rank_tol: float | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Members of equal numerical rank r, highest r first (``rank_positions``), as ``(positions,
    stack)`` pairs; the stack (k, d, r) holds ``product_root``'s operands: their matrices at full
    rank (the family's own stack, uncopied, when one group holds every member), else their exact-rank factors."""
    d, groups = members.mats.shape[-1], rank_positions(members, rank_tol)
    mats = lambda idx: members.mats if len(idx) == len(members) else members.mats[idx]
    return [(idx, mats(idx) if r == d else _range_factor(members[idx], r)) for r, idx in groups]


def product_root(root: np.ndarray, stack: np.ndarray, rank_tol: float | None = None) -> np.ndarray:
    """``(R S R)^{1/2}`` for symmetric ``R = root`` and the PSD S of one operand (S itself, or
    its exact-rank factor below full rank), or of each of a ``rank_groups`` stack with one
    ``sym_eigen``.  Rounding negatives are clamped.  Below full rank, with B = R L for the factor L of
    S = L L^T, ``B (B^T B)^{-1/2} B^T`` avoids roots of the spurious near-zero
    eigenvalues of R S R, with one stacked ``pinv_sqrt``; rank 0 gives 0."""
    d, r = stack.shape[-2:]
    if r == d:
        spec = sym_eigen(root @ stack @ root)
        return from_spectrum(spec.vectors, np.sqrt(np.maximum(spec.values, 0.0)))
    if r == 0:
        return np.zeros(stack.shape[:-1] + (d,))
    b = root @ stack
    spec = sym_eigen(b.swapaxes(-1, -2) @ b)
    inv = pinv_sqrt(Spectrum(np.maximum(spec.values, 0.0), spec.vectors), rank_tol)
    return symmetrize(b @ inv @ b.swapaxes(-1, -2))


def transport_matrix(source: Covariance, mid: np.ndarray, rank_tol: float | None = None) -> np.ndarray:
    """``S^{-1/2} mid S^{-1/2}`` on the numerical range of ``S = source``,
    extended as the identity on its numerical kernel."""
    rinv = pinv_sqrt(source, rank_tol)
    t = symmetrize(rinv @ mid @ rinv)
    kernel = source.spectrum.vectors[:, numerical_rank(source, rank_tol):]
    return t + kernel @ kernel.T if kernel.size else t


def optimal_map(s1, s2, rank_tol: float | None = None) -> np.ndarray:
    """Optimal transport map from S1 to S2: the symmetric PSD t with
    ``t S1 t = S2``, as a read-only array.

    Computes ``S1^{-1/2} (S1^{1/2} S2 S1^{1/2})^{1/2} S1^{-1/2}`` with
    pseudo-inverse roots, extended as the identity on the numerical kernel of
    S1.  Raises ``KernelConditionError`` when ker(S1) is not contained in
    ker(S2), in which case no map exists.
    """
    a, b = _check_pair(s1, s2)
    if kernel_leaks(a, b.mat, rank_tol):
        raise KernelConditionError(
            "kernel of the source covariance is not contained in the kernel of the target"
        )
    r = numerical_rank(b, rank_tol)
    mid = product_root(sqrt_psd(a), b.mat if r == b.dim else _range_factor(b.spectrum, r), rank_tol)
    return readonly(transport_matrix(a, mid, rank_tol))
