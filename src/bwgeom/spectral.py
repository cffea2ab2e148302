"""Deterministic symmetric eigendecomposition and PSD matrix calculus.

Public functions accept plain arrays or ``Covariance`` instances; input is
coerced to float64 and symmetrized on entry.  Only a covariance carries more
than its entries (its cached spectrum): roots, transport maps and tangent
directions are read-only, exactly symmetric float64 arrays, and a family of
them is one read-only (n, d, d) stack.

One rank rule serves the whole package: the numerical kernel of a covariance
is spanned by the eigenvectors whose eigenvalues are at or below
``rank_tol * lambda_max``, with ``rank_tol`` defaulting to ``dim * eps``
(``rank_rel``, ``rank_cutoff``).  ``numerical_rank`` applies it to the
spectrum a ``Covariance`` caches: the leading columns of
``spectrum.vectors`` span the numerical range and the rest the kernel.  The
kernel condition (``bures.kernel_leaks``) holds when a target's compression
onto that kernel has operator norm at most ``rank_tol * tr target``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, NonFiniteError, NotPSDError

EPS = float(np.finfo(np.float64).eps)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """``(a + a^T) / 2`` of a matrix, or of each of a stack (..., d, d), as a
    new float64 array with one temporary."""
    s = np.add(a, np.swapaxes(a, -1, -2), dtype=np.float64)
    s *= 0.5
    return s


def readonly(a: np.ndarray) -> np.ndarray:
    """``a`` itself, with writing through it switched off."""
    a.flags.writeable = False
    return a


def as_matrix(m) -> np.ndarray:
    """Underlying square float64 array of a matrix-like object."""
    if isinstance(m, Covariance):
        return m.mat
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a symmetric matrix.

    ``values`` are in descending order and ``vectors[:, k]`` is the unit
    eigenvector paired with ``values[k]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def as_symmetric(a) -> np.ndarray:
    """Read-only ``(a + a^T) / 2`` of a square matrix with finite entries, so
    that ``m[i, j] == m[j, i]`` holds exactly."""
    m = as_matrix(a)
    if not np.all(np.isfinite(m)):
        raise NonFiniteError("matrix entries must be finite")
    return readonly(symmetrize(m))


class Covariance:
    """Symmetric PSD matrix carrying its eigendecomposition.

    Instances come from ``validate_psd``; ``spectrum.values`` is descending and
    nonnegative (tolerated negative noise is clamped at validation).  The
    square root is built from the spectrum on the first ``sqrt_psd`` call and
    kept.
    """

    __slots__ = ("mat", "spectrum", "_root")

    def __init__(self, mat: np.ndarray, spectrum: Spectrum):
        self.mat = mat
        self.spectrum = spectrum
        self._root = None

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.mat, dtype=dtype) if copy else np.asarray(self.mat, dtype=dtype)

    def __repr__(self):
        return f"Covariance(dim={self.dim}, trace={self.trace:.6g})"


def sym_eigen(m) -> Spectrum:
    """Eigendecomposition of a symmetric matrix with a deterministic convention.

    Eigenvalues are sorted in descending order; exact ties are broken by the
    row index of each eigenvector's largest-magnitude component (first index on
    further ties).  Signs are fixed so that component is positive.
    """
    a = as_matrix(m)
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix entries must be finite")
    w, v = np.linalg.eigh(symmetrize(a))
    dom = np.argmax(np.abs(v), axis=0)
    order = np.lexsort((dom, -w))
    values = w[order]
    vectors = v[:, order].copy()
    vectors[:, vectors[dom[order], np.arange(w.size)] < 0.0] *= -1.0
    return Spectrum(readonly(values), readonly(vectors))


def default_psd_tol(values: np.ndarray) -> float:
    """PSD tolerance dim * eps * max|eigenvalue| for a given spectrum."""
    if values.size == 0:
        return 0.0
    return values.size * EPS * float(np.max(np.abs(values)))


def validate_psd(m) -> Covariance:
    """Check positive semidefiniteness within ``default_psd_tol`` and clamp noise.

    Eigenvalues in ``[-tol, 0)`` are set to zero and the matrix is rebuilt from
    the clamped spectrum; an eigenvalue below ``-tol`` raises ``NotPSDError``.
    A matrix with no negative eigenvalues is passed through unchanged.
    """
    if isinstance(m, Covariance):
        return m
    spec = sym_eigen(m)
    lam_min = float(spec.values[-1]) if spec.values.size else 0.0
    if lam_min < -default_psd_tol(spec.values):
        raise NotPSDError(lam_min)
    if lam_min < 0.0:
        clamped = readonly(np.maximum(spec.values, 0.0))
        mat = from_spectrum(spec.vectors, clamped)
        spec = Spectrum(clamped, spec.vectors)
    else:
        mat = symmetrize(as_matrix(m))
    return Covariance(readonly(mat), spec)


def rank_rel(dim: int, rank_tol: float | None = None) -> float:
    """Relative rank tolerance: ``rank_tol``, or dim * machine_eps by default."""
    return dim * EPS if rank_tol is None else float(rank_tol)


def rank_cutoff(values: np.ndarray, rank_tol: float | None = None) -> float:
    """Absolute eigenvalue cutoff ``rank_rel * lambda_max`` of a descending spectrum."""
    if values.size == 0:
        return 0.0
    return rank_rel(values.size, rank_tol) * float(values[0])


def numerical_rank(c: Covariance, rank_tol: float | None = None) -> int:
    """Count of eigenvalues above ``rank_cutoff``.

    This is the range/kernel split: ``spectrum.vectors[:, :r]`` spans the
    numerical range and ``spectrum.vectors[:, r:]`` the numerical kernel.
    """
    values = c.spectrum.values
    return int(np.count_nonzero(values > rank_cutoff(values, rank_tol)))


def _condition(values: np.ndarray, rank_tol: float | None = None) -> float:
    """Largest over smallest eigenvalue above ``rank_cutoff`` of a descending
    spectrum; ``inf`` when none is above it."""
    pos = values[values > rank_cutoff(values, rank_tol)]
    return float(pos[0] / pos[-1]) if pos.size else math.inf


def from_spectrum(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Symmetric matrix ``V diag(values) V^T`` rebuilt from (part of) a spectrum."""
    return symmetrize((vectors * values) @ vectors.T)


def sqrt_psd(s) -> np.ndarray:
    """Unique PSD square root, by mapping eigenvalues to their roots, as a
    read-only array; a ``Covariance`` builds it once and returns the same root
    afterwards."""
    c = validate_psd(s)
    if c._root is None:
        c._root = readonly(from_spectrum(c.spectrum.vectors, np.sqrt(c.spectrum.values)))
    return c._root


def pinv_sqrt(s, rank_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse square root.

    Eigenvalues above the rank cutoff map to ``1 / sqrt(lambda)``, the rest to
    zero, so the read-only result inverts the root of ``s`` on its numerical
    range and vanishes on the numerical kernel.
    """
    c = validate_psd(s)
    values, vectors = c.spectrum.values, c.spectrum.vectors
    inv = np.zeros_like(values)
    r = numerical_rank(c, rank_tol)
    inv[:r] = 1.0 / np.sqrt(values[:r])
    return readonly(from_spectrum(vectors, inv))


def cov_from_product(a) -> Covariance:
    """Covariance built from a symmetric product that is PSD in exact arithmetic.

    Products such as ``R @ S @ R`` (R symmetric, S PSD) can have negative
    eigenvalues only through rounding, so they are clamped without a
    tolerance gate and the matrix is rebuilt from the clamped spectrum; the
    result is PSD by construction.
    """
    spec = sym_eigen(a)
    w = readonly(np.maximum(spec.values, 0.0))
    return Covariance(readonly(from_spectrum(spec.vectors, w)), Spectrum(w, spec.vectors))


def trace_norm(a) -> float:
    w = np.linalg.eigvalsh(symmetrize(a))
    return float(np.sum(np.abs(w)))


def operator_norm(a) -> float:
    w = np.linalg.eigvalsh(symmetrize(a))
    return float(np.max(np.abs(w))) if w.size else 0.0
