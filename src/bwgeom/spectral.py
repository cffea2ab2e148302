"""Deterministic symmetric eigendecomposition and PSD matrix calculus.

Public functions accept plain arrays or ``Covariance`` instances; input is
coerced to float64 and symmetrized on entry.  Only a covariance carries more
than its entries: its spectrum, and what it derives from it on first use, its
root and, per relative rank tolerance, its numerical rank and inverse root.
Roots, transport maps and tangent directions are read-only, exactly symmetric
float64 arrays, and a family of them is one read-only (n, d, d) stack.
``sym_eigen``, ``from_spectrum``, ``validate_psd``, ``cov_from_product``,
``as_symmetric``, ``sqrt_psd``, ``pinv_sqrt`` and ``rank_cutoff`` take such a
stack (of spectra, for the last two), each matrix bit for bit as alone: one
LAPACK call per rank group in a mean's evaluation, one for a whole geodesic
grid, one PSD test for a family.
``validate_psd`` and ``cov_from_product`` of a stack return a ``Family``:
read-only stacks of matrices and spectra, whose ``family[i]`` is a
``Covariance`` of views.  Only ``as_family`` stacks members.

One rank rule serves the whole package: the numerical kernel of a covariance
is spanned by the eigenvectors whose eigenvalues are at or below
``rank_tol * lambda_max``, with ``rank_tol`` defaulting to ``dim * eps``
(``rank_rel``, ``rank_cutoff``).  ``numerical_rank`` applies it to the
spectrum a ``Covariance`` caches, or to each of a ``Family``: the leading
columns of ``spectrum.vectors`` span the numerical range and the rest the
kernel.  The kernel condition (``bures.kernel_leaks``) holds when a target's
compression onto it has operator norm at most ``rank_tol * tr target``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, EmptyFamilyError, NonFiniteError, NotPSDError, OutOfRangeError

EPS = float(np.finfo(np.float64).eps)
# Every entry of a PSD matrix is at most its largest eigenvalue lam, and every entry of its root
# R, or of a factor L of it, at most sqrt(lam).  Each partial sum of an entry of a matrix between
# two roots, R S R or L^T H L, is then at most d^2 lam^2, as is one of B^T B for B = R L (at most
# ||B||^2 <= lam^2 by Cauchy-Schwarz), and the mirror sum that symmetrizes it at most 2 d^2 lam^2:
# no larger than the largest double when lam <= sqrt(largest double / 2) / d, which
# ``validate_psd`` enforces.
_ROOT_HALF_MAX = math.sqrt(0.5 * float(np.finfo(np.float64).max))


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


def member_sum(stack: np.ndarray) -> np.ndarray:
    """Sum over the first axis in member order, as a loop adds: numpy's ``sum`` does so over the leading
    axis of a C-contiguous stack but adds members of one entry pairwise, so those accumulate."""
    return np.cumsum(stack, axis=0)[-1] if stack[0].size == 1 else np.ascontiguousarray(stack).sum(axis=0)


def as_matrix(m) -> np.ndarray:
    """Underlying square float64 array of a matrix-like object, such as the
    matrix of a ``Covariance`` itself."""
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
    """Read-only ``(a + a^T) / 2`` of a square matrix with finite entries, or of
    each of a stack (..., d, d), so that ``m[..., i, j] == m[..., j, i]`` holds
    exactly: the one symmetrization on the way in.  An overflowing ``a + a^T`` raises too."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimMismatchError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # the result is tested instead
        s = symmetrize(m)
    if not np.isfinite(s).all():
        what = "above half the largest double overflow when symmetrized" if np.isfinite(m).all() else "must be finite"
        raise NonFiniteError(f"matrix entries {what}")
    return readonly(s)


class Covariance:
    """Symmetric PSD matrix carrying its eigendecomposition.

    Instances come from ``validate_psd``; ``spectrum.values`` is descending and
    nonnegative (tolerated negative noise is clamped at validation).  What is
    derived from the spectrum is built on first use and kept in one memo: the
    square root (``sqrt_psd``) and, per relative rank tolerance ``rank_rel``,
    the numerical rank (``numerical_rank``) and the inverse root (``pinv_sqrt``).
    """

    __slots__ = ("mat", "spectrum", "_memo")

    def __init__(self, mat: np.ndarray, spectrum: Spectrum):
        self.mat = mat
        self.spectrum = spectrum
        self._memo = {}

    def _kept(self, key, build):
        """The memo's entry ``key``, from ``build()`` on the first call."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

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
    """Eigendecomposition of a symmetric matrix or a stack with a deterministic convention.

    Eigenvalues are sorted in descending order; exact ties are broken by the
    row index of each eigenvector's largest-magnitude component (first index on
    further ties).  Signs are fixed so that component is positive.
    """
    w, v = np.linalg.eigh(as_symmetric(m))
    dom = np.argmax(np.abs(v), axis=-2)
    order = np.lexsort((dom, -w), axis=-1)
    if w.ndim == 1:
        values, vectors = w[order], v[:, order].copy()
        vectors[:, vectors[dom[order], np.arange(w.size)] < 0.0] *= -1.0
    else:
        v *= np.where(np.take_along_axis(v, dom[..., None, :], -2) < 0.0, -1.0, 1.0)
        values, vectors = np.take_along_axis(w, order, -1), np.take_along_axis(v, order[..., None, :], -1)
    return Spectrum(readonly(values), readonly(vectors))


def validate_psd(m):
    """Check positive semidefiniteness within ``tol = d eps max|eigenvalue|``.

    Eigenvalues in ``[-tol, 0)`` are set to zero and the matrix is rebuilt from
    the clamped spectrum; an eigenvalue below ``-tol`` raises ``NotPSDError``.
    A matrix with no negative eigenvalues is passed through unchanged.  A stack
    (n, d, d) gives the ``Family`` of its n members, each as alone, from one stacked ``sym_eigen``,
    PSD test, ``symmetrize`` and rebuild of the clamped members, or names the first indefinite in ``index``.
    Before the PSD test, an eigenvalue above ``sqrt(largest double / 2) / d`` in magnitude raises
    ``NonFiniteError``: products of such matrices would overflow.
    """
    if isinstance(m, (Covariance, Family)):
        return m
    spec, a = sym_eigen(m), np.asarray(m, dtype=np.float64)
    values, lam_min, d = spec.values, spec.values[..., -1], spec.values.shape[-1]
    scale = np.abs(values).max(axis=-1)
    if scale.max() > _ROOT_HALF_MAX / d:
        what = f"matrix eigenvalue {scale.max():.6g} above sqrt(largest double / 2) / d = {_ROOT_HALF_MAX / d:.6g}"
        raise NonFiniteError(f"{what} at d = {d}: products of such matrices would overflow")
    bad = lam_min < -d * EPS * scale
    if bad.any():
        raise NotPSDError(float(np.ravel(lam_min)[bad.argmax()]), index=int(bad.argmax()) if a.ndim > 2 else None)
    mats, neg = symmetrize(a), lam_min < 0.0
    if neg.any():
        values = np.where(neg[..., None], np.maximum(values, 0.0), values)
        mats[neg] = from_spectrum(spec.vectors[neg], values[neg])
    return _covariances(mats, values, spec.vectors)


class Family:
    """A validated family of n covariances as three read-only stacks: ``mats`` (n, d, d) and
    their spectra, ``values`` (n, d) and ``vectors`` (n, d, d).  ``family[i]`` is member i's
    ``Covariance``, of views into the stacks; a slice or an index array gives those rows' ``Family``."""

    __slots__ = ("mats", "values", "vectors")

    def __init__(self, mats: np.ndarray, values: np.ndarray, vectors: np.ndarray):
        self.mats, self.values, self.vectors = readonly(mats), readonly(values), readonly(vectors)

    def __len__(self) -> int:
        return len(self.mats)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return Covariance(self.mats[i], Spectrum(self.values[i], self.vectors[i]))
        if isinstance(i, slice) or np.ndim(i) == 1:
            return Family(self.mats[i], self.values[i], self.vectors[i])
        raise TypeError(f"a family is indexed by an integer, a slice or an index array, not {i!r}")


def _covariances(mats: np.ndarray, values: np.ndarray, vectors: np.ndarray):
    """The read-only ``Covariance`` of a matrix and its spectrum, or the ``Family`` of a stack."""
    if values.ndim > 1:
        return Family(mats, values, vectors)
    return Covariance(readonly(mats), Spectrum(readonly(values), vectors))


def as_family(family) -> Family:
    """A ``Family`` as it is, or a sequence of matrices validated in one stacked pass after a check
    that it is nonempty and of one dimension; a ``Covariance`` among them keeps its matrix and spectrum."""
    if isinstance(family, Family):
        return family
    members = list(family)
    if not members:
        raise EmptyFamilyError("family of covariances is empty")
    d = len(as_matrix(members[0]))
    for i, m in enumerate(members):
        if len(as_matrix(m)) != d:
            raise DimMismatchError(f"family member {i} has dimension {len(as_matrix(m))}, expected {d}")
    kept = [isinstance(m, Covariance) for m in members]
    checked = members if all(kept) else validate_psd(np.stack(members))
    if not any(kept):
        return checked
    members = [m if k else c for m, k, c in zip(members, kept, checked)]
    return Family(*map(np.stack, zip(*((m.mat, m.spectrum.values, m.spectrum.vectors) for m in members))))


def rank_rel(dim: int, rank_tol: float | None = None) -> float:
    """Relative rank tolerance: ``rank_tol``, or dim * machine_eps by default.

    ``rank_tol`` must lie in [0, 1): at 1 or above (or NaN) every eigenvalue
    is kernel, below 0 every one is range, zeros included."""
    if rank_tol is None:
        return dim * EPS
    if not 0.0 <= float(rank_tol) < 1.0:
        raise OutOfRangeError(f"rank_tol={rank_tol} outside [0, 1)")
    return float(rank_tol)


def rank_cutoff(values: np.ndarray, rank_tol: float | None = None):
    """Absolute eigenvalue cutoff ``rank_rel * lambda_max`` of a descending
    spectrum, or of each row of a stack (..., d) of them."""
    return rank_rel(values.shape[-1], rank_tol) * values[..., 0]


def numerical_rank(c, rank_tol: float | None = None):
    """Count of eigenvalues above ``rank_cutoff`` of a ``Covariance``, or the
    (n,) counts of the members of a ``Family``.

    This is the range/kernel split: ``spectrum.vectors[:, :r]`` spans the
    numerical range and ``spectrum.vectors[:, r:]`` the numerical kernel.
    """
    if isinstance(c, Family):
        return (c.values.T > rank_cutoff(c.values, rank_tol)).sum(axis=0)
    values = c.spectrum.values
    rel = rank_rel(values.size, rank_tol)
    return c._kept(("rank", rel), lambda: int(np.count_nonzero(values > rank_cutoff(values, rel))))


def _condition(values: np.ndarray, rank_tol: float | None = None) -> float:
    """Largest over smallest eigenvalue above ``rank_cutoff`` of a descending
    spectrum; ``inf`` when none is above it."""
    pos = values[values > rank_cutoff(values, rank_tol)]
    return float(pos[0] / pos[-1]) if pos.size else math.inf


def from_spectrum(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Symmetric matrix ``V diag(values) V^T`` rebuilt from (part of) a spectrum, or a stack of them."""
    return symmetrize((vectors * values[..., None, :]) @ vectors.swapaxes(-1, -2))


def sqrt_psd(s) -> np.ndarray:
    """Unique PSD square root, by mapping eigenvalues to their roots, as a read-only array, or the
    stack of a ``Family``'s; a ``Covariance`` builds it once and returns the same root afterwards."""
    c = validate_psd(s)
    if isinstance(c, Family):
        return readonly(from_spectrum(c.vectors, np.sqrt(c.values)))
    return c._kept("root", lambda: readonly(from_spectrum(c.spectrum.vectors, np.sqrt(c.spectrum.values))))


def pinv_sqrt(s, rank_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse square root of a PSD matrix, or of a nonnegative
    ``Spectrum`` (or a stack of spectra, values (n, d), vectors (n, d, d)):
    eigenvalues above the rank cutoff, per row, map to ``1 / sqrt(lambda)``,
    the rest to zero, so the read-only result inverts the root on its
    numerical range and vanishes on its kernel.  A ``Covariance`` builds it once per ``rank_rel``."""
    c = s if isinstance(s, Spectrum) else validate_psd(s)
    if isinstance(c, Covariance):
        rel = rank_rel(c.dim, rank_tol)
        return c._kept(("pinv", rel), lambda: pinv_sqrt(c.spectrum, rel))
    keep = c.values > rank_cutoff(c.values, rank_tol)[..., None]
    inv = np.divide(1.0, np.sqrt(c.values), out=np.zeros_like(c.values), where=keep)
    return readonly(from_spectrum(c.vectors, inv))


def cov_from_product(a) -> Covariance:
    """Covariance built from a symmetric product that is PSD in exact arithmetic.

    Products such as ``R @ S @ R`` (R symmetric, S PSD) can have negative
    eigenvalues only through rounding, so they are clamped without a
    tolerance gate and the matrix is rebuilt from the clamped spectrum.  A
    stack (n, d, d) gives the ``Family`` of n covariances, like ``validate_psd``.
    """
    spec = sym_eigen(a)
    w = np.maximum(spec.values, 0.0)
    return _covariances(from_spectrum(spec.vectors, w), w, spec.vectors)


def trace_norm(a) -> float:
    w = np.linalg.eigvalsh(symmetrize(a))
    return float(np.sum(np.abs(w)))


def operator_norm(a) -> float:
    """Largest absolute eigenvalue of a symmetric matrix, or the largest over a stack."""
    w = np.linalg.eigvalsh(symmetrize(a))
    return float(np.max(np.abs(w))) if w.size else 0.0
