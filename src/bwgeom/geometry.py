"""Tangent-space calculus on the cone of PSD matrices.

The tangent space at a covariance S consists of symmetric matrices A with
inner product tr(A S B); a direction is a plain symmetric array and the base
is passed alongside it.  The exponential map sends A to (I + A) S (I + A); its
inverse at injective base points, ``log_map``, is the optimal transport map
minus the identity.  Geodesics are McCann interpolations: the point at time t
is ``exp_map(S0, t log_map(S0, S1))``, which stays in the cone because
(1 - t) I + t T is PSD for t in [0, 1].  ``_cone_test`` is the one test of
whether a retraction stays in the cone: ``exp_map`` applies it to one point,
``tpca.reconstruction_errors`` to a stack.  ``_tangent_gram`` is the one place
that evaluates the inner product, for whole stacks of directions at once.
"""

from __future__ import annotations

import math

import numpy as np

from .bures import optimal_map
from .errors import DimMismatchError, LeavesConeError, OutOfRangeError
from .spectral import (
    EPS,
    Covariance,
    _condition,
    as_symmetric,
    cov_from_product,
    numerical_rank,
    readonly,
    validate_psd,
)


def _direction(base: Covariance, a) -> np.ndarray:
    d = as_symmetric(a)
    if len(d) != base.dim:
        raise DimMismatchError(
            f"tangent direction dimension {len(d)} does not match base dimension {base.dim}"
        )
    return d


def _tangent_gram(base: Covariance, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Inner products ``tr(X_i S Y_j)`` of two stacks of symmetric directions.

    For symmetric X, Y and S, ``tr(X S Y)`` is the dot product of the flattened
    X with the flattened ``Y S``, so the whole (len(xs), len(ys)) table is one
    matrix product.  Either stack may be empty.
    """
    n2 = base.dim * base.dim
    return xs.reshape(len(xs), n2) @ (ys @ base.mat).reshape(len(ys), n2).T


def tangent_inner(base, a, b) -> float:
    """Inner product tr(A S B) of two tangent directions at the base point."""
    s = validate_psd(base)
    return float(_tangent_gram(s, _direction(s, a)[None], _direction(s, b)[None])[0, 0])


def tangent_norm(base, a) -> float:
    """Norm induced by ``tangent_inner``; tiny negative roundoff is clamped."""
    return math.sqrt(max(0.0, tangent_inner(base, a, a)))


def _cone_test(base: Covariance, b: np.ndarray, rank_tol: float | None = None):
    """Whether ``lambda_min`` of ``I + A``, or of each of a stack (..., d, d), at
    the base S lies below ``-min(d eps kappa, 1e-3) max|lambda(I + A)|``.

    kappa is the condition number of S on its range at ``rank_tol``, and 1 at
    a zero base: a logarithm at S is known to a relative accuracy of about
    eps kappa (its folds stay below 3e-6 max|lambda| up to kappa = 1e12), and
    the cap keeps every deeper fold a rejection.
    """
    w = np.linalg.eigvalsh(b)
    kappa = _condition(base.spectrum.values, rank_tol) if numerical_rank(base, rank_tol) else 1.0
    return w[..., 0] < -min(base.dim * EPS * kappa, 1e-3) * np.max(np.abs(w), axis=-1)


def exp_map(base, a, rank_tol: float | None = None) -> Covariance:
    """Exponential map (I + A) S (I + A) at the base covariance S; raises
    ``LeavesConeError`` when ``_cone_test`` rejects I + A."""
    s = validate_psd(base)
    b = np.eye(s.dim) + _direction(s, a)
    if _cone_test(s, b, rank_tol):
        raise LeavesConeError(lambda_min=float(np.linalg.eigvalsh(b)[0]))
    return cov_from_product(b @ s.mat @ b)


def log_map(base, target, rank_tol: float | None = None) -> np.ndarray:
    """Logarithm of ``target`` at ``base``: the transport map minus the
    identity, as a read-only array."""
    s = validate_psd(base)
    return readonly(optimal_map(s, target, rank_tol) - np.eye(s.dim))


def geodesic(s0, s1, t: float, rank_tol: float | None = None) -> Covariance:
    """Point at parameter ``t`` on the geodesic from S0 to S1.

    The exponential at S0 of ``t`` times the logarithm of S1 at S0.  ``t``
    must lie in [0, 1]; the curve has constant speed, with distance (t - s)
    times the endpoint distance between parameters s <= t.
    """
    if not 0.0 <= float(t) <= 1.0:
        raise OutOfRangeError(f"geodesic parameter t={t} outside [0, 1]")
    a = validate_psd(s0)
    return exp_map(a, float(t) * log_map(a, s1, rank_tol), rank_tol)
