"""Frechet means of covariance families and the induced multicoupling.

Both solvers iterate ``S <- T S T``, T the average optimal map from S to the
members, deflate a common kernel and check the kernel of every iterate.
``mean_fixed_point`` is this steepest descent from the euclidean mean.
``mean_procrustes_averaging`` is generalized Procrustes averaging of the
matrix roots: rotating root ``L_i`` toward the average root L gives
``L_i polar(L_i^T L) = T_i L``, so averaging and squaring is the same step.
Both evaluate each point once and report through ``MeanResult``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bures import kernel_leaks, optimal_map, product_root, transport_matrix
from .errors import (
    DimMismatchError,
    EmptyFamilyError,
    KernelConditionError,
    MaxIterExceeded,
    OutOfRangeError,
)
from .spectral import (
    Covariance,
    cov_from_product,
    numerical_rank,
    readonly,
    sqrt_psd,
    symmetrize,
    trace_norm,
    validate_psd,
)

# Residual certificate required of a converged mean, relative to its trace.
RESIDUAL_CERT = 1e-6


@dataclass(frozen=True)
class MeanConfig:
    """Solver configuration.

    ``rel_tol`` applies to the relative change of the Frechet functional in the
    descent solver and to the Procrustes length of the step,
    ``tr((T - I) S (T - I))^{1/2}``, in the averaging solver: the
    Hilbert-Schmidt change of the average root.  ``max_iter`` caps the
    iterations of either; each solver fixes its own starting point.
    """

    max_iter: int = 200
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.max_iter < 1:
            raise OutOfRangeError(f"max_iter={self.max_iter} must be at least 1")
        if not self.rel_tol > 0.0:
            raise OutOfRangeError(f"rel_tol={self.rel_tol} must be positive")


@dataclass(frozen=True)
class MeanResult:
    """Mean with per-iterate diagnostics.

    Both solvers evaluate each point once, from the family's product roots at
    that point, and ``functional_trace`` and ``residual_trace`` read the
    functional and the fixed-point residual from that evaluation.  They have
    one entry per evaluated point, the starting point included, so
    ``iterations == len(functional_trace) - 1``.  ``trace_of_iterates`` and
    ``min_eig_of_iterates`` cover only the iterates the solver itself produced
    (one entry per step); the descent solver's trace sequence is
    non-decreasing while its functional sequence, starting point included, is
    non-increasing.  On a deflated (common-kernel) run the minimum eigenvalues
    are measured on the reduced problem.
    """

    mean: Covariance
    iterations: int
    functional_trace: np.ndarray
    residual_trace: np.ndarray
    trace_of_iterates: np.ndarray
    min_eig_of_iterates: np.ndarray
    converged: bool
    algorithm: str


@dataclass(frozen=True)
class JointCovariance:
    """Covariance of the optimal multicoupling, kept as its factor.

    The multicoupling is ``(t_1 X, ..., t_n X)`` with ``X ~ N(0, mean)`` and
    ``t_i`` the optimal map from the mean to member i, so its covariance is
    ``F mean F^T`` with ``F`` the ``maps`` stacked into an (n d) x d matrix.
    Only the mean and the (n, d, d) maps are stored; block (i, j) is
    ``t_i mean t_j``, the diagonal blocks are the family members and the full
    (n d) x (n d) matrix is PSD of rank at most d.
    """

    mean: Covariance
    maps: np.ndarray

    @property
    def n(self) -> int:
        return self.maps.shape[0]

    @property
    def dim(self) -> int:
        return self.maps.shape[1]

    def block(self, i: int, j: int) -> np.ndarray:
        return self.maps[i] @ self.mean.mat @ self.maps[j]

    def full(self) -> np.ndarray:
        f = self.maps.reshape(self.n * self.dim, self.dim)
        return symmetrize(f @ self.mean.mat @ f.T)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of ``full()``, whose nonzero spectrum is that of
        the d x d ``mean^{1/2} F^T F mean^{1/2}``; the other (n - 1) d are 0."""
        f, r = self.maps.reshape(self.n * self.dim, self.dim), sqrt_psd(self.mean)
        w = float(np.linalg.eigvalsh(symmetrize(r @ (f.T @ f) @ r))[0])
        return w if self.n == 1 else min(w, 0.0)

    @property
    def blocks(self) -> np.ndarray:
        """Read-only (n, n, d, d) view of ``full()``."""
        n, d = self.n, self.dim
        return readonly(self.full().reshape(n, d, n, d).transpose(0, 2, 1, 3))


def coerce_family(family) -> list[Covariance]:
    """Validate a family of covariances and check dimensions agree."""
    members = [validate_psd(m) for m in family]
    if not members:
        raise EmptyFamilyError("family of covariances is empty")
    d = members[0].dim
    for i, m in enumerate(members):
        if m.dim != d:
            raise DimMismatchError(f"family member {i} has dimension {m.dim}, expected {d}")
    return members


def coerce_point_and_family(point, family, role: str) -> tuple[Covariance, list[Covariance]]:
    """Validate a point and a family and check that their dimensions agree.

    ``role`` names the point in the error message, e.g. ``"candidate"`` or
    ``"mean"``.
    """
    c = validate_psd(point)
    members = coerce_family(family)
    if c.dim != members[0].dim:
        raise DimMismatchError(f"{role} dimension {c.dim} does not match family {members[0].dim}")
    return c, members


def frechet_functional(s, family) -> float:
    """F(S) = (1/2N) sum_i d^2(S, S_i) for the Procrustes distance d, read
    from the one ``_Evaluation`` of S like ``fixed_point_residual``."""
    c, members = coerce_point_and_family(s, family, "candidate")
    return _Evaluation(c, members).functional


def fixed_point_residual(s, family) -> float:
    """Trace-norm residual of the barycenter fixed-point equation.

    Returns ``|| S - (1/N) sum_i (S^{1/2} S_i S^{1/2})^{1/2} ||_1``, which
    vanishes exactly at the Frechet mean of the family.
    """
    c, members = coerce_point_and_family(s, family, "candidate")
    return _Evaluation(c, members).residual


class _Evaluation:
    """A candidate mean S and the family's product roots, read from one root.

    The product roots ``G_i = (S^{1/2} S_i S^{1/2})^{1/2}`` give the Frechet
    functional from their traces, ``(1/2N) sum_i (tr S + tr S_i - 2 tr G_i)``,
    their average ``gbar`` and the trace-norm residual ``||S - gbar||_1``.
    S is rooted on its numerical range at ``rank_tol``.  When that range is
    not the whole space, with Q its orthonormal basis and D the roots of the
    eigenvalues kept, ``G_i = Q (D C_i D)^{1/2} Q^T`` for ``C_i = Q^T S_i Q``:
    no root of a rounding-level eigenvalue of S or of the product enters.
    """

    __slots__ = ("point", "functional", "gbar", "residual")

    def __init__(self, point: Covariance, members: list[Covariance], rank_tol=None):
        r = numerical_rank(point, rank_tol)
        if r == point.dim:
            root = sqrt_psd(point)
            product = lambda m: product_root(root, m, rank_tol)
        elif r == 0:
            product = lambda m: np.zeros_like(point.mat)
        else:
            q = point.spectrum.vectors[:, :r]
            root = np.diag(np.sqrt(point.spectrum.values[:r]))
            product = lambda m: q @ product_root(root, cov_from_product(q.T @ m.mat @ q), rank_tol) @ q.T
        tr = point.trace
        f = 0.0
        gsum = np.zeros_like(point.mat)
        for m in members:
            g = product(m)
            f += max(0.0, tr + m.trace - 2.0 * float(np.trace(g)))
            gsum += g
        self.point = point
        self.functional = f / (2.0 * len(members))
        self.gbar = gsum / len(members)
        self.residual = trace_norm(point.mat - self.gbar)


def _result(evals: list[_Evaluation], finish, converged: bool, algorithm: str) -> MeanResult:
    """Diagnostics from the evaluations, starting point first; the mean is
    ``finish`` applied to the last evaluated point."""
    produced = [e.point for e in evals[1:]]
    freeze = lambda xs: np.asarray(xs, dtype=np.float64)
    return MeanResult(
        mean=finish(evals[-1].point),
        iterations=len(evals) - 1,
        functional_trace=freeze([e.functional for e in evals]),
        residual_trace=freeze([e.residual for e in evals]),
        trace_of_iterates=freeze([p.trace for p in produced]),
        min_eig_of_iterates=freeze([float(p.spectrum.values[-1]) for p in produced]),
        converged=converged,
        algorithm=algorithm,
    )


def _solve(family, cfg: MeanConfig, rank_tol, start, stop, algorithm: str) -> MeanResult:
    """Iterate ``S <- T S T`` from ``start(members)`` on the complement of the
    members' common kernel until ``stop(prev, step, cand)`` returns the
    evaluation to end at, ``cand`` or ``prev`` (None goes on; at the start
    ``prev`` and ``step`` are None), or ``cfg.max_iter`` steps raise."""
    members = coerce_family(family)
    # The common kernel is read off the euclidean mean's null space.
    esum = cov_from_product(sum(m.mat for m in members) / len(members))
    rank = numerical_rank(esum, rank_tol)
    if 0 < rank < members[0].dim:
        q = esum.spectrum.vectors[:, :rank]
        members = [cov_from_product(q.T @ m.mat @ q) for m in members]
        finish = lambda p: cov_from_product(q @ p.mat @ q.T)
    else:
        finish = lambda p: p

    def evaluate(point, k):
        kernel = point.spectrum.vectors[:, numerical_rank(point, rank_tol):]
        for i, m in enumerate(members):
            if kernel_leaks(kernel, m, rank_tol):
                raise KernelConditionError(f"iterate {k} lost range inclusion for member {i}", index=k)
        return _Evaluation(point, members, rank_tol)

    evals = [evaluate(cov_from_product(start(members)), 0)]
    if stop(None, None, evals[0]) is not None:
        return _result(evals, finish, True, algorithm)
    for k in range(1, cfg.max_iter + 1):
        ev = evals[-1]
        step = transport_matrix(ev.point, ev.gbar, rank_tol)
        cand = evaluate(cov_from_product(step @ ev.point.mat @ step), k)
        end = stop(ev, step, cand)
        if end is not ev:
            evals.append(cand)
        if end is not None:
            return _result(evals, finish, True, algorithm)
    raise MaxIterExceeded(_result(evals, finish, False, algorithm))


def mean_fixed_point(family, cfg: MeanConfig | None = None, rank_tol: float | None = None) -> MeanResult:
    """Frechet mean by the transport-map descent iteration.

    The descent starts from the euclidean mean of the members, deflated to
    the complement of their common kernel.  The solver stops once the
    relative change of the functional falls below ``cfg.rel_tol`` and the
    fixed-point residual certifies optimality within
    ``max(cfg.rel_tol, 1e-6) * trace``; hitting ``cfg.max_iter`` first raises
    ``MaxIterExceeded`` carrying the best iterate.
    """
    cfg = cfg or MeanConfig()
    res_cert = max(cfg.rel_tol, RESIDUAL_CERT)
    certified = lambda e, scale: e.residual <= scale * e.point.trace

    def stop(prev, step, cand):
        if prev is None:
            return cand if certified(cand, cfg.rel_tol) else None
        improvement = prev.functional - cand.functional
        if improvement < 0.0 and certified(prev, res_cert):
            # The step no longer lowers the functional: evaluation roundoff
            # dominates and the residual already certifies the current iterate.
            return prev
        settled = 0.0 <= improvement <= cfg.rel_tol * max(prev.functional, cand.functional, 1e-30)
        return cand if certified(cand, cfg.rel_tol) or (settled and certified(cand, res_cert)) else None

    euclidean = lambda members: sum(m.mat for m in members) / len(members)
    return _solve(family, cfg, rank_tol, euclidean, stop, "fixed_point")


def mean_procrustes_averaging(family, cfg: MeanConfig | None = None) -> MeanResult:
    """Frechet mean by generalized Procrustes averaging of matrix roots.

    Each step is the descent's ``S <- T S T`` (see the module docstring),
    computed without rotations, from the square of the average of the
    members' roots.  It stops once the average root moves at most
    ``cfg.rel_tol * (1 + (tr S_new)^{1/2})``: that move is the Procrustes
    length of the step, ``tr((T - I) S (T - I))^{1/2}``.  The deflation and
    kernel check are the descent's, at the default rank cutoff.
    """
    cfg = cfg or MeanConfig()

    def start(members):
        avg = sum(sqrt_psd(m) for m in members) / len(members)
        return avg @ avg.T

    def stop(prev, step, cand):
        if prev is None:
            return None
        move = float(np.linalg.norm((step - np.eye(len(step))) @ sqrt_psd(prev.point)))
        return cand if move <= cfg.rel_tol * (1.0 + np.sqrt(cand.point.trace)) else None

    return _solve(family, cfg, None, start, stop, "procrustes_averaging")


def multicoupling(mean, family, rank_tol: float | None = None) -> JointCovariance:
    """Covariance of the optimal multicoupling induced by transport from the mean.

    With t_i the optimal map from the mean to member i, block (i, j) is
    ``t_i @ mean @ t_j``; the diagonal blocks reproduce the family members and
    the full matrix is PSD by construction.
    """
    c, members = coerce_point_and_family(mean, family, "mean")
    maps = np.empty((len(members), c.dim, c.dim))
    for i, m in enumerate(members):
        try:
            maps[i] = optimal_map(c, m, rank_tol)
        except KernelConditionError as e:
            raise KernelConditionError(
                "no transport map from the mean to a family member", index=i
            ) from e
    return JointCovariance(mean=c, maps=readonly(maps))


def multicoupling_cost(joint: JointCovariance) -> float:
    """Average pairwise squared-distance cost (1/2N^2) sum_{i<j} E||Y_i - Y_j||^2.

    With C[i, j] = tr(t_i M t_j) the pairwise term is C_ii + C_jj - 2 C_ij.
    At the Frechet mean this equals the Frechet functional of the family.
    """
    n = joint.n
    left = (joint.maps @ joint.mean.mat).reshape(n, -1)
    cross = left @ joint.maps.transpose(0, 2, 1).reshape(n, -1).T
    i, j = np.triu_indices(n, 1)
    diag = np.diag(cross)
    total = float(np.sum(diag[i] + diag[j] - 2.0 * cross[i, j]))
    return total / (2.0 * n * n)
