"""Frechet means of covariance families and the induced multicoupling.

Both solvers iterate ``S <- T S T``, T the average optimal map from S to the
members, deflate a common kernel, check the kernel of every iterate and stop
by one test.  ``mean_fixed_point`` is this steepest descent from the
euclidean mean.  ``mean_procrustes_averaging`` is generalized Procrustes
averaging of the matrix roots: rotating root ``L_i`` toward the average root
L gives ``L_i polar(L_i^T L) = T_i L``, so averaging and squaring is the same
step, started from the average root.  Both evaluate each point once and
report through ``MeanResult``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bures import kernel_leaks, optimal_map, product_root, rank_groups, transport_matrix
from .errors import DimMismatchError, KernelConditionError, MaxIterExceeded, OutOfRangeError
from .spectral import (
    Covariance,
    Family,
    as_family,
    cov_from_product,
    member_sum,
    numerical_rank,
    readonly,
    sqrt_psd,
    symmetrize,
    trace_norm,
    validate_psd,
)

# Residual certificate required of a converged mean, relative to its trace.
RESIDUAL_CERT = 1e-6
_TILE = 64  # Rows per tile of the joint covariance; 64 keeps the dense product's bits on OpenBLAS.


@dataclass(frozen=True)
class MeanConfig:
    """Solver configuration.

    ``rel_tol`` bounds the relative change of the Frechet functional and the
    fixed-point residual relative to the trace, in both solvers.
    ``max_iter`` caps the iterations; each solver fixes its own starting point.
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
    are measured on the reduced problem.  ``product_roots`` is the read-only
    (n, d, d) stack ``(M^{1/2} S_i M^{1/2})^{1/2}`` at the mean M on every
    run, lifted back to the full space on a deflated one.
    """

    mean: Covariance
    iterations: int
    functional_trace: np.ndarray
    residual_trace: np.ndarray
    trace_of_iterates: np.ndarray
    min_eig_of_iterates: np.ndarray
    converged: bool
    algorithm: str
    product_roots: np.ndarray


@dataclass(frozen=True)
class JointCovariance:
    """Covariance of the optimal multicoupling, kept as its factor.

    The multicoupling is ``(t_1 X, ..., t_n X)`` with ``X ~ N(0, mean)`` and
    ``t_i`` the optimal map from the mean to member i, so its covariance is
    ``F mean F^T`` with ``F`` the ``maps`` stacked into an (n d) x d matrix.
    Only the mean and the (n, d, d) maps are stored; block (i, j) is
    ``t_i mean t_j``, the diagonal blocks are the family members and the full
    (n d) x (n d) matrix is PSD of rank at most d.  It is formed only by the
    row tiles of ``upper_tiles``: ``io.write_matrix`` streams them to a file,
    ``full()`` mirrors their upper triangle.
    """

    mean: Covariance
    maps: np.ndarray

    @property
    def n(self) -> int:
        return self.maps.shape[0]

    @property
    def dim(self) -> int:
        return self.maps.shape[1]

    def upper_tiles(self):
        """``symmetrize(F mean F^T)`` by ``_TILE`` rows R = [r0, r0 + _TILE), as pairs
        ``(r0, (FM[R] F[r0:]^T + F[R] FM[r0:]^T) / 2)`` with ``FM = F mean``."""
        f = self.maps.reshape(self.n * self.dim, self.dim)
        fm = f @ self.mean.mat
        for r0 in range(0, len(f), _TILE):
            t = fm[r0 : r0 + _TILE] @ f[r0:].T
            t += f[r0 : r0 + _TILE] @ fm[r0:].T
            yield r0, 0.5 * t

    def full(self) -> np.ndarray:
        out = np.empty((self.n * self.dim,) * 2)
        for r0, t in self.upper_tiles():
            out[r0 : r0 + len(t), r0:] = t
        return np.where(np.tri(len(out), dtype=bool), out.T, out)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of ``full()``, whose nonzero spectrum is that of
        the d x d ``mean^{1/2} F^T F mean^{1/2}``; the other (n - 1) d are 0."""
        f, r = self.maps.reshape(self.n * self.dim, self.dim), sqrt_psd(self.mean)
        w = float(np.linalg.eigvalsh(symmetrize(r @ (f.T @ f) @ r))[0])
        return w if self.n == 1 else min(w, 0.0)


def coerce_point_and_family(point, family, role: str) -> tuple[Covariance, Family]:
    """Validate a point and a family and check that their dimensions agree.

    ``role`` names the point in the error message, e.g. ``"candidate"`` or
    ``"mean"``.
    """
    c, members = validate_psd(point), as_family(family)
    if c.dim != members.mats.shape[-1]:
        raise DimMismatchError(f"{role} dimension {c.dim} does not match family {members.mats.shape[-1]}")
    return c, members


def frechet_functional(s, family) -> float:
    """F(S) = (1/2N) sum_i d^2(S, S_i) for the Procrustes distance d, read
    from the one ``_Evaluation`` of S like ``fixed_point_residual``."""
    return _Evaluation(*coerce_point_and_family(s, family, "candidate")).functional


def fixed_point_residual(s, family) -> float:
    """Trace-norm residual of the barycenter fixed-point equation.

    Returns ``|| S - (1/N) sum_i (S^{1/2} S_i S^{1/2})^{1/2} ||_1``, which
    vanishes exactly at the Frechet mean of the family.
    """
    return _Evaluation(*coerce_point_and_family(s, family, "candidate")).residual


class _Evaluation:
    """A candidate mean S and the family's product roots, read from one root.

    The product roots ``G_i = (S^{1/2} S_i S^{1/2})^{1/2}``, the stack ``gs``,
    give the functional ``(1/2N) sum_i (tr S + tr S_i - 2 tr G_i)``, their
    average ``gbar`` and the residual ``||S - gbar||_1``, in member order.  At
    a full-rank S each of the family's rank groups is one ``product_root``.
    Otherwise, with Q a basis of the numerical range of S at ``rank_tol`` and
    D the roots of its eigenvalues, ``G_i = Q (D C_i D)^{1/2} Q^T`` over the rank
    groups of ``C_i = Q^T S_i Q``: no root of a rounding-level eigenvalue enters.
    """

    __slots__ = ("point", "functional", "gbar", "residual", "gs")

    def __init__(self, point: Covariance, fam: Family, rank_tol=None):
        r, gs = numerical_rank(point, rank_tol), np.zeros(fam.mats.shape)
        if r == point.dim:
            for idx, stack in rank_groups(fam, rank_tol):
                gs[idx] = product_root(sqrt_psd(point), stack, rank_tol)
        elif r:
            q, root = point.spectrum.vectors[:, :r], np.diag(np.sqrt(point.spectrum.values[:r]))
            for idx, stack in rank_groups(cov_from_product(q.T @ fam.mats @ q), rank_tol):
                gs[idx] = q @ product_root(root, stack, rank_tol) @ q.T
        d2 = point.trace + fam.mats.trace(axis1=1, axis2=2) - 2.0 * gs.trace(axis1=1, axis2=2)
        self.point, self.gs = point, readonly(gs)
        self.functional = float(member_sum(np.maximum(0.0, d2))) / (2.0 * len(gs))
        self.gbar = member_sum(gs) / len(gs)
        self.residual = trace_norm(point.mat - self.gbar)


def _result(evals: list[_Evaluation], q, converged: bool, algorithm: str) -> MeanResult:
    """Diagnostics from the evaluations, starting point first; the mean and its
    roots are the last evaluation's, lifted back through a deflation's basis q."""
    produced, mean, roots = [e.point for e in evals[1:]], evals[-1].point, evals[-1].gs
    if q is not None:
        mean, roots = cov_from_product(q @ mean.mat @ q.T), readonly(q @ roots @ q.T)
    freeze = lambda xs: np.asarray(xs, dtype=np.float64)
    return MeanResult(
        mean=mean,
        iterations=len(evals) - 1,
        functional_trace=freeze([e.functional for e in evals]),
        residual_trace=freeze([e.residual for e in evals]),
        trace_of_iterates=freeze([p.trace for p in produced]),
        min_eig_of_iterates=freeze([float(p.spectrum.values[-1]) for p in produced]),
        converged=converged,
        algorithm=algorithm,
        product_roots=roots,
    )


def _solve(family, cfg: MeanConfig, rank_tol, start, algorithm: str) -> MeanResult:
    """Iterate ``S <- T S T`` on the complement of the members' common kernel
    from ``start(members)``, or from their euclidean mean when ``start`` is
    None, until the stopping test of ``mean_fixed_point`` ends the run;
    ``cfg.max_iter`` steps raise ``MaxIterExceeded``."""
    members = as_family(family)
    euclidean = lambda fam: member_sum(fam.mats) / len(fam)
    # The common kernel is read off the euclidean mean's null space; without
    # deflation that mean is also the descent's start.
    point, q = cov_from_product(euclidean(members)), None
    rank = numerical_rank(point, rank_tol)
    if 0 < rank < point.dim:
        q = point.spectrum.vectors[:, :rank]
        members = cov_from_product(q.T @ members.mats @ q)
        start = start or euclidean
    if start:
        point = cov_from_product(start(members))

    def evaluate(point, k):
        leaks = np.flatnonzero(kernel_leaks(point, members.mats, rank_tol))
        if leaks.size:
            raise KernelConditionError(f"iterate {k} lost range inclusion for member {leaks[0]}", index=k)
        return _Evaluation(point, members, rank_tol)

    res_cert = max(cfg.rel_tol, RESIDUAL_CERT)
    certified = lambda e, scale: e.residual <= scale * e.point.trace
    evals = [evaluate(point, 0)]
    if certified(evals[0], cfg.rel_tol):
        return _result(evals, q, True, algorithm)
    for k in range(1, cfg.max_iter + 1):
        prev = evals[-1]
        step = transport_matrix(prev.point, prev.gbar, rank_tol)
        cand = evaluate(cov_from_product(step @ prev.point.mat @ step), k)
        improvement = prev.functional - cand.functional
        if improvement < 0.0 and certified(prev, res_cert):
            # The step no longer lowers the functional: evaluation roundoff
            # dominates and the residual already certifies the current iterate.
            return _result(evals, q, True, algorithm)
        prev.gs = None  # only the newest accepted point keeps its roots
        evals.append(cand)
        settled = 0.0 <= improvement <= cfg.rel_tol * max(prev.functional, cand.functional, 1e-30)
        if certified(cand, cfg.rel_tol) or (settled and certified(cand, res_cert)):
            return _result(evals, q, True, algorithm)
    raise MaxIterExceeded(_result(evals, q, False, algorithm))


def mean_fixed_point(family, cfg: MeanConfig | None = None, rank_tol: float | None = None) -> MeanResult:
    """Frechet mean by the transport-map descent iteration.

    The descent starts from the euclidean mean of the members, deflated to
    the complement of their common kernel.  It stops at the first point whose
    fixed-point residual is at most ``cfg.rel_tol * trace`` (the start
    included), or once the relative change of the functional falls below
    ``cfg.rel_tol`` and the residual is at most
    ``max(cfg.rel_tol, 1e-6) * trace``, or at the current point when a step
    raises the functional and that point meets the latter bound; hitting
    ``cfg.max_iter`` first raises ``MaxIterExceeded`` carrying the best
    iterate.
    """
    return _solve(family, cfg or MeanConfig(), rank_tol, None, "fixed_point")


def mean_procrustes_averaging(family, cfg: MeanConfig | None = None, rank_tol: float | None = None) -> MeanResult:
    """Frechet mean by generalized Procrustes averaging of matrix roots.

    Aligning the roots and squaring their average is the descent's step
    ``S <- T S T`` (see the module docstring), so this is ``mean_fixed_point``
    started from ``(mean_i S_i^{1/2})^2``, with its deflation, kernel check
    and stopping test at ``cfg`` and ``rank_tol``.
    """

    def start(members):
        avg = member_sum(sqrt_psd(members)) / len(members)
        return avg @ avg.T

    return _solve(family, cfg or MeanConfig(), rank_tol, start, "procrustes_averaging")


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
