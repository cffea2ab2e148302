"""Generative models, projections, and stability experiments.

Randomness is counter-based: a ``RngSpec`` (seed, stream) keys a Philox
generator, so identical specs reproduce identical draws bit for bit regardless
of call order elsewhere in the process.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .barycenter import MeanConfig, coerce_family, mean_fixed_point
from .bures import _check_pair, procrustes_distance
from .errors import BwGeomError, DegenerateError, OutOfRangeError
from .spectral import (
    EPS,
    Covariance,
    cov_from_product,
    numerical_rank,
    operator_norm,
    readonly,
    sqrt_psd,
    trace_norm,
    validate_psd,
)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngSpec:
    """Deterministic random source keyed by (seed, stream)."""

    seed: int = 0
    stream: str = "default"

    def generator(self) -> np.random.Generator:
        digest = hashlib.sha256(self.stream.encode("utf-8")).digest()
        k0 = (int.from_bytes(digest[:8], "little") ^ self.seed) & _MASK64
        k1 = int.from_bytes(digest[8:16], "little")
        key = np.array([k0, k1], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class DeformationFamily:
    """Family T_i S T_i generated by PSD deformations averaging to the identity.

    Because (1/n) sum T_i = I, the template S is exactly the Frechet mean of
    the deformed members.  ``maps`` is the read-only (n, d, d) stack of the T_i.
    """

    template: Covariance
    maps: np.ndarray
    deformed: list[Covariance]


def sample_gaussian(s, n: int, rng: RngSpec) -> np.ndarray:
    """n rows drawn from the centred Gaussian with covariance s."""
    c = validate_psd(s)
    if n < 1:
        raise OutOfRangeError(f"sample count n={n} must be positive")
    z = rng.generator().standard_normal((n, c.dim))
    return z @ sqrt_psd(c)


def deformation_family(s, n: int, eps: float, rng: RngSpec) -> DeformationFamily:
    """Deform a template covariance by n identity-mean PSD maps T_i = I + A_i.

    The A_i are centred i.i.d. symmetric draws (uniform upper triangles),
    rescaled so the largest operator norm equals ``eps``; ``eps`` below one
    keeps every map positive definite.  ``eps = 0`` is the degenerate family of
    identity maps.
    """
    c = validate_psd(s)
    if n < 2:
        raise OutOfRangeError(f"family size n={n} must be at least 2")
    if not 0.0 <= eps < 1.0:
        raise OutOfRangeError(f"deformation size eps={eps} outside [0, 1)")
    d = c.dim
    gen = rng.generator()
    iu = np.triu_indices(d)
    draws = []
    for _ in range(n):
        g = np.zeros((d, d))
        g[iu] = gen.uniform(-1.0, 1.0, size=iu[0].size)
        draws.append(g + np.triu(g, 1).T)
    gbar = sum(draws) / n
    centred = [g - gbar for g in draws]
    scale = max(operator_norm(a) for a in centred)
    identity = eps == 0.0 or scale == 0.0
    maps = readonly(np.eye(d) + (0.0 if identity else eps / scale) * np.array(centred))
    deformed = [c] * n if identity else [cov_from_product(t @ c.mat @ t) for t in maps]
    return DeformationFamily(template=c, maps=maps, deformed=deformed)


def _projector_basis(ref: Covariance, r: int, basis: str) -> np.ndarray:
    """Orthonormal columns spanning the rank-r projection subspace: the leading
    r coordinates, or the top-r eigenvectors of ``ref``."""
    if basis == "standard":
        return np.eye(ref.dim)[:, :r]
    if basis == "eigen":
        return ref.spectrum.vectors[:, :r]
    raise OutOfRangeError(f"unknown basis {basis!r}")


def project(s, r: int, basis: str = "standard") -> Covariance:
    """Compression P S P onto a rank-r subspace.

    ``basis="standard"`` keeps the leading r coordinates; ``basis="eigen"``
    uses the top-r eigenvectors of S itself.
    """
    c = validate_psd(s)
    if not 1 <= r <= c.dim:
        raise OutOfRangeError(f"rank r={r} outside 1..{c.dim}")
    q = _projector_basis(c, r, basis)
    return cov_from_product(q @ (q.T @ c.mat @ q) @ q.T)


def projection_error(s, r: int, basis: str = "standard") -> float:
    """tr((I - P) S), which equals the squared distance from S to P S P, for
    the subspace ``project`` uses."""
    c = validate_psd(s)
    if not 1 <= r <= c.dim:
        raise OutOfRangeError(f"rank r={r} outside 1..{c.dim}")
    q = _projector_basis(c, r, basis)
    return max(0.0, c.trace - float(np.trace(q.T @ c.mat @ q)))


def projection_stability_experiment(
    family,
    ranks,
    basis: str = "standard",
    cfg: MeanConfig | None = None,
) -> dict:
    """Frechet means of rank-r compressions of a family, swept over ranks.

    The subspaces are the leading r coordinates (``basis="standard"``) or the
    top-r eigenvectors of the family's euclidean mean (``basis="eigen"``).
    For each rank the family is deflated to the r-dimensional subspace, its
    mean is solved there and embedded back, and the report records the
    trace-norm gap to the full mean together with the worst pairwise metric
    discrepancy of the compressed family.  Solver failures are recorded per
    rank rather than raised.
    """
    members = coerce_family(family)
    d = members[0].dim
    ranks = [int(r) for r in ranks]
    if not ranks:
        raise OutOfRangeError("ranks list is empty")
    for a, b in zip(ranks, ranks[1:]):
        if b <= a:
            raise OutOfRangeError("ranks must be strictly increasing")
    if ranks[0] < 1 or ranks[-1] > d:
        raise OutOfRangeError(f"ranks must lie in 1..{d}")

    euclidean = cov_from_product(sum(m.mat for m in members) / len(members))
    q_full = _projector_basis(euclidean, d, basis)

    full = mean_fixed_point(members, cfg)
    n = len(members)
    pair_full = {
        (i, j): procrustes_distance(members[i], members[j])
        for i in range(n)
        for j in range(i + 1, n)
    }

    mean_gap: list[float] = []
    discrepancy: list[float] = []
    errors: list[str | None] = []
    for r in ranks:
        try:
            q = q_full[:, :r]
            sub = [cov_from_product(q.T @ m.mat @ q) for m in members]
            res = mean_fixed_point(sub, cfg)
            mean_gap.append(trace_norm(q @ res.mean.mat @ q.T - full.mean.mat))
            disc = 0.0
            for (i, j), dist in pair_full.items():
                disc = max(disc, abs(procrustes_distance(sub[i], sub[j]) - dist))
            discrepancy.append(disc)
            errors.append(None)
        except BwGeomError as e:
            mean_gap.append(math.nan)
            discrepancy.append(math.nan)
            errors.append(str(e))
    return {
        "basis": basis,
        "ranks": ranks,
        "mean_trace_distance": mean_gap,
        "metric_discrepancy": discrepancy,
        "solver_errors": errors,
        "full_mean_trace": full.mean.trace,
    }


def convergence_equivalence(a, b) -> tuple[float, float, float]:
    """(Procrustes distance, root Hilbert-Schmidt distance, trace distance).

    The Procrustes distance never exceeds the Hilbert-Schmidt distance of the
    roots, and the trace distance is controlled by ``equivalence_constant(b)``
    times the Procrustes distance whenever ``tr a <= tr b + 1``.
    """
    ca, cb = _check_pair(a, b)
    pi = procrustes_distance(ca, cb)
    root_hs = float(np.linalg.norm(sqrt_psd(ca) - sqrt_psd(cb)))
    return pi, root_hs, trace_norm(ca.mat - cb.mat)


def equivalence_constant(b) -> float:
    """Constant bounding trace distance by Procrustes distance near ``b``."""
    t = validate_psd(b).trace
    return math.sqrt(2.0 + t) + math.sqrt(t)


def counterexample_family(m: int, ratio: float = 6.0, b0: float = 0.5):
    """Two-member family whose mean is not dominated by any multiple of a member.

    On paired coordinates (e_k, f_k), k = 1..m, the mean has eigenvalues
    lambda_k = 2^{-k} and mu_k = 0.9 * lambda_k / ratio^k, and the members are
    T S T and (2I - T) S (2I - T) for the coupling map T mixing each pair with
    weight b_k = b0 * 2^{-k}.  Returns (mean, member1, member2, thresholds)
    where thresholds[k-1] = mu_k / (mu_k + b_k^2 lambda_k) is the largest c
    with mean - c * member1 still PSD on the f_k direction; it shrinks to zero
    as k grows, so no single c works for every block.
    """
    if m < 1:
        raise OutOfRangeError(f"block count m={m} must be positive")
    if m > 15:
        raise DegenerateError(
            f"m={m} drives the smallest eigenvalue below double precision (cap is 15)"
        )
    if not ratio > 5.0:
        raise OutOfRangeError(f"ratio={ratio} must exceed 5")
    if not 0.0 < b0 <= 1.0:
        raise OutOfRangeError(f"mixing weight b0={b0} outside (0, 1]")
    k = np.arange(1, m + 1, dtype=np.float64)
    lam = 0.5**k
    with np.errstate(over="ignore", under="ignore"):
        mu = lam * 0.9 / ratio**k
    if not np.all(mu > np.finfo(np.float64).tiny):
        raise DegenerateError("requested eigenvalue schedule underflows double precision")
    b = b0 * 0.5**k

    d = 2 * m
    mean = np.zeros((d, d))
    np.fill_diagonal(mean[:m, :m], lam)
    np.fill_diagonal(mean[m:, m:], mu)
    t = np.eye(d)
    for i in range(m):
        t[i, m + i] = b[i]
        t[m + i, i] = b[i]
    s1 = t @ mean @ t
    s2 = (2.0 * np.eye(d) - t) @ mean @ (2.0 * np.eye(d) - t)
    thresholds = mu / (mu + b * b * lam)
    return (
        validate_psd(mean),
        cov_from_product(s1),
        cov_from_product(s2),
        thresholds,
    )


def fourth_moment_check(s, n: int, rng: RngSpec) -> dict:
    """Monte Carlo check of E||X||^4 = (tr S)^2 + 2 ||S||_HS^2 for Gaussian X.

    The exact value never exceeds 3 (tr S)^2, with equality exactly in the
    rank-one case.  The report flags whether the estimate sits within five
    standard errors and whether the bound holds.
    """
    c = validate_psd(s)
    if n < 10_000:
        raise OutOfRangeError(f"sample count n={n} below the minimum 10000")
    x = sample_gaussian(c, n, rng)
    q = np.einsum("ij,ij->i", x, x)
    v = q * q
    estimate = float(v.mean())
    se = float(v.std(ddof=1) / math.sqrt(n))
    tr = c.trace
    hs_sq = float(np.sum(c.spectrum.values**2))
    exact = tr * tr + 2.0 * hs_sq
    bound = 3.0 * tr * tr
    z = (estimate - exact) / se if se > 0.0 else 0.0
    rank = numerical_rank(c)
    # exact - bound = 2 (sum lambda_i^2 - (tr S)^2) <= 0, with equality at rank
    # one.  Each eigenvalue is known within d eps lambda_max (the PSD tolerance)
    # and the diagonal sum within (d - 1) eps tr S, so rounding lifts exact
    # above bound by at most (8d - 4) / 3 eps times the bound, plus about 2 eps
    # from the final products and sums: below 4 d eps for every d.
    slack = 4.0 * c.dim * EPS * bound
    return {
        "samples": n,
        "estimate": estimate,
        "exact": exact,
        "std_error": se,
        "z_score": z,
        "upper_bound": bound,
        "bound_gap": bound - exact,
        "rank": rank,
        "equality_case": rank <= 1,
        "within_five_se": abs(z) <= 5.0,
        "bound_holds": exact <= bound + slack,
    }
