import numpy as np
import pytest

from bwgeom import sqrt_psd, validate_psd
from bwgeom.spectral import (
    EPS,
    _condition,
    cov_from_product,
    from_spectrum,
    numerical_rank,
    pinv_sqrt,
    sym_eigen,
    symmetrize,
    trace_norm,
)


def make_spd(d, rng, scale=1.0):
    """Random symmetric positive definite matrix with eigenvalues in [0.2, 3]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    w = rng.uniform(0.2, 3.0, size=d)
    return validate_psd(scale * (q * w) @ q.T)


def make_psd_rank(d, r, rng, scale=1.0):
    """Random PSD matrix of rank r."""
    x = rng.standard_normal((d, r))
    return validate_psd(scale * (x @ x.T))


def commuting_pair(d, rng):
    """Two SPD matrices sharing a random eigenbasis."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    w1 = rng.uniform(0.2, 3.0, size=d)
    w2 = rng.uniform(0.2, 3.0, size=d)
    return validate_psd((q * w1) @ q.T), validate_psd((q * w2) @ q.T)


def eigvalsh_cone_test(base, b, rank_tol=None):
    """Reference cone test by eigenvalues alone, without ``geometry._cone_test``'s
    Cholesky shortcut: True where ``lambda_min`` of ``b`` (or of each of a
    stack) lies below ``-min(d eps kappa, 1e-3) max|lambda|``, and those
    ``lambda_min``."""
    w = np.linalg.eigvalsh(b)
    kappa = _condition(base.spectrum.values, rank_tol) if numerical_rank(base, rank_tol) else 1.0
    return w[..., 0] < -min(base.dim * EPS * kappa, 1e-3) * np.max(np.abs(w), axis=-1), w[..., 0]


def count_eigh_calls(monkeypatch) -> list:
    """Shapes of the arrays passed to ``np.linalg.eigh`` from now on."""
    calls, eigh = [], np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def loop_product_root(root, m, rank_tol=None):
    """Reference for ``bures.product_root``: ``(R S R)^{1/2}`` of one member S,
    with one ``Covariance`` and one ``pinv_sqrt`` of its own below full rank."""
    r = numerical_rank(m, rank_tol)
    if r == 0:
        return np.zeros_like(root)
    if r == m.dim:
        spec = sym_eigen(root @ m.mat @ root)
        return from_spectrum(spec.vectors, np.sqrt(np.maximum(spec.values, 0.0)))
    b = root @ (m.spectrum.vectors[:, :r] * np.sqrt(m.spectrum.values[:r]))
    return symmetrize(b @ pinv_sqrt(cov_from_product(b.T @ b), rank_tol) @ b.T)


def loop_evaluation(point, members, rank_tol=None):
    """Reference for ``barycenter._Evaluation``: the functional, ``gbar`` and
    residual at ``point`` from ``loop_product_root`` per member, summed in a
    loop, as evaluated before the members were grouped by rank."""
    r = numerical_rank(point, rank_tol)
    if r == point.dim:
        root = sqrt_psd(point)
        product = lambda m: loop_product_root(root, m, rank_tol)
    elif r == 0:
        product = lambda m: np.zeros_like(point.mat)
    else:
        q = point.spectrum.vectors[:, :r]
        root = np.diag(np.sqrt(point.spectrum.values[:r]))
        product = lambda m: q @ loop_product_root(root, cov_from_product(q.T @ m.mat @ q), rank_tol) @ q.T
    f, gsum = 0.0, np.zeros_like(point.mat)
    for m in members:
        g = product(m)
        f += max(0.0, point.trace + m.trace - 2.0 * float(np.trace(g)))
        gsum += g
    gbar = gsum / len(members)
    return f / (2.0 * len(members)), gbar, trace_norm(point.mat - gbar)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
