import numpy as np
import pytest

from bwgeom import validate_psd
from bwgeom.spectral import EPS, _condition, numerical_rank


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
    stack) lies below ``-min(d eps kappa, 1e-3) max|lambda|``."""
    w = np.linalg.eigvalsh(b)
    kappa = _condition(base.spectrum.values, rank_tol) if numerical_rank(base, rank_tol) else 1.0
    return w[..., 0] < -min(base.dim * EPS * kappa, 1e-3) * np.max(np.abs(w), axis=-1)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
