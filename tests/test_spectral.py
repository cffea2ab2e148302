import math

import numpy as np
import pytest

from bwgeom import NonFiniteError, NotPSDError, sqrt_psd, sym_eigen, validate_psd
from bwgeom.spectral import pinv_sqrt

from conftest import make_spd


def test_sym_eigen_diagonal():
    spec = sym_eigen(np.diag([4.0, 1.0]))
    assert np.allclose(spec.values, [4.0, 1.0])
    assert np.allclose(spec.vectors, np.eye(2))


def test_sym_eigen_closed_form_2x2():
    # lambda = ((a+c) +- sqrt((a-c)^2 + 4b^2)) / 2
    spec = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(spec.values, [3.0, 1.0])
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(np.abs(spec.vectors), [[s, s], [s, s]])
    # sign convention: largest-magnitude component positive
    assert spec.vectors[0, 0] > 0 and spec.vectors[0, 1] > 0


def test_sym_eigen_zero_matrix():
    spec = sym_eigen(np.zeros((3, 3)))
    assert np.allclose(spec.values, 0.0)
    assert np.allclose(spec.vectors, np.eye(3))


def test_sym_eigen_deterministic(rng):
    m = np.asarray(make_spd(6, rng))
    a = sym_eigen(m)
    b = sym_eigen(m.copy())
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_sym_eigen_reconstruction_batch(rng):
    for _ in range(500):
        d = int(rng.integers(1, 17))
        m = rng.standard_normal((d, d))
        m = 0.5 * (m + m.T)
        spec = sym_eigen(m)
        scale = 1.0 + float(np.max(np.abs(m)))
        recon = (spec.vectors * spec.values) @ spec.vectors.T
        assert np.max(np.abs(recon - m)) <= 1e-10 * scale
        assert np.max(np.abs(spec.vectors @ spec.vectors.T - np.eye(d))) <= 1e-10
        assert np.all(np.diff(spec.values) <= 0)


def _sym_eigen_reference(m):
    """The convention as a per-column loop: descending values, ties broken by
    the row of the largest-magnitude component, that component positive."""
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    dom = np.argmax(np.abs(v), axis=0)
    order = sorted(range(w.size), key=lambda i: (-w[i], dom[i]))
    values = w[list(order)].copy()
    vectors = v[:, list(order)].copy()
    for k, i in enumerate(order):
        if vectors[dom[i], k] < 0.0:
            vectors[:, k] *= -1.0
    return values, vectors


def test_sym_eigen_matches_reference_loop(rng):
    ties = [
        np.diag([1.0, 2.0, 2.0, 1.0]),
        np.eye(4),
        -np.eye(4),
        np.kron(np.eye(2), np.ones((2, 2))),
    ]
    randoms = []
    for _ in range(300):
        d = int(rng.integers(1, 9))
        a = rng.standard_normal((d, d))
        randoms.append(0.5 * (a + a.T))
    for m in ties + randoms:
        values, vectors = _sym_eigen_reference(m)
        spec = sym_eigen(m)
        assert np.array_equal(spec.values, values)
        assert np.array_equal(spec.vectors, vectors)


def test_sym_eigen_rejects_nonfinite():
    with pytest.raises(NonFiniteError):
        sym_eigen(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_validate_psd_boundary():
    c = validate_psd(np.diag([1.0, 0.0]))
    assert np.array_equal(c.mat, np.diag([1.0, 0.0]))


def test_validate_psd_clamps_tiny_negative():
    c = validate_psd(np.diag([1.0, -1e-20]))
    assert c.spectrum.values[-1] == 0.0
    assert np.allclose(c.mat, np.diag([1.0, 0.0]))


def test_validate_psd_rejects_indefinite():
    with pytest.raises(NotPSDError) as err:
        validate_psd(np.diag([1.0, -0.5]))
    assert err.value.lambda_min == pytest.approx(-0.5)


def test_sqrt_psd_examples():
    assert np.allclose(sqrt_psd(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]))
    r = sqrt_psd(np.array([[2.0, 1.0], [1.0, 2.0]]))
    s3 = math.sqrt(3.0)
    want = np.array([[(s3 + 1) / 2, (s3 - 1) / 2], [(s3 - 1) / 2, (s3 + 1) / 2]])
    assert np.allclose(r, want)
    assert np.allclose(sqrt_psd(np.eye(3)), np.eye(3))


def test_sqrt_psd_squares_back(rng):
    for _ in range(50):
        s = make_spd(int(rng.integers(1, 9)), rng)
        r = sqrt_psd(s)
        assert np.max(np.abs(r @ r - s.mat)) <= 1e-10 * (1.0 + s.trace)


def test_pinv_sqrt_examples():
    assert np.allclose(pinv_sqrt(np.diag([4.0, 1.0])), np.diag([0.5, 1.0]))
    assert np.allclose(pinv_sqrt(np.diag([4.0, 0.0])), np.diag([0.5, 0.0]))
    assert np.allclose(pinv_sqrt(np.eye(3)), np.eye(3))


def test_pinv_sqrt_range_projector(rng):
    s = make_spd(5, rng)
    p = sqrt_psd(np.asarray(pinv_sqrt(s)) @ s.mat @ np.asarray(pinv_sqrt(s)))
    assert np.max(np.abs(p - np.eye(5))) <= 1e-8
    low = np.diag([2.0, 1.0, 0.0])
    p = np.asarray(pinv_sqrt(low)) @ low @ np.asarray(pinv_sqrt(low))
    assert np.allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-10)


def test_sym_matrix_immutable(rng):
    a = make_spd(3, rng)
    for m in (sqrt_psd(a), pinv_sqrt(a), sqrt_psd(np.diag([2.0, 1.0, 0.0]))):
        assert type(m) is np.ndarray and m.dtype == np.float64 and m.shape == (3, 3)
        assert np.array_equal(m, m.T)
        with pytest.raises(ValueError):
            m[0, 0] = 99.0
