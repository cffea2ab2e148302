import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwgeom import (
    DimMismatchError,
    NonFiniteError,
    NotPSDError,
    OutOfRangeError,
    sqrt_psd,
    sym_eigen,
    validate_psd,
)
from bwgeom.spectral import (
    EPS,
    Covariance,
    Family,
    Spectrum,
    as_family,
    from_spectrum,
    member_sum,
    numerical_rank,
    pinv_sqrt,
    symmetrize,
)

from conftest import make_psd_rank, make_spd


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
        assert spec.values.shape == (len(m),)
        assert np.array_equal(spec.values, values)
        assert np.array_equal(spec.vectors, vectors)
    # Stacks of 1..7 matrices, the tie cases among them at d = 4: each entry
    # bit-identical to the per-matrix reference, and so to a 2-D call.
    for size in range(1, 8):
        for d in (1, 2, 4, 6):
            stack = [0.5 * (a + a.T) for a in rng.standard_normal((size, d, d))]
            if d == 4:
                stack[: len(ties)] = ties[:size]
            stack = np.array(stack)
            spec = sym_eigen(stack)
            assert spec.values.shape == (size, d) and spec.vectors.shape == (size, d, d)
            rebuilt = from_spectrum(spec.vectors, spec.values)
            for k, m in enumerate(stack):
                values, vectors = _sym_eigen_reference(m)
                assert np.array_equal(spec.values[k], values)
                assert np.array_equal(spec.vectors[k], vectors)
                assert np.array_equal(rebuilt[k], from_spectrum(vectors, values))


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3), (0,)])
def test_sym_eigen_rejects_a_non_square_input(shape):
    with pytest.raises(DimMismatchError):
        sym_eigen(np.ones(shape))


def test_sym_eigen_rejects_a_stack_with_a_nonfinite_member(rng):
    stack = np.array([make_spd(3, rng).mat for _ in range(4)])
    stack[2, 0, 1] = np.nan
    with pytest.raises(NonFiniteError):
        sym_eigen(stack)


def test_validate_psd_of_a_stack_matches_each_matrix_and_names_the_first_failure(rng):
    mats = [make_spd(4, rng).mat for _ in range(5)] + [np.diag([1.0, 1.0, 1.0, -1e-20])]
    for c, m in zip(validate_psd(np.array(mats)), mats):
        one = validate_psd(m)
        assert np.array_equal(c.mat, one.mat)
        assert np.array_equal(c.spectrum.values, one.spectrum.values)
        assert np.array_equal(c.spectrum.vectors, one.spectrum.vectors)
    mats[1] = mats[4] = np.diag([1.0, 1.0, -0.5, -0.25])
    with pytest.raises(NotPSDError) as err:
        validate_psd(np.array(mats))
    assert err.value.index == 1 and err.value.lambda_min == pytest.approx(-0.5)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_validate_psd_refuses_scales_whose_products_overflow(d):
    # At an eigenvalue of sqrt(largest double / 2) / d the root sandwich and its mirror sum
    # stay finite; one ulp above it, validation refuses the matrix, as one member of a stack too.
    bound = math.sqrt(0.5 * np.finfo(np.float64).max) / d
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = validate_psd(np.diag([bound] + [1.0] * (d - 1)))
        assert np.isfinite(symmetrize(sqrt_psd(c) @ c.mat @ sqrt_psd(c))).all()
        for m in (np.nextafter(bound, math.inf) * np.eye(d), np.stack([np.eye(d), -bound * 2.0 * np.eye(d)])):
            with pytest.raises(NonFiniteError, match="overflow"):
                validate_psd(m)


def _checked_reference(m):
    """``validate_psd`` of one matrix as before stacks were checked at once:
    its own PSD test, clamp and rebuild."""
    spec = sym_eigen(m)
    values, lam_min = spec.values, float(spec.values[-1])
    if lam_min < -values.size * EPS * float(np.max(np.abs(values))):
        raise NotPSDError(lam_min)
    if lam_min < 0.0:
        values = np.maximum(values, 0.0)
        return Covariance(from_spectrum(spec.vectors, values), Spectrum(values, spec.vectors))
    return Covariance(symmetrize(np.asarray(m, dtype=np.float64)), Spectrum(values, spec.vectors))


@st.composite
def _psd_test_stacks(draw):
    """Stacks of 1 to 6 members of dimension 1 to 5: each diagonal (exact
    eigenvalues) or rotated, with eigenvalues positive, zero, negative within
    the tolerance (clamped) or far below it (indefinite)."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    mats = []
    for _ in range(n):
        w = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d)))
        kind = draw(st.sampled_from(["positive", "zero", "clamped", "indefinite"]))
        if kind == "zero":
            w[-1] = 0.0
        elif kind == "clamped":
            w[-1] = -draw(st.floats(1e-3, 0.9)) * d * EPS * np.max(w)
        elif kind == "indefinite":
            w[-1] = -draw(st.floats(1e-6, 1.0)) * np.max(w)
        if draw(st.booleans()):
            q = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((d, d)))[0]
            mats.append((q * w) @ q.T)
        else:
            mats.append(np.diag(w))
    return np.array(mats)


@given(_psd_test_stacks())
@settings(derandomize=True, deadline=None, database=None, max_examples=300)
def test_validate_psd_of_a_stack_is_the_per_matrix_check_bit_for_bit(stack):
    want = []
    for i, m in enumerate(stack):
        try:
            want.append(_checked_reference(m))
        except NotPSDError as e:
            with pytest.raises(NotPSDError) as err:
                validate_psd(stack)
            # The first indefinite member, with the lambda_min of its own check.
            assert err.value.index == i and err.value.lambda_min == e.lambda_min
            return
    got = validate_psd(stack)
    assert isinstance(got, Family) and len(got) == len(list(got)) == len(stack)
    assert not any(a.flags.writeable for a in (got.mats, got.values, got.vectors))
    for c, one, ref in zip(got, [validate_psd(m) for m in stack], want):
        # A member is views into the family's stacks, not a copy.
        assert np.shares_memory(c.mat, got.mats) and np.shares_memory(c.spectrum.vectors, got.vectors)
        for x in (c, one):
            assert x.mat.tobytes() == ref.mat.tobytes() and not x.mat.flags.writeable
            assert x.spectrum.values.tobytes() == ref.spectrum.values.tobytes()
            assert x.spectrum.vectors.tobytes() == ref.spectrum.vectors.tobytes()


@given(_psd_test_stacks(), st.integers(0, 2**32 - 1))
@settings(derandomize=True, deadline=None, database=None, max_examples=200)
def test_validate_psd_symmetrizes_a_tiny_asymmetry_as_a_symmetrized_input_bit_for_bit(stack, seed):
    # A matrix file within SYMMETRY_RTOL reaches validation as written, not symmetrized.
    noise = np.random.default_rng(seed).standard_normal(stack.shape)
    a = stack + 1e-12 * np.abs(stack).max(axis=(1, 2), keepdims=True) * noise
    try:
        want = validate_psd(symmetrize(a))
    except NotPSDError as e:
        with pytest.raises(NotPSDError) as err:
            validate_psd(a)
        assert (err.value.index, err.value.lambda_min) == (e.index, e.lambda_min)
        return
    got = validate_psd(a)
    for x, y in ((got.mats, want.mats), (got.values, want.values), (got.vectors, want.vectors)):
        assert x.tobytes() == y.tobytes()
    assert np.array_equal(got.mats, got.mats.swapaxes(1, 2))


def test_family_rows_by_slice_and_index_array(rng):
    fam = validate_psd(np.array([make_spd(3, rng).mat for _ in range(5)]))
    cases = [(slice(1, 4), [1, 2, 3]), (np.array([4, 0]), [4, 0]), (np.flatnonzero([1, 0, 1, 0, 0]), [0, 2])]
    for sub, rows in ((fam[index], rows) for index, rows in cases):
        assert isinstance(sub, Family) and len(sub) == len(rows)
        for name in ("mats", "values", "vectors"):
            part = getattr(sub, name)
            assert np.array_equal(part, getattr(fam, name)[rows]) and not part.flags.writeable
    assert np.array_equal(fam[-1].mat, fam.mats[4]) and np.array_equal(fam[np.int64(2)].spectrum.values, fam.values[2])
    # Any other index is refused rather than read as an integer.
    for index in (1.0, "1", None):
        with pytest.raises(TypeError):
            fam[index]


def test_as_family_keeps_a_covariance_bit_for_bit_among_raw_arrays(rng):
    # A clamped member whose matrix, validated again, gives another spectrum.
    q = np.linalg.qr(np.random.default_rng(13).standard_normal((3, 3)))[0]
    clamped = validate_psd((q * [2.0, 1.0, -1e-17]) @ q.T)
    again = validate_psd(clamped.mat)
    assert again.spectrum.vectors.tobytes() != clamped.spectrum.vectors.tobytes()
    raw = [make_spd(3, rng).mat for _ in range(2)]
    fam = as_family([raw[0], clamped, raw[1]])
    assert isinstance(fam, Family) and as_family(fam) is fam
    for member, want in zip(fam, [validate_psd(raw[0]), clamped, validate_psd(raw[1])]):
        assert member.mat.tobytes() == want.mat.tobytes()
        assert member.spectrum.values.tobytes() == want.spectrum.values.tobytes()
        assert member.spectrum.vectors.tobytes() == want.spectrum.vectors.tobytes()


def test_sym_eigen_rejects_nonfinite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([[1.0, np.nan], [np.nan, 1.0]], [[1.0, np.inf], [-np.inf, 1.0]]):
            with pytest.raises(NonFiniteError, match="must be finite"):
                sym_eigen(np.array(bad))
        # Finite, but the mirror sum overflows.
        with pytest.raises(NonFiniteError, match="overflow"):
            sym_eigen(np.diag([1e308, 1.0]))


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
    # A family gives the read-only stack of its members' roots, each bit for bit.
    family = as_family([make_spd(4, rng).mat for _ in range(5)])
    roots = sqrt_psd(family)
    assert not roots.flags.writeable
    assert roots.tobytes() == np.stack([sqrt_psd(c) for c in family]).tobytes()


def test_pinv_sqrt_examples():
    assert np.allclose(pinv_sqrt(np.diag([4.0, 1.0])), np.diag([0.5, 1.0]))
    assert np.allclose(pinv_sqrt(np.diag([4.0, 0.0])), np.diag([0.5, 0.0]))
    assert np.allclose(pinv_sqrt(np.eye(3)), np.eye(3))


@pytest.mark.parametrize("rank_tol", [None, 0.0, 1e-10])
def test_pinv_sqrt_of_a_stack_of_spectra_is_each_row_alone(rng, rank_tol):
    # Rank 0, a rank-2 member, an eigenvalue between d eps and 1e-10 relative
    # to the largest (range at rank_tol None and 0, kernel at 1e-10), full rank.
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    members = [
        validate_psd(np.zeros((4, 4))),
        make_psd_rank(4, 2, rng),
        validate_psd((q * [2.0, 1.0, 1e-12, 0.5]) @ q.T),
        make_spd(4, rng),
    ]
    spec = Spectrum(np.stack([m.spectrum.values for m in members]), np.stack([m.spectrum.vectors for m in members]))
    stacked = pinv_sqrt(spec, rank_tol)
    assert stacked.shape == (4, 4, 4) and not stacked.flags.writeable
    assert not stacked[0].any()
    for row, m in zip(stacked, members):
        assert np.array_equal(row, pinv_sqrt(m, rank_tol))
        assert np.array_equal(row, pinv_sqrt(m.spectrum, rank_tol))


def test_a_covariance_keeps_its_inverse_root_and_rank_per_tolerance(rng, monkeypatch):
    import bwgeom.spectral

    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    c = validate_psd((q * [4.0, 1.0, 0.0]) @ q.T)
    spec = Spectrum(c.spectrum.values, c.spectrum.vectors)
    default, half = pinv_sqrt(c), pinv_sqrt(c, 0.5)
    assert not np.array_equal(default, half)
    assert np.array_equal(default, pinv_sqrt(spec)) and np.array_equal(half, pinv_sqrt(spec, 0.5))
    # Kept per relative tolerance: the default is d eps, and a float, a numpy scalar
    # and a 0-d array of one value are one entry.
    assert pinv_sqrt(c) is default and pinv_sqrt(c, c.dim * EPS) is default
    for tol in (0.5, np.float64(0.5), np.array(0.5)):
        assert pinv_sqrt(c, tol) is half and not half.flags.writeable
    cutoffs, rank_cutoff = [], bwgeom.spectral.rank_cutoff

    def counted(values, rank_tol=None):
        cutoffs.append(rank_tol)
        return rank_cutoff(values, rank_tol)

    monkeypatch.setattr(bwgeom.spectral, "rank_cutoff", counted)
    assert [numerical_rank(c, tol) for tol in (None, 0.5, np.float64(0.5), np.array(0.5), None)] == [2, 1, 1, 1, 2]
    assert len(cutoffs) == 2
    with pytest.raises(OutOfRangeError):
        numerical_rank(c, np.array(1.0))


@pytest.mark.parametrize("rank_tol", [math.nan, -1.0, 1.0, math.inf])
def test_numerical_rank_rejects_rank_tol_outside_the_unit_interval(rank_tol):
    with pytest.raises(OutOfRangeError, match="rank_tol"):
        numerical_rank(validate_psd(np.diag([1.0, 0.0])), rank_tol)


def test_numerical_rank_accepts_both_ends_of_the_unit_interval():
    c = validate_psd(np.diag([1.0, 0.5, 0.0]))
    assert numerical_rank(c, 0.0) == 2
    assert numerical_rank(c, 0.5) == 1
    assert numerical_rank(c, math.nextafter(1.0, 0.0)) == 1


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


@pytest.mark.parametrize("d", [1, 2, 5])
def test_member_sum_adds_the_members_in_order(rng, d):
    # numpy's axis-0 sum of 1 x 1 members, or of a Fortran-ordered stack, is not in
    # member order; member_sum adds as the loop does.
    for _ in range(50):
        g = rng.standard_normal((40, d, d)) * 10.0 ** rng.integers(-8, 8, size=(40, 1, 1))
        total = g[0].copy()
        for m in g[1:]:
            total += m
        assert member_sum(g).tobytes() == member_sum(np.asfortranarray(g)).tobytes() == total.tobytes()
    assert member_sum(g[:, 0, 0]).tobytes() == total[0, 0].tobytes()
