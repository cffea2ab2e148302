import math

import numpy as np
import pytest

from bwgeom import (
    DimMismatchError,
    KernelConditionError,
    OutOfRangeError,
    gaussian_w2,
    kernel_condition,
    optimal_map,
    procrustes_distance,
    procrustes_distance_squared,
    procrustes_distance_via_alignment,
    sqrt_psd,
    validate_psd,
)
from bwgeom.bures import pairwise_distances
from bwgeom.spectral import _condition, numerical_rank, rank_cutoff, symmetrize

from conftest import commuting_pair, count_eigh_calls, make_psd_rank, make_spd

A41 = np.diag([4.0, 1.0])
B14 = np.diag([1.0, 4.0])
C21 = np.array([[2.0, 1.0], [1.0, 2.0]])
# Closed form for the (A41, C21) pair via tr sqrt(M) = sqrt(tr M + 2 sqrt(det M)).
DIST_A41_C21 = math.sqrt(9.0 - 2.0 * math.sqrt(10.0 + 4.0 * math.sqrt(3.0)))


def test_distance_commuting_oracle():
    assert procrustes_distance(A41, B14) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_distance_self_is_zero(rng):
    s = make_spd(4, rng)
    assert procrustes_distance(s, s) <= 1e-9


def test_distance_2x2_closed_form():
    assert procrustes_distance(A41, C21) == pytest.approx(DIST_A41_C21, abs=1e-12)


def test_distance_dim_mismatch():
    with pytest.raises(DimMismatchError):
        procrustes_distance(A41, np.eye(3))


def test_alignment_matches_formula_on_examples():
    dist, rot = procrustes_distance_via_alignment(A41, B14)
    assert dist == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert np.max(np.abs(rot.T @ rot - np.eye(2))) <= 1e-10
    dist, rot = procrustes_distance_via_alignment(A41, C21)
    assert dist == pytest.approx(DIST_A41_C21, abs=1e-10)


def test_alignment_distance_is_evaluated_at_rotation(rng):
    s1, s2 = make_spd(5, rng), make_spd(5, rng)
    dist, rot = procrustes_distance_via_alignment(s1, s2)
    achieved = np.linalg.norm(np.asarray(sqrt_psd(s1)) - rot @ np.asarray(sqrt_psd(s2)))
    assert dist == pytest.approx(achieved, abs=1e-10)


def test_formula_alignment_agreement_batch(rng):
    for _ in range(100):
        d = int(rng.integers(2, 13))
        s1, s2 = make_spd(d, rng), make_spd(d, rng)
        da = procrustes_distance(s1, s2)
        db, _ = procrustes_distance_via_alignment(s1, s2)
        assert abs(da - db) <= 1e-8 * (1.0 + da)


def test_metric_axioms_batch(rng):
    for _ in range(200):
        d = int(rng.integers(2, 13))
        a, b, c = (make_spd(d, rng) for _ in range(3))
        dab = procrustes_distance(a, b)
        dba = procrustes_distance(b, a)
        assert dab >= 0.0
        assert abs(dab - dba) <= 1e-9
        assert procrustes_distance(a, c) <= dab + procrustes_distance(b, c) + 1e-8
    assert procrustes_distance(a, a) <= 1e-9


def test_commuting_reduces_to_root_hs(rng):
    for _ in range(30):
        s1, s2 = commuting_pair(int(rng.integers(2, 9)), rng)
        hs = float(np.linalg.norm(np.asarray(sqrt_psd(s1)) - np.asarray(sqrt_psd(s2))))
        assert abs(procrustes_distance(s1, s2) - hs) <= 1e-9


def test_gaussian_w2_examples(rng):
    s = make_spd(3, rng)
    z = np.zeros(3)
    assert gaussian_w2(z, s, z, s) <= 1e-9
    m = np.array([1.0, -2.0, 0.5])
    assert gaussian_w2(m, s, z, s) == pytest.approx(float(np.linalg.norm(m)), abs=1e-9)
    w = gaussian_w2(np.zeros(2), A41, np.array([3.0, 0.0]), B14)
    assert w == pytest.approx(math.sqrt(11.0), abs=1e-12)


def test_kernel_condition_examples(rng):
    assert kernel_condition(np.eye(3), make_spd(3, rng))
    assert not kernel_condition(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert kernel_condition(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))


def test_optimal_map_commuting_oracle():
    t = optimal_map(A41, B14)
    assert np.allclose(t, np.diag([0.5, 2.0]), atol=1e-12)


def test_optimal_map_identity(rng):
    s = make_spd(4, rng)
    assert np.max(np.abs(optimal_map(s, s) - np.eye(4))) <= 1e-8


def test_optimal_map_forbidden_direction():
    with pytest.raises(KernelConditionError):
        optimal_map(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


@pytest.mark.parametrize("rank_tol", [math.nan, -1.0, 1.0, math.inf])
def test_optimal_map_rejects_rank_tol_outside_the_unit_interval(rank_tol):
    # Below 0 the zero eigenvalue would count as range and be inverted (an all-NaN
    # map); at 1 or above, or NaN, the whole source would count as kernel.
    with pytest.raises(OutOfRangeError, match="rank_tol"):
        optimal_map(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]), rank_tol=rank_tol)


def test_pushforward_batch(rng):
    for _ in range(200):
        d = int(rng.integers(2, 9))
        s1 = make_spd(d, rng)
        # arbitrary PSD target, often rank-deficient
        s2 = make_psd_rank(d, int(rng.integers(1, d + 1)), rng)
        t = optimal_map(s1, s2)
        push = t @ s1.mat @ t
        assert np.max(np.abs(push - s2.mat)) <= 1e-8 * (1.0 + s2.trace)


def test_pushforward_kernel_extension_is_identity():
    # source kernel contains the target kernel; map acts as identity there
    t = optimal_map(np.diag([4.0, 0.0]), np.diag([1.0, 0.0]))
    assert np.allclose(t, np.diag([0.5, 1.0]), atol=1e-10)


def test_composition_along_common_eigenbasis(rng):
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    mats = [(q * rng.uniform(0.3, 2.0, 4)) @ q.T for _ in range(3)]
    t12 = optimal_map(mats[0], mats[1])
    t23 = optimal_map(mats[1], mats[2])
    t13 = optimal_map(mats[0], mats[2])
    assert np.max(np.abs(t12 @ t23 - t13)) <= 1e-8


def test_transport_map_conditioning_diagnostic(rng):
    t = optimal_map(A41, B14)
    assert _condition(np.linalg.eigvalsh(t)[::-1]) == pytest.approx(4.0, abs=1e-10)


def test_condition_matches_the_ascending_formula_on_rank_deficient_maps(rng):
    # Reference: largest over smallest eigenvalue above the cutoff, read from
    # the ascending spectrum; inf if none is above it.
    def ascending(m):
        w = np.linalg.eigvalsh(m)
        pos = w[w > rank_cutoff(w[::-1])]
        return math.inf if pos.size == 0 else float(pos.max() / pos.min())

    for r in (1, 2, 4):
        t = optimal_map(make_spd(5, rng), make_psd_rank(5, r, rng))
        assert np.linalg.matrix_rank(t) == r
        assert _condition(np.linalg.eigvalsh(t)[::-1]) == ascending(t)
    zero = optimal_map(np.eye(3), np.zeros((3, 3)))
    assert _condition(np.linalg.eigvalsh(zero)[::-1]) == ascending(zero) == math.inf


def test_distance_squared_clamped_at_zero(rng):
    s = make_spd(6, rng)
    assert procrustes_distance_squared(s, s) >= 0.0


def pair_squared_distance(a, b):
    """The squared distance of one pair as a 2-D evaluation: the cross trace
    through the exact-rank factor of the lower-rank side."""
    ra, rb = numerical_rank(a), numerical_rank(b)
    lo, hi, r = (a, b, ra) if ra <= rb else (b, a, rb)
    l = lo.spectrum.vectors[:, :r] * np.sqrt(lo.spectrum.values[:r])
    w = np.linalg.eigvalsh(symmetrize(l.T @ hi.mat @ l))
    return max(0.0, a.trace + b.trace - 2.0 * float(np.sum(np.sqrt(np.maximum(w, 0.0)))))


@pytest.mark.parametrize("d", [1, 3, 6])
def test_pairwise_distances_are_those_of_each_pair_bit_for_bit(rng, d):
    # Every rank in 1..d twice, shuffled, so each row has later members of
    # lower, equal and higher rank: both sides of the lower-rank rule.
    family = [make_psd_rank(d, r, rng) for r in range(1, d + 1) for _ in range(2)] + [make_spd(d, rng)]
    family = [family[k] for k in rng.permutation(len(family))]
    want = {
        (i, j): math.sqrt(pair_squared_distance(family[i], family[j]))
        for i in range(len(family))
        for j in range(i + 1, len(family))
    }
    got = pairwise_distances(family)
    assert list(got) == list(want) and got == want
    assert {ij: procrustes_distance(family[ij[0]], family[ij[1]]) for ij in want} == want
    assert pairwise_distances(family[:1]) == pairwise_distances([]) == {}
    with pytest.raises(DimMismatchError):
        pairwise_distances([family[-1], np.eye(d + 1)])


def test_pairwise_distances_validate_raw_arrays_in_one_stack(rng, monkeypatch):
    mats = [make_spd(4, rng).mat for _ in range(6)]
    calls = count_eigh_calls(monkeypatch)
    got = pairwise_distances(mats)
    # One stacked validation; each member was once validated on its own.
    assert calls == [(6, 4, 4)]
    assert got == pairwise_distances([validate_psd(m) for m in mats])
