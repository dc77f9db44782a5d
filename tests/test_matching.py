import math

import numpy as np
import pytest

from spectra_perturb import (
    BRUTE_FORCE_LIMIT,
    brute_force_match,
    bounds,
    frobenius_norm,
    optimal_match,
)

from conftest import haar_rotated_diagonal, random_complex
from oracles import match_distance


def test_single_eigenvalue():
    m = optimal_match([2.0], [5.0])
    assert m.d2 == 3.0
    assert m.d_inf == 3.0
    assert m.permutation == (0,)


def test_known_two_point_match():
    # identity pairing costs 0 + 4, crossing costs 1 + 9
    m = optimal_match([0.0, 3.0], [0.0, 1.0])
    assert abs(m.d2 - 2.0) < 1e-15
    assert m.permutation == (0, 1)


def test_permutation_is_a_permutation(rng):
    a = random_complex(rng, 7)
    b = random_complex(rng, 7)
    m = optimal_match(a, b)
    assert sorted(m.permutation) == list(range(7))


def test_matches_exhaustive_oracle(rng):
    for n in (2, 3, 4, 5):
        for _ in range(20):
            a = random_complex(rng, n)
            b = random_complex(rng, n)
            fast = optimal_match(a, b).d2
            slow = match_distance(a, b)
            assert abs(fast - slow) < 1e-12 * (1.0 + slow)


def test_brute_force_agrees_and_refuses_large(rng):
    a = random_complex(rng, 5)
    b = random_complex(rng, 5)
    assert abs(brute_force_match(a, b).d2 - optimal_match(a, b).d2) < 1e-12
    big = random_complex(rng, BRUTE_FORCE_LIMIT + 1)
    with pytest.raises(ValueError):
        brute_force_match(big, big)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        optimal_match([1.0, 2.0], [1.0])


def test_metric_symmetry(rng):
    for _ in range(20):
        a = random_complex(rng, 6)
        b = random_complex(rng, 6)
        assert abs(optimal_match(a, b).d2 - optimal_match(b, a).d2) < 1e-12


def test_translation_covariance(rng):
    for _ in range(20):
        a = random_complex(rng, 5)
        b = random_complex(rng, 5)
        shift = complex(rng.standard_normal(), rng.standard_normal())
        d0 = optimal_match(a, b).d2
        d1 = optimal_match(a + shift, b + shift).d2
        assert abs(d0 - d1) < 1e-12 * (1.0 + d0)


def test_d_inf_never_exceeds_d2(rng):
    for _ in range(20):
        a = random_complex(rng, 6)
        b = random_complex(rng, 6)
        m = optimal_match(a, b)
        assert m.d_inf <= m.d2 + 1e-15
        # d_inf is the largest single displacement under the same pairing
        worst = max(abs(b[j] - a[i]) for i, j in enumerate(m.permutation))
        assert abs(m.d_inf - worst) < 1e-15


def test_matching_beats_identity_pairing(rng):
    for _ in range(10):
        a = random_complex(rng, 6)
        b = random_complex(rng, 6)
        identity_cost = math.sqrt(float(np.sum(np.abs(b - a) ** 2)))
        assert optimal_match(a, b).d2 <= identity_cost + 1e-15


def test_normal_pair_ground_truth(rng):
    # for two normal matrices the spectral distance is at most the
    # Frobenius distance between the matrices
    for _ in range(25):
        n = int(rng.integers(2, 9))
        a = haar_rotated_diagonal(rng, n)
        b = haar_rotated_diagonal(rng, n)
        d2 = optimal_match(np.linalg.eigvals(a), np.linalg.eigvals(b)).d2
        gap = frobenius_norm(b - a)
        assert d2 <= gap + 1e-8 * (1.0 + frobenius_norm(a) + frobenius_norm(b))


def test_degenerate_costs_still_give_unique_value():
    # many equal costs: vertices of a square against its own rotation
    a = np.array([1, 1j, -1, -1j], dtype=complex)
    b = a * np.exp(0.25j * np.pi)
    m = optimal_match(a, b)
    s = brute_force_match(a, b)
    assert abs(m.d2 - s.d2) < 1e-14


def _repeated_spectra(rng, k, n):
    # each row draws from three values, so eigenvalues repeat within and
    # across the two spectra and many pairings tie
    pool = random_complex(rng, (k, 3))
    return np.take_along_axis(pool, rng.integers(0, 3, size=(k, n)), axis=1)


@pytest.mark.parametrize("repeated", [False, True])
def test_stacked_match_equals_row_by_row_bit_for_bit(rng, repeated):
    for n in (1, 2, 5, 12):
        if repeated:
            a, b = _repeated_spectra(rng, 40, n), _repeated_spectra(rng, 40, n)
        else:
            a, b = random_complex(rng, (40, n)), random_complex(rng, (40, n))
        stacked = optimal_match(a, b)
        assert stacked.permutation.shape == (40, n)
        assert stacked.d2.shape == stacked.d_inf.shape == (40,)
        for i in range(40):
            row = optimal_match(a[i], b[i])
            assert isinstance(row.permutation, tuple) and isinstance(row.d2, float)
            assert repr(row.d2) == repr(stacked.d2[i].item())
            assert repr(row.d_inf) == repr(stacked.d_inf[i].item())
            assert row.permutation == tuple(stacked.permutation[i].tolist())
            # and the scalar formula of a single pair
            cost = np.abs(b[i][None, :] - a[i][:, None]) ** 2
            terms = cost[np.arange(n), list(row.permutation)]
            assert repr(row.d2) == repr(math.sqrt(float(terms.sum())))


def _same_bits(x, y) -> bool:
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("k", [1, 20])
def test_the_core_matcher_is_optimal_match_bit_for_bit(rng, k):
    # the catalog core matches through bounds.optimal_match, optimal_match
    # without its checks; on every stack it takes (spectra (k, n), the
    # second a diagonal view of a stack of factors) it must give the
    # public matcher's bits, exactly tied costs included: repeated values,
    # and pairs of constant spectra, whose costs are all equal
    for n in range(2, 13):
        ones = np.ones((k, n), dtype=complex)
        spectra = [
            (random_complex(rng, (k, n)), random_complex(rng, (k, n, n)).diagonal(0, 1, 2)),
            (_repeated_spectra(rng, k, n), _repeated_spectra(rng, k, n)),
            (ones, 1j * ones),
            (0 * ones, 0 * ones),
        ]
        for a, b in spectra:
            core, public = bounds.optimal_match(a, b), optimal_match(a, b)
            assert np.array_equal(core.permutation, public.permutation), n
            assert _same_bits(core.d2, public.d2) and _same_bits(core.d_inf, public.d_inf), n
            if k == 1:
                one = optimal_match(a[0], b[0])
                assert one.permutation == tuple(core.permutation[0].tolist())
                assert _same_bits(one.d2, core.d2) and _same_bits(one.d_inf, core.d_inf)


def test_stacked_brute_force_equals_row_by_row(rng):
    a, b = _repeated_spectra(rng, 6, 5), _repeated_spectra(rng, 6, 5)
    stacked = brute_force_match(a, b)
    for i in range(6):
        row = brute_force_match(a[i], b[i])
        assert row.permutation == tuple(stacked.permutation[i].tolist())
        assert repr(row.d2) == repr(stacked.d2[i].item())


@pytest.mark.parametrize(
    "a, b",
    [
        (np.zeros((3, 4)), np.zeros((3, 5))),
        (np.zeros((3, 4)), np.zeros((2, 4))),
        (np.zeros((3, 4)), np.zeros(4)),
        (np.zeros((3, 0)), np.zeros((3, 0))),
        (np.zeros((0, 4)), np.zeros((0, 4))),
        (np.zeros((2, 2, 2)), np.zeros((2, 2, 2))),
        ([], []),
        (np.array([[1.0, np.nan]]), np.zeros((1, 2))),
        (np.zeros((2, 2)), np.array([[1.0, 2.0], [np.inf, 0.0]])),
        ([1.0, np.inf], [0.0, 0.0]),
    ],
)
def test_bad_stacks_are_rejected(a, b):
    with pytest.raises(ValueError):
        optimal_match(a, b)
    with pytest.raises(ValueError):
        brute_force_match(a, b)
