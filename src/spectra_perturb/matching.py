"""Exact minimum-cost matching between two spectra.

The distance of interest is the l2 distance between spectra minimized
over all pairings.  ``optimal_match`` solves the assignment problem
exactly in O(n^3); ``brute_force_match`` enumerates all permutations and
serves as the independent oracle for small n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .matrices import as_spectrum

__all__ = ["BRUTE_FORCE_LIMIT", "SpectrumMatch", "optimal_match", "brute_force_match"]

#: brute_force_match refuses more than this many eigenvalues (8! = 40320).
BRUTE_FORCE_LIMIT = 8


@dataclass(frozen=True)
class SpectrumMatch:
    """A pairing of two spectra and the distances it realizes.

    ``permutation[i]`` is the index in the second spectrum matched to
    eigenvalue i of the first; d2 is the root of the summed squared
    moduli, d_inf the largest single modulus, both under this pairing.
    """

    permutation: tuple[int, ...]
    d2: float
    d_inf: float


def _cost_matrix(spec_a, spec_b) -> np.ndarray:
    a = as_spectrum(spec_a, "first spectrum")
    b = as_spectrum(spec_b, "second spectrum")
    if a.shape != b.shape:
        raise ValueError(f"spectrum length mismatch: {a.size} vs {b.size}")
    return np.abs(b[None, :] - a[:, None]) ** 2


def _match_from_permutation(cost: np.ndarray, perm: np.ndarray) -> SpectrumMatch:
    terms = cost[np.arange(cost.shape[0]), perm]
    return SpectrumMatch(
        permutation=tuple(perm.tolist()),
        d2=math.sqrt(float(terms.sum())),
        d_inf=math.sqrt(float(terms.max())),
    )


def optimal_match(spec_a, spec_b) -> SpectrumMatch:
    """Exact l2-optimal pairing of two equal-length spectra.

    The reported d_inf is evaluated under the l2-optimal permutation;
    it is an upper bound for the sup distance minimized on its own.
    """
    cost = _cost_matrix(spec_a, spec_b)
    row, col = linear_sum_assignment(cost)
    perm = np.empty(cost.shape[0], dtype=int)
    perm[row] = col
    return _match_from_permutation(cost, perm)


def brute_force_match(spec_a, spec_b) -> SpectrumMatch:
    """Exhaustive-permutation oracle for ``optimal_match``.

    Refuses n > 8.  Ties between permutations of equal cost are resolved
    to the lexicographically first one, so the result is deterministic.
    """
    cost = _cost_matrix(spec_a, spec_b)
    n = cost.shape[0]
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force matching is limited to n <= {BRUTE_FORCE_LIMIT}, got {n}")
    rows = np.arange(n)
    best_perm = None
    best_cost = math.inf
    for perm in itertools.permutations(range(n)):
        c = float(cost[rows, perm].sum())
        if c < best_cost:
            best_cost = c
            best_perm = perm
    return _match_from_permutation(cost, np.array(best_perm))
