"""Exact minimum-cost matching between two spectra.

The distance of interest is the l2 distance between spectra minimized
over all pairings.  ``optimal_match`` solves the assignment problem
exactly in O(n^3); ``brute_force_match`` enumerates all permutations and
serves as the independent oracle for small n.  Both take a pair of
spectra or a pair of stacks (k, n) of them: the cost matrices of a stack
are built in one broadcast, the assignment runs matrix by matrix, and
the distances are gathered for the whole stack, so a pair of spectra is
the stack of one, bit for bit.
"""

from __future__ import annotations

import itertools
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
    For a pair of spectra the permutation is a tuple and the distances
    are floats; for a pair of stacks (k, n) they are arrays (k, n) and
    (k,), one row or entry per pair.
    """

    permutation: tuple[int, ...] | np.ndarray
    d2: float | np.ndarray
    d_inf: float | np.ndarray


def _as_stack(spec: np.ndarray, name: str, one: bool) -> np.ndarray:
    if one:
        return as_spectrum(spec, name)[None]
    if spec.ndim != 2:
        raise ValueError(f"{name} must be a spectrum or a stack (k, n) of spectra, got shape {spec.shape}")
    return as_spectrum(spec, name).reshape(spec.shape)


def _cost_stack(spec_a, spec_b) -> tuple[np.ndarray, bool]:
    """The squared distances (k, n, n) between the eigenvalues of each
    pair, and whether the input was one pair of spectra (a stack of one)."""
    a = np.asarray(spec_a, dtype=np.complex128)
    b = np.asarray(spec_b, dtype=np.complex128)
    one = a.ndim < 2 and b.ndim < 2
    a = _as_stack(a, "first spectrum", one)
    b = _as_stack(b, "second spectrum", one)
    if a.shape != b.shape:
        if one:
            raise ValueError(f"spectrum length mismatch: {a.size} vs {b.size}")
        raise ValueError(f"spectrum stack shape mismatch: {a.shape} vs {b.shape}")
    return np.abs(b[:, None, :] - a[:, :, None]) ** 2, one


def _match(cost: np.ndarray, perm: np.ndarray, one: bool) -> SpectrumMatch:
    k, n = perm.shape
    terms = cost[np.arange(k)[:, None], np.arange(n), perm]
    d2 = np.sqrt(terms.sum(axis=1))
    d_inf = np.sqrt(terms.max(axis=1))
    if one:
        return SpectrumMatch(permutation=tuple(perm[0].tolist()), d2=float(d2[0]), d_inf=float(d_inf[0]))
    return SpectrumMatch(permutation=perm, d2=d2, d_inf=d_inf)


def optimal_match(spec_a, spec_b) -> SpectrumMatch:
    """Exact l2-optimal pairing of two equal-length spectra, or of each
    pair of two stacks (k, n) of them.

    The reported d_inf is evaluated under the l2-optimal permutation;
    it is an upper bound for the sup distance minimized on its own.
    """
    cost, one = _cost_stack(spec_a, spec_b)
    # a square problem's row indices are 0..n-1 in order
    perm = np.array([linear_sum_assignment(c)[1] for c in cost])
    return _match(cost, perm, one)


def brute_force_match(spec_a, spec_b) -> SpectrumMatch:
    """Exhaustive-permutation oracle for ``optimal_match``.

    Refuses n > 8.  Ties between permutations of equal cost are resolved
    to the lexicographically first one, so the result is deterministic.
    """
    cost, one = _cost_stack(spec_a, spec_b)
    n = cost.shape[-1]
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force matching is limited to n <= {BRUTE_FORCE_LIMIT}, got {n}")
    rows = np.arange(n)
    # min keeps the first of equal costs, in lexicographic order
    perm = np.array(
        [min(itertools.permutations(range(n)), key=lambda p: float(c[rows, p].sum())) for c in cost]
    )
    return _match(cost, perm, one)
