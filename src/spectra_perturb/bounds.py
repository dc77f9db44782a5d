"""Catalog of spectral-distance bounds and triangular-excess estimates.

A :class:`PerturbationCase` is a normal matrix ``a``, a free
perturbation ``e``, and an ordered Schur form of ``a + e``, held once as
a stack of one case.  The catalog evaluates every known Frobenius bound
on the optimal-matching distance between the two spectra, plus
upper/lower estimates of the triangular excess ||strict_upper(T)||_F
that several of those bounds consume.

The pipeline has one core in two stages.  The matrix stage works on
stacks of cases of one size (``_Cases``, arrays (k, n, n)):
:func:`_make_cases` builds the ordered Schur forms of pairs scaled to
their unit scale, :func:`make_case` checks a matrix pair's case (a
generator's draws are valid by construction), and :func:`_matrix_stats`
reduces a stack to per-case numbers (norms, traces, excess, band width,
blocks, the spectrum of A and the matching distances).  The spectrum of
A is the one a generator planted where it built A from it
(``normal-blocked``, whose Schur form of A + E is planted too), and
otherwise one stacked Hermitian eigensolve: ``eigvalsh`` for a Hermitian
A, the pencil eigenbasis of ``decomp._normal_spectra`` for any other
normal A, with ``eigvals`` for the few matrices whose pencil residual is
too large.  The scalar stage, :func:`_evaluate_block`, runs every
catalog formula as one array expression over a block of such numbers,
which may gather stacks of several sizes, at unit scale, verdicts
included; :meth:`_Stats.to_caller_units` then scales the reported
numbers back.  Only the LAPACK calls of the Schur decomposition and its
reorder, and the assignment solver for ``d2``, run matrix by matrix.
Campaigns feed the core blocks of every size; :func:`evaluate_all` on a
case of :func:`~spectra_perturb.ensembles.random_case` is a block of one
stack of one and gives the campaign trial's bits.  :func:`make_case`
never carries a planted spectrum, so on a ``normal-blocked`` draw's
matrices it computes the spectrum of A and agrees to rounding.

The catalog is written as the paper's table.  Each of the 27 distance
bounds is a row ``(id, family, requires_hermitian, shape, constant,
scale)``: one of five shapes, evaluated in its family's constant c and a
scale x (||E||_F, delta(E), delta(A) or the mix of ||A||_F and the
spectral norm of A), with Delta the triangular excess:

======  ========================================
norm    sqrt(1 + c) ||E||_F
square  sqrt(||E||_F^2 + c x^2)
cross   sqrt(||E||_F^2 + sqrt(1 + c) x Delta)
plus    sqrt(||E||_F^2 + 2 x Delta + Delta^2)
minus   sqrt(||E||_F^2 + 2 sqrt(c) x Delta - Delta^2)
======  ========================================

Only the four excess estimates have formulas of their own.  The
Hermitian-only entries run exactly on the cases whose A is Hermitian.

Catalog entries carry stable string ids (``eq_1_4`` ... ``thm_4_3_b``)
used by the command-line tools and by campaign CSV columns.  The ids are
wire-format identifiers; treat them as opaque.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .decomp import (
    SchurForm,
    _block_boundaries,
    _block_sizes,
    _full_rank,
    _normal_spectra,
    _ranks,
    _reorder,
    _schur_factors,
    _strict_upper_parts,
)
# the core's one matching call point, which tests wrap: optimal_match on trusted stacks
from .matching import _stack_match as optimal_match
from .matrices import (
    _ENTRY_EXPONENT_LIMIT,
    _TOLERANCES,
    _commutator_defects,
    _commutators,
    _degree_one,
    _fro_norms,
    _is_hermitian,
    _is_normal,
    _largest,
    _scaled,
    _unit_exponents,
    as_matrix,
    frobenius_norm,
    is_normal,
)
from .quantities import _band_widths, _deltas, _square, _trace_moduli

__all__ = [
    "NumericalConsistencyError",
    "PerturbationCase",
    "make_case",
    "BoundValue",
    "BoundReport",
    "CATALOG_IDS",
    "D2_BOUND_IDS",
    "catalog_entries",
    "family_of",
    "henrici_delta_upper",
    "sun_delta_lower",
    "rotated_perturbation",
    "rotated_perturbation_residual",
    "evaluate_all",
]

FAMILY_BASELINE = "baseline"
FAMILY_BANDWIDTH = "lemma_3_4"
FAMILY_BANDWIDTH_BASE = "lemma_3_5"
FAMILY_WORST_CASE = "theorem_3_6"
FAMILY_BLOCK = "theorem_3_10"
FAMILY_HERMITIAN = "theorem_4_2"
FAMILY_DELTA_ESTIMATE = "delta_estimate"


class NumericalConsistencyError(ArithmeticError):
    """A radicand that is nonnegative in exact arithmetic came out
    negative beyond round-off slack, so the case data is inconsistent.
    ``entry`` is the index of the offending case in its stack (0 for one
    case).  The message gives the radicand and the slack at the case's
    unit scale, where they were computed."""

    def __init__(self, message: str, entry: int = 0):
        super().__init__(message)
        self.entry = entry


def _safe_sqrt(radicand, slack, context: str, on=True):
    """Elementwise square root of radicands that are nonnegative in
    exact arithmetic.  A negative radicand within ``slack`` (a radicand
    row of ``_TOLERANCES``) is round-off and clamps to zero; one beyond
    it raises, naming its entry, unless ``on`` is false there (an entry
    whose value is not reported)."""
    radicand = np.asarray(radicand, dtype=np.float64)
    negative = radicand < 0.0
    if negative.any():
        slack = np.broadcast_to(slack, radicand.shape)
        bad = np.flatnonzero(negative & (radicand < -slack) & on)
        if bad.size:
            i = int(bad[0])
            where = f" (entry {i})" if radicand.ndim else ""
            raise NumericalConsistencyError(
                f"{context}{where}: radicand {radicand.flat[i]:.3e} is negative beyond round-off "
                f"slack {slack.flat[i]:.3e}, both at the case's unit scale (largest entry in [1, 4))",
                entry=i,
            )
        radicand = np.where(negative, 0.0, radicand)
    return np.sqrt(radicand)


# ---------------------------------------------------------------------------
# cases


@dataclass(eq=False)
class _Cases:
    """k cases of one size as stacks (k, n, n), the caller's pair 2^p (a, e)
    with p the ``exponent`` (k,), and their Frobenius norms (k,) each.
    ``q`` and ``t`` are the ordered Schur factors of ``a_tilde`` (each
    matrix Fortran ordered), ``boundaries`` (k, n - 1) flags the ends of
    the eigenvalue blocks of ``t``.  ``spectrum`` (k, n), at the same unit
    scale, is the spectrum of ``a`` = q diag(spectrum) q* that a generator
    planted with ``q`` and ``t``, or None where it is to be computed."""

    a: np.ndarray
    e: np.ndarray
    a_tilde: np.ndarray
    a_norm: np.ndarray
    e_norm: np.ndarray
    tilde_norm: np.ndarray
    q: np.ndarray
    t: np.ndarray
    boundaries: np.ndarray
    hermitian: np.ndarray
    exponent: np.ndarray
    spectrum: np.ndarray | None

    @property
    def n(self) -> int:
        return self.a.shape[-1]

    @property
    def eigenvalues(self) -> np.ndarray:
        """The spectra (k, n) of the ``a_tilde``: the diagonals of ``t``."""
        return self.t.diagonal(0, 1, 2)


class PerturbationCase:
    """A matrix pair (A, A + E) with an ordered Schur form of A + E.

    A case is a read-only view of its stack of one, built by
    :func:`make_case` (or :func:`~spectra_perturb.ensembles.random_case`
    and :func:`~spectra_perturb.ensembles.fixture`); every attribute is a
    property of that stack.  ``a_is_normal`` is always true, since
    :func:`make_case` refuses a non-normal ``a``; ``a_is_hermitian`` may
    be either.  Its matrices are scaled back to the caller's units.
    """

    __slots__ = ("_cases",)

    a_is_normal = True

    def __init__(self, cases: _Cases):
        self._cases = cases

    def _unscaled(self, stack: np.ndarray) -> np.ndarray:
        m = _scaled(stack[:1], self._cases.exponent)[0]
        m.flags.writeable = False
        return m

    a = property(lambda self: self._unscaled(self._cases.a))
    e = property(lambda self: self._unscaled(self._cases.e))
    a_tilde = property(lambda self: self._unscaled(self._cases.a_tilde))
    n = property(lambda self: self._cases.n)
    a_is_hermitian = property(lambda self: bool(self._cases.hermitian[0]))
    schur_tilde = property(lambda self: SchurForm(q=self._cases.q[0], t=self._unscaled(self._cases.t)))
    block = property(lambda self: _block_sizes(self._cases.boundaries[0]))


def make_case(a, e) -> PerturbationCase:
    """Assemble a :class:`PerturbationCase` from a matrix pair.

    The only check of a matrix pair, in this order: ``a`` and ``e`` are
    finite, non-empty square matrices of one shape, ``a`` at its own unit
    scale is Hermitian or normal (the ``"hermitian"``, ``"normal"`` rows of
    ``matrices._TOLERANCES``), and the pair's largest entry is below 2^990
    (``matrices._ENTRY_EXPONENT_LIMIT``);
    else ValueError.  The Schur form of ``a + e`` is reordered into the
    canonical eigenvalue order, and blocks are detected on its factor.
    """
    a = as_matrix(a, "a")
    e = as_matrix(e, "e")
    if a.shape != e.shape:
        raise ValueError(f"shape mismatch: a is {a.shape}, e is {e.shape}")
    stacks = np.empty((5, 1, *a.shape), dtype=np.complex128)
    stacks[0, 0], stacks[1, 0] = a, e
    cases = _make_cases(stacks)
    # Hermitian implies normal: a Hermitian A passes even where the
    # commutator test's tighter tolerance would reject it.
    if not (cases.hermitian[0] or is_normal(a)):
        raise ValueError("matrix A is not normal at tolerance; the catalog does not apply")
    if cases.exponent[0] >= _ENTRY_EXPONENT_LIMIT:
        raise ValueError(f"the largest real or imaginary entry of A and E is not below 2^{_ENTRY_EXPONENT_LIMIT}")
    return PerturbationCase(cases)


def _make_cases(stacks, q=None, t=None, spectrum=None) -> _Cases:
    """The unchecked cases of k matrix pairs of one size, A and E in the
    first two slots of ``stacks`` (5, k, n, n), each pair scaled exactly to
    its unit scale, with the Schur forms of A + E in the canonical order.
    The case takes ``stacks`` over: the pairs are scaled in place, and the
    other slots (scratch) take A + E and the Schur factors.  Forms given as
    exactly triangular ``(q, t)`` must be in that order already and are not
    re-sorted: they are a generator's planted forms, whose order the exact
    power-of-4 scale keeps; ``spectrum`` (k, n), given with them, is the
    spectrum of A the generator planted.  The Hermitian flags are tested at
    A's own unit scale, where a tiny A's squares cannot underflow."""
    _, k, n, _ = stacks.shape
    # the largest entries of A, then of A and E, give A's own exponent and the pair's
    own, exponent = _unit_exponents(np.maximum.accumulate(_largest(stacks[:2].reshape(-1, n, n)).reshape(2, k)))
    # A, E and A + E at the pair's unit scale, then A - A* and A at A's own,
    # all five normed in one call; the last two slots then take the Schur
    # factors q and t, each matrix Fortran ordered
    a, e, a_tilde, skew, own_a = stacks
    _scaled(a, -own, own_a)
    np.conjugate(own_a.transpose(0, 2, 1), out=skew)
    np.subtract(own_a, skew, out=skew)
    down = -exponent
    _scaled(stacks[:2], down[None], stacks[:2])
    np.add(a, e, out=a_tilde)
    a_norm, e_norm, tilde_norm, defect, own_norm = _fro_norms(stacks.reshape(-1, n, n)).reshape(5, k)
    hermitian = _is_hermitian(defect, own_norm)
    factors = stacks[3:].transpose(0, 1, 3, 2)
    if q is None:
        _reorder(*_schur_factors(a_tilde, out=factors))
    else:
        factors[0], factors[1] = q, _scaled(t, down)
        spectrum = _scaled(spectrum, down)
        spectrum.flags.writeable = False
    # a case's arrays are never written again; an in-place write by a
    # caller would leave what was derived from them stale
    stacks.flags.writeable = False
    a, e, a_tilde = stacks[:3]
    q, t = stacks[3:].transpose(0, 1, 3, 2)
    return _Cases(
        a=a,
        e=e,
        a_tilde=a_tilde,
        a_norm=a_norm,
        e_norm=e_norm,
        tilde_norm=tilde_norm,
        q=q,
        t=t,
        boundaries=_block_boundaries(t),
        hermitian=hermitian,
        exponent=exponent,
        spectrum=spectrum,
    )


def _rotated(q: np.ndarray, e: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Q* E Q of each pair of a stack, into ``out`` if given, with Q* E
    taken into ``scratch`` if given."""
    return np.matmul(np.matmul(q.conj().transpose(0, 2, 1), e, out=scratch), q, out=out)


def rotated_perturbation(case: PerturbationCase) -> np.ndarray:
    """The perturbation expressed in the Schur basis of A + E."""
    return _rotated(case.schur_tilde.q[None], case.e[None])[0]


def rotated_perturbation_residual(case: PerturbationCase) -> float:
    """||Q* E Q - strict_upper(T)||_F, the part of the rotated
    perturbation not explained by the triangular excess."""
    return frobenius_norm(rotated_perturbation(case) - np.triu(case.schur_tilde.t, 1))


# ---------------------------------------------------------------------------
# shared per-case quantities


def _matrix_stats(cases: _Cases) -> dict:
    """The matrix work on one stack: every per-case number that the
    catalog and the campaign checks read, one array entry per case.

    ``lam_a``, the spectrum of A, is the stack's planted ``spectrum``
    where it carries one; else it is computed from A alone, so that a
    pair evaluated on its own gets the same spectrum.  Since A is normal,
    ``radius`` = max |lam_a| is its spectral norm.  ``w`` is 0 where Q*EQ =
    T - diag(spectrum) is planted upper triangular.  The rank of A + E and
    ``||K||_F``, ``|tr K|`` of the skew parts K = M - M* of M = A + E
    and M = E are computed only for the cases with a Hermitian A, whose
    Hermitian-only entries read them, and are 0 elsewhere.  Every rank is
    the SVD count; the SVD runs only where the ordered Schur factor does
    not certify rank n (:func:`decomp._full_rank`)."""
    n, k = cases.n, len(cases.a)
    hermitian = cases.hermitian
    lam_a = cases.spectrum
    if lam_a is None:
        lam_a = np.empty(cases.eigenvalues.shape, dtype=np.complex128)
        for rows, eigensolve in ((hermitian, np.linalg.eigvalsh), (~hermitian, _normal_spectra)):
            if rows.any():
                rows = slice(None) if rows.all() else rows  # the stack itself, not a copy
                lam_a[rows] = eigensolve(cases.a[rows])
    match = optimal_match(lam_a, cases.eigenvalues)
    upper, commutator, *rotated = work = np.empty((3 if cases.spectrum is None else 2, k, n, n), dtype=np.complex128)
    # a slot not yet filled takes each inner product, so that the stage
    # holds no more than the buffer and one conjugate stack
    if rotated:
        _rotated(cases.q, cases.e, out=rotated[0], scratch=commutator)
    _commutators(cases.a_tilde, out=commutator, scratch=upper)
    _strict_upper_parts(cases.t, out=upper)
    excess, defect, *rotated_norm = _fro_norms(work.reshape(-1, n, n)).reshape(len(work), k)
    w = (_band_widths(rotated[0], _TOLERANCES["band"](rotated_norm[0]), lower=True) if rotated
         else np.zeros(k, dtype=int))
    del rotated, upper, commutator, work  # before the rank and skew work, whose temporaries are as large
    rank = np.zeros(k, dtype=int)
    skew = np.zeros((2, 2, k))  # ||K||_F, then |tr K|, for M = A + E and for M = E
    if hermitian.any():
        rank[hermitian] = n
        rows = slice(None) if hermitian.all() else hermitian  # the stack itself, not a copy
        open_rows = np.flatnonzero(hermitian)[~_full_rank(cases.t[rows])]
        if open_rows.size:
            rank[open_rows] = _ranks(cases.a_tilde[open_rows])
        parts = _skew_parts(cases.a_tilde[rows], cases.e[rows])
        skew[:, :, hermitian] = _fro_norms(parts).reshape(2, -1), _trace_moduli(parts).reshape(2, -1)
    return {
        "n": np.full(k, n),
        "exponent": cases.exponent,
        "hermitian": hermitian,
        "d2": match.d2,
        "d_inf": match.d_inf,
        "e_norm": cases.e_norm,
        "e_trace": _trace_moduli(cases.e),
        "a_norm": cases.a_norm,
        "a_trace": _trace_moduli(cases.a),
        "tilde_norm": cases.tilde_norm,
        "excess": excess,
        "w": w,
        "s": 1 + cases.boundaries.sum(axis=1),
        "radius": np.abs(lam_a).max(axis=1),
        "defect": defect,
        "henrici": np.full(k, _henrici_factor(n)),
        "rank": rank,
        "skew_tilde_norm": skew[0, 0],
        "skew_tilde_trace": skew[1, 0],
        "skew_e_norm": skew[0, 1],
        "skew_e_trace": skew[1, 1],
    }


def _skew_parts(*stacks: np.ndarray) -> np.ndarray:
    """The skew parts K = M - M* of each matrix M of each of s stacks
    (k, n, n), in one C-ordered buffer (s k, n, n)."""
    k, n, _ = stacks[0].shape
    skew = np.empty((len(stacks), k, n, n), dtype=np.complex128)
    for m, part in zip(stacks, skew):
        np.conjugate(m.transpose(0, 2, 1), out=part)
        np.subtract(m, part, out=part)
    return skew.reshape(-1, n, n)


class _Stats:
    """The per-case results of a block of k cases, which may differ in
    size, one array entry per case; no matrix is held, so a block's
    memory does not grow with its largest size.  ``_Stats(k, stacks)``
    holds the columns of :func:`_matrix_stats` for each ``(rows, cases)``
    stack, in block row order, and the quantities derived from them.
    :func:`_evaluate_block` adds the catalog's ``values`` (k, entries),
    NaN where not ``applicable``, ``applicable`` and ``violated``, and
    ``campaigns._run_chunk`` the campaign's columns.  Every column and
    verdict is computed at the cases' unit scale; only
    :meth:`to_caller_units`, called once the verdicts are made, scales the
    ``CALLER_UNITS`` back."""

    # the numbers reported outside the core, the only ones scaled back
    CALLER_UNITS = ("d2", "d_inf", "values", "e_norm", "excess")

    def __init__(self, k: int, stacks):
        rows, parts = [], []
        for where, cases in stacks:
            rows.append(np.arange(k)[where])
            parts.append(_matrix_stats(cases))
        order = np.argsort(np.concatenate(rows))  # the stacked entry of each block row
        for name in parts[0]:
            setattr(self, name, np.concatenate([part[name] for part in parts])[order])
        self.e2 = _square(self.e_norm)
        self.delta_e = _deltas(self.e_norm, self.e_trace, self.n)
        self.delta_a = _deltas(self.a_norm, self.a_trace, self.n)
        self.mix = np.minimum(self.a_norm, np.sqrt(self.n - 1) * self.radius)
        self.tilde_is_normal = _is_normal(self.defect, self.tilde_norm)
        # what the catalog's shapes read, each computed once per block
        self.constants = {name: constant(self) for name, constant in _CONSTANTS.items()}
        self.squares = {name: _square(getattr(self, name)) for name in ("excess", "delta_e", "delta_a")}
        self.radicand_slack = _TOLERANCES["distance_radicand"](self.e2, self.squares["excess"])

    def to_caller_units(self) -> None:
        """Scale the ``CALLER_UNITS`` back exactly to each caller's units."""
        for name in self.CALLER_UNITS:
            setattr(self, name, _scaled(getattr(self, name), self.exponent))


# ---------------------------------------------------------------------------
# catalog


@dataclass(frozen=True)
class _Entry:
    id: str
    family: str
    requires_hermitian: bool
    depends_on_schur_choice: bool


# The paper's distance bounds as its table: (id, family,
# requires_hermitian, shape, constant, scale).  A bound is one of the
# five ``_SHAPES`` in its family's constant c (``_CONSTANTS``) and a
# scale x, the ``_Stats`` field named.  Catalog order is the report
# order and the campaign CSV column order.
_DISTANCE_BOUNDS = (
    ("hoffman_wielandt", FAMILY_BASELINE, False, "norm", "0", "e_norm"),
    ("eq_1_4", FAMILY_BASELINE, False, "norm", "n-1", "e_norm"),
    ("eq_1_5", FAMILY_BASELINE, False, "norm", "n-s", "e_norm"),
    ("eq_1_6", FAMILY_BASELINE, True, "norm", "1", "e_norm"),
    ("eq_1_7", FAMILY_BASELINE, False, "minus", "1", "mix"),
    ("eq_1_8", FAMILY_BASELINE, True, "cross", "1", "e_norm"),
    ("eq_1_9", FAMILY_BASELINE, True, "minus", "1", "e_norm"),
    ("eq_3_3a", FAMILY_BANDWIDTH, False, "square", "w", "delta_e"),
    ("eq_3_3b", FAMILY_BANDWIDTH, False, "cross", "w", "delta_e"),
    ("eq_3_3c", FAMILY_BANDWIDTH, False, "plus", "w", "delta_e"),
    ("eq_3_3d", FAMILY_BANDWIDTH, False, "minus", "w", "delta_e"),
    ("eq_3_4a", FAMILY_BANDWIDTH_BASE, False, "square", "w/(1+w)", "delta_a"),
    ("eq_3_4b", FAMILY_BANDWIDTH_BASE, False, "minus", "w/(1+w)", "delta_a"),
    ("eq_3_5a", FAMILY_WORST_CASE, False, "square", "n-1", "delta_e"),
    ("eq_3_5b", FAMILY_WORST_CASE, False, "cross", "n-1", "delta_e"),
    ("eq_3_5c", FAMILY_WORST_CASE, False, "plus", "n-1", "delta_e"),
    ("eq_3_5d", FAMILY_WORST_CASE, False, "minus", "n-1", "delta_e"),
    ("eq_3_5e", FAMILY_WORST_CASE, False, "square", "(n-1)/n", "delta_a"),
    ("eq_3_5f", FAMILY_WORST_CASE, False, "minus", "(n-1)/n", "delta_a"),
    ("eq_3_11a", FAMILY_BLOCK, False, "square", "n-s", "delta_e"),
    ("eq_3_11b", FAMILY_BLOCK, False, "cross", "n-s", "delta_e"),
    ("eq_3_11c", FAMILY_BLOCK, False, "minus", "n-s", "delta_e"),
    ("eq_4_6a", FAMILY_HERMITIAN, True, "square", "1", "delta_e"),
    ("eq_4_6b", FAMILY_HERMITIAN, True, "cross", "1", "delta_e"),
    ("eq_4_6c", FAMILY_HERMITIAN, True, "minus", "1", "delta_e"),
    ("eq_4_6d", FAMILY_HERMITIAN, True, "square", "1/2", "delta_a"),
    ("eq_4_6e", FAMILY_HERMITIAN, True, "minus", "1/2", "delta_a"),
)

# The family constants, one number or one entry per case.  A bound
# depends on the choice of Schur form exactly when its constant reads w.
_CONSTANTS = {
    "0": lambda st: 0,
    "1": lambda st: 1,
    "1/2": lambda st: 0.5,
    "n-1": lambda st: st.n - 1,
    "(n-1)/n": lambda st: (st.n - 1) / st.n,
    "n-s": lambda st: st.n - st.s,
    "w": lambda st: st.w,
    "w/(1+w)": lambda st: st.w / (1.0 + st.w),
}

# The five shapes in the constant c, the scale x and the triangular
# excess d, with x2 and d2 their squares (``_Stats.squares``).  ``norm``
# is the bound itself; every other shape is the radicand r of
# sqrt(||E||_F^2 + r).  A coefficient is computed before it meets x, so
# each bound keeps the operation order of its scalar form and its bits:
# sqrt(1 + 0) x = x, sqrt(1 + (n - 1)) = sqrt(n) and 2 sqrt(1/2) =
# sqrt(2) hold exactly.
_SHAPES = {
    "norm": lambda c, x, x2, d, d2: np.sqrt(1.0 + c) * x,
    "square": lambda c, x, x2, d, d2: c * x2,
    "cross": lambda c, x, x2, d, d2: np.sqrt(1.0 + c) * x * d,
    "plus": lambda c, x, x2, d, d2: 2.0 * x * d + d2,
    "minus": lambda c, x, x2, d, d2: 2.0 * np.sqrt(c) * x * d - d2,
}


def _distance_bound(bound_id: str, shape: str, constant: str, scale: str, st: _Stats, on):
    """A row of ``_DISTANCE_BOUNDS`` on a stack; a radicand negative
    beyond round-off is an error only where ``on`` (the entry applies)."""
    value = _SHAPES[shape](st.constants[constant], getattr(st, scale), st.squares.get(scale), st.excess,
                           st.squares["excess"])
    if shape == "norm":
        return value
    return _safe_sqrt(st.e2 + value, st.radicand_slack, bound_id, on)


# The triangular-excess estimates, each with its own formula:
# (id, requires_hermitian, value function (st, on)).
_EXCESS_ESTIMATES = (
    ("henrici_3_6", False, lambda st, on: st.henrici * np.sqrt(st.defect)),
    ("sun_3_7", False, lambda st, on: _sun(st.tilde_norm, st.defect)),
    ("thm_4_3_a", True, lambda st, on: _skew_delta_bound(st.skew_tilde_norm, st.skew_tilde_trace, st.rank, on)),
    ("thm_4_3_b", True, lambda st, on: _skew_delta_bound(st.skew_e_norm, st.skew_e_trace, st.rank, on)),
)

# Hypotheses beyond a normal A (a Hermitian one for the entries that
# require it), one flag per case of a stack: Hoffman-Wielandt needs a
# normal A + E, and the skew bounds divide by the rank of A + E.
_HYPOTHESES = {
    "hoffman_wielandt": lambda st: st.tilde_is_normal,
    "thm_4_3_a": lambda st: st.tilde_norm > 0.0,
    "thm_4_3_b": lambda st: st.tilde_norm > 0.0,
}

_CATALOG: tuple[_Entry, ...] = tuple(
    _Entry(bound_id, family, hermitian, "w" in constant)
    for bound_id, family, hermitian, _, constant, _ in _DISTANCE_BOUNDS
) + tuple(
    _Entry(bound_id, FAMILY_DELTA_ESTIMATE, hermitian, False)
    for bound_id, hermitian, _ in _EXCESS_ESTIMATES
)

# One value function (st, on) per catalog column.
_FORMULAS = tuple(
    partial(_distance_bound, bound_id, shape, constant, scale)
    for bound_id, _, _, shape, constant, scale in _DISTANCE_BOUNDS
) + tuple(value for _, _, value in _EXCESS_ESTIMATES)

CATALOG_IDS: tuple[str, ...] = tuple(entry.id for entry in _CATALOG)
D2_BOUND_IDS: tuple[str, ...] = tuple(
    entry.id for entry in _CATALOG if entry.family != FAMILY_DELTA_ESTIMATE
)

_BY_ID = {entry.id: entry for entry in _CATALOG}
_IS_D2_BOUND = np.array([entry.family != FAMILY_DELTA_ESTIMATE for entry in _CATALOG])


def catalog_entries() -> tuple[dict, ...]:
    """Metadata for every catalog entry, in report order."""
    return tuple(dataclasses.asdict(entry) for entry in _CATALOG)


def family_of(bound_id: str) -> str:
    try:
        return _BY_ID[bound_id].family
    except KeyError:
        raise KeyError(f"unknown bound id {bound_id!r}") from None


# ---------------------------------------------------------------------------
# triangular-excess estimates (matrix level)


def henrici_delta_upper(m) -> float:
    """((n^3 - n) / 12)^(1/4) * sqrt(||M M* - M* M||_F): an upper bound
    on the triangular excess of any Schur form of M."""
    return _degree_one(m, lambda unit: _henrici_factor(unit.shape[-1]) * np.sqrt(_commutator_defects(unit)))


def sun_delta_lower(m) -> float:
    """sqrt(||M||_F^2 - sqrt(||M||_F^4 - d^2 / 2)), d = ||M M* - M* M||_F,
    evaluated as sqrt((d^2 / 2) / (||M||_F^2 + sqrt(||M||_F^4 - d^2 / 2))):
    a lower bound on the triangular excess of any Schur form of M."""
    return _degree_one(m, lambda unit: _sun(_fro_norms(unit), _commutator_defects(unit)))


def _henrici_factor(n: int) -> float:
    """((n^3 - n) / 12)^(1/4) as a Python float (libm pow): a numpy power
    of an array may round differently."""
    return ((n**3 - n) / 12.0) ** 0.25


def _sun(nrm: np.ndarray, defect: np.ndarray) -> np.ndarray:
    """:func:`sun_delta_lower` on stacks, from ||M||_F and the defect d.
    The difference ||M||_F^2 - sqrt(...) cancels where the excess is
    small; the quotient's sum does not."""
    nrm2 = _square(nrm)
    nrm4 = _square(nrm2)
    half = 0.5 * _square(defect)
    inner = _safe_sqrt(nrm4 - half, _TOLERANCES["radicand"](nrm4), "sun_3_7 inner radicand")
    total = nrm2 + inner  # 0 only where M = 0, whose estimate is 0
    return np.sqrt(np.divide(half, total, out=np.zeros_like(total), where=total > 0.0))


def _skew_delta_bound(nrm: np.ndarray, trace: np.ndarray, r: np.ndarray, on: np.ndarray) -> np.ndarray:
    """(1/sqrt(2)) * sqrt(||K||_F^2 - |tr K|^2 / r) for the skew parts
    K = M - M* of a block, from ``||K||_F`` and ``|tr K|``, r >= 1 the
    numerical rank of A + E where ``on``."""
    nrm2 = _square(nrm)
    radicand = nrm2 - _square(trace) / np.maximum(r, 1)
    return _safe_sqrt(radicand, _TOLERANCES["radicand"](nrm2), "thm_4_3", on) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# full evaluation


def _as_dict(fields) -> dict:
    """A dataclass's fields as a fresh dict, its tuples as lists: the
    ``as_dict`` of :class:`BoundReport` and ``CampaignSummary``."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in dataclasses.asdict(fields).items()}


@dataclass(frozen=True)
class BoundValue:
    """One evaluated catalog entry.  ``value`` is None exactly when the
    entry is not applicable to the case."""

    id: str
    family: str
    value: float | None
    applicable: bool
    requires_hermitian: bool
    depends_on_schur_choice: bool


@dataclass(frozen=True)
class BoundReport:
    """Everything the catalog knows about one case: the true matching
    distances and every bound, in catalog order.  ``violations`` lists
    ids of applicable distance bounds that fell below d2 by more than
    the round-off slack; excess estimates never appear there."""

    d2: float
    d_inf: float
    bounds: tuple[BoundValue, ...]
    violations: tuple[str, ...]

    def value_of(self, bound_id: str) -> float | None:
        for bv in self.bounds:
            if bv.id == bound_id:
                return bv.value
        raise KeyError(f"unknown bound id {bound_id!r}")

    def as_dict(self) -> dict:
        """The fields as a fresh dict, the tuples as lists."""
        return _as_dict(self)


def _evaluate_block(k: int, stacks) -> _Stats:
    """The stats of a block of k cases given as ``(rows, cases)`` stacks
    (see :class:`_Stats`), with the full catalog and the violation verdict
    evaluated on them, all at the cases' unit scale: the matrix work runs
    stack by stack, the catalog once on the block.  The Hermitian-only
    entries run on the cases with a Hermitian A; a
    NumericalConsistencyError names its case by block row."""
    st = _Stats(k, stacks)
    st.values = np.full((k, len(_CATALOG)), np.nan)
    st.applicable = np.zeros((k, len(_CATALOG)), dtype=bool)
    everywhere = np.ones(k, dtype=bool)
    for col, (entry, formula) in enumerate(zip(_CATALOG, _FORMULAS)):
        on = st.hermitian if entry.requires_hermitian else everywhere
        if entry.id in _HYPOTHESES:
            on = on & _HYPOTHESES[entry.id](st)
        if on.any():
            st.values[:, col] = formula(st, on)
            st.applicable[:, col] = on
    st.values[~st.applicable] = np.nan
    tol = _TOLERANCES["violation"](st.a_norm, st.e_norm)
    st.violated = st.applicable & _IS_D2_BOUND & (st.values < (st.d2 - tol)[:, None])
    return st


def evaluate_all(case: PerturbationCase) -> BoundReport:
    """Evaluate the full catalog against the true matching distance.

    The Hermitian-only entries run exactly when the case's base matrix
    is Hermitian; on any other base they are reported as not applicable,
    since their hypotheses fail.  A distance bound is a violation when
    it falls below d2 by more than the ``"violation"`` row of
    ``matrices._TOLERANCES``.
    """
    st = _evaluate_block(1, [(slice(None), case._cases)])
    st.to_caller_units()
    bounds = tuple(
        BoundValue(**dataclasses.asdict(entry), value=value if applicable else None, applicable=applicable)
        for entry, value, applicable in zip(_CATALOG, st.values[0].tolist(), st.applicable[0].tolist())
    )
    return BoundReport(
        d2=float(st.d2[0]),
        d_inf=float(st.d_inf[0]),
        bounds=bounds,
        violations=tuple(CATALOG_IDS[j] for j in np.flatnonzero(st.violated[0])),
    )
