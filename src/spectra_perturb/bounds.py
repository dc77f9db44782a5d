"""Catalog of spectral-distance bounds and triangular-excess estimates.

A :class:`PerturbationCase` is a normal matrix ``a``, a free
perturbation ``e``, and an ordered Schur form of ``a + e``, held once as
a stack of one case.  The catalog evaluates every known Frobenius bound
on the optimal-matching distance between the two spectra, plus
upper/lower estimates of the triangular excess ||strict_upper(T)||_F
that several of those bounds consume.

The pipeline has one core, which works on stacks of cases of one size
(``_Cases``, arrays (k, n, n)): :func:`_make_cases` checks the inputs
once and builds the ordered Schur forms, and :func:`_evaluate` computes
each per-case quantity once and every catalog formula as one array
expression over the stack.  Only the LAPACK calls of the Schur
decomposition and its reorder, and the assignment solver for ``d2``,
run matrix by matrix.  Campaigns feed the core whole stacks;
:func:`make_case` and :func:`evaluate_all` are stacks of one, and give
the same bits case by case.

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
    _block_structure,
    _check_schur_forms,
    _fortran_stack,
    _ranks,
    _reorder,
    _schur_factors,
)
from .matching import optimal_match
from .matrices import (
    _commutator_defects,
    _fro_norms,
    _is_hermitian,
    _is_normal,
    as_matrix,
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
    "DELTA_ESTIMATE_IDS",
    "HERMITIAN_ONLY_IDS",
    "SCHUR_DEPENDENT_IDS",
    "catalog_entries",
    "family_of",
    "henrici_delta_upper",
    "sun_delta_lower",
    "rotated_perturbation",
    "rotated_perturbation_residual",
    "evaluate_all",
]

# Relative slack below which a negative radicand is treated as round-off
# and clamped to zero; anything more negative is a real inconsistency.
RADICAND_TOL = 1e-9

# Entry threshold, relative to ||.||_F, for bandwidth detection on
# rotated perturbations (floating-point products have no exact zeros).
W_PRODUCT_RTOL = 1e-13

# Default violation slack factor: a bound b flags as violated only when
# b < d2 - tol_factor * (1 + ||A||_F + ||E||_F).
VIOLATION_TOL_FACTOR = 1e-8

FAMILY_BASELINE = "baseline"
FAMILY_BANDWIDTH = "lemma_3_4"
FAMILY_BANDWIDTH_BASE = "lemma_3_5"
FAMILY_WORST_CASE = "theorem_3_6"
FAMILY_BLOCK = "theorem_3_10"
FAMILY_HERMITIAN = "theorem_4_2"
FAMILY_DELTA_ESTIMATE = "delta_estimate"


class NumericalConsistencyError(ArithmeticError):
    """A radicand that is nonnegative in exact arithmetic came out
    negative beyond round-off slack, so the case data is inconsistent
    (e.g. a Schur form that does not belong to ``a + e``).  ``entry`` is
    the index of the offending case in its stack (0 for one case)."""

    def __init__(self, message: str, entry: int = 0):
        super().__init__(message)
        self.entry = entry


def _safe_sqrt(radicand, scale, context: str, on=True):
    """Elementwise square root of radicands that are nonnegative in
    exact arithmetic.  A negative radicand within ``RADICAND_TOL * scale``
    is round-off and clamps to zero; one beyond it raises, naming its
    entry, unless ``on`` is false there (an entry whose value is not
    reported)."""
    radicand = np.asarray(radicand, dtype=np.float64)
    negative = radicand < 0.0
    if negative.any():
        slack = np.broadcast_to(RADICAND_TOL * scale, radicand.shape)
        bad = np.flatnonzero(negative & (radicand < -slack) & on)
        if bad.size:
            i = int(bad[0])
            where = f" (entry {i})" if radicand.ndim else ""
            raise NumericalConsistencyError(
                f"{context}{where}: radicand {radicand.flat[i]:.3e} is negative "
                f"beyond round-off slack {slack.flat[i]:.3e}",
                entry=i,
            )
        radicand = np.where(negative, 0.0, radicand)
    return np.sqrt(radicand)


def _check_tol_factor(tol_factor) -> None:
    if not (math.isfinite(tol_factor) and tol_factor > 0.0):
        raise ValueError(f"tol_factor must be finite and positive, got {tol_factor!r}")


# ---------------------------------------------------------------------------
# cases


@dataclass(eq=False)
class _Cases:
    """k cases of one size as stacks (k, n, n).  ``q`` and ``t`` are the
    ordered Schur factors of ``a_tilde`` (each matrix Fortran ordered),
    ``boundaries`` (k, n - 1) flags the ends of the eigenvalue blocks of
    ``t``."""

    a: np.ndarray
    e: np.ndarray
    a_tilde: np.ndarray
    q: np.ndarray
    t: np.ndarray
    boundaries: np.ndarray
    hermitian: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[-1]

    @property
    def eigenvalues(self) -> np.ndarray:
        """The spectra (k, n) of the ``a_tilde``: the diagonals of ``t``."""
        return np.diagonal(self.t, axis1=1, axis2=2)


class PerturbationCase:
    """A matrix pair (A, A + E) with an ordered Schur form of A + E.

    A case is a read-only view of its stack of one, built by
    :func:`make_case` (or :func:`~spectra_perturb.ensembles.random_case`
    and :func:`~spectra_perturb.ensembles.fixture`); every attribute is a
    property of that stack.  ``a_is_normal`` is always true, since
    :func:`make_case` refuses a non-normal ``a``; ``a_is_hermitian`` may
    be either.
    """

    __slots__ = ("_cases",)

    a_is_normal = True

    def __init__(self, cases: _Cases):
        self._cases = cases

    a = property(lambda self: self._cases.a[0])
    e = property(lambda self: self._cases.e[0])
    a_tilde = property(lambda self: self._cases.a_tilde[0])
    n = property(lambda self: self._cases.n)
    a_is_hermitian = property(lambda self: bool(self._cases.hermitian[0]))
    schur_tilde = property(lambda self: SchurForm(q=self._cases.q[0], t=self._cases.t[0]))
    block = property(lambda self: _block_structure(self._cases.boundaries[0]))


def make_case(a, e, *, schur: SchurForm | None = None) -> PerturbationCase:
    """Assemble a :class:`PerturbationCase` from a matrix pair.

    This is the single input check of the case pipeline: ``a`` and ``e``
    must be finite square matrices of one shape, and ``a`` must be normal
    at :data:`~spectra_perturb.matrices.STRUCTURE_TOL`, else ValueError.
    When ``schur`` is given, its q and t must be a Schur form of ``a + e``
    within :data:`~spectra_perturb.decomp.TAU_SCHUR`, else ValueError; a
    strictly lower part of t within that tolerance is set to zero, and
    the form is reordered into the canonical eigenvalue order.
    Otherwise a fresh decomposition is computed.  Eigenvalue blocks are
    detected on the ordered factor.
    """
    a = np.array(as_matrix(a, "a"), order="C")
    e = np.array(as_matrix(e, "e"), order="C")
    if a.shape != e.shape:
        raise ValueError(f"shape mismatch: a is {a.shape}, e is {e.shape}")
    factors = () if schur is None else (np.asarray(schur.q)[None], np.asarray(schur.t)[None])
    return PerturbationCase(_make_cases(a[None], e[None], *factors))


def _make_cases(a, e, q=None, t=None) -> _Cases:
    """:func:`make_case` for stacks (k, n, n) of C-ordered matrix pairs,
    with an optional stack of Schur forms (q, t) of ``a + e``."""
    for name, m in (("a", a), ("e", e)):
        if not np.isfinite(m).all():
            raise ValueError(f"{name} contains non-finite entries")
    hermitian = _is_hermitian(a)
    # Hermitian implies normal: a Hermitian A passes even where the
    # commutator test's tighter tolerance would reject it.
    other = a[~hermitian]
    if len(other) and not _is_normal(_commutator_defects(other), _fro_norms(other)).all():
        raise ValueError("matrix A is not normal at tolerance; the catalog does not apply")
    a_tilde = a + e
    if not np.isfinite(a_tilde).all():
        raise ValueError("a + e contains non-finite entries")
    if q is None:
        q, t = _schur_factors(a_tilde)
    else:
        if q.shape != a.shape or t.shape != a.shape:
            raise ValueError("factor shapes do not match the source matrix")
        q, t = _fortran_stack(q), _fortran_stack(t)
        _check_schur_forms(q, t, a_tilde)
        # drop a strictly lower part within tolerance, as _schur_factors does
        rows, cols = np.tril_indices(t.shape[-1], -1)
        t[:, rows, cols] = 0.0
    _reorder(q, t)
    return _Cases(
        a=a,
        e=e,
        a_tilde=a_tilde,
        q=q,
        t=t,
        boundaries=_block_boundaries(t),
        hermitian=hermitian,
    )


def _rotated(q: np.ndarray, e: np.ndarray) -> np.ndarray:
    return q.conj().transpose(0, 2, 1) @ e @ q


def rotated_perturbation(case: PerturbationCase) -> np.ndarray:
    """The perturbation expressed in the Schur basis of A + E."""
    return _rotated(case.schur_tilde.q[None], case.e[None])[0]


def rotated_perturbation_residual(case: PerturbationCase) -> float:
    """||Q* E Q - strict_upper(T)||_F, the part of the rotated
    perturbation not explained by the triangular excess."""
    residual = rotated_perturbation(case) - np.triu(case.schur_tilde.t, 1)
    return float(np.linalg.norm(residual, "fro"))


# ---------------------------------------------------------------------------
# shared per-case quantities


class _Stats:
    """Every per-case quantity the catalog and the campaign checks use,
    one array entry per case of a stack, computed once from the trusted
    case arrays.  ``lam_a`` is the spectrum of A from one eigensolve
    (``eigvalsh`` for a Hermitian A, ``eigvals`` otherwise); since A is
    normal, its spectral norm is max |lam_a|.  ``rank`` (the numerical
    rank of A + E) is computed only for the cases with a Hermitian A,
    whose Hermitian-only entries run, and is 0 elsewhere."""

    __slots__ = (
        "cases",
        "n",
        "lam_a",
        "e_norm",
        "e2",
        "e_trace",
        "a_norm",
        "tilde_norm",
        "excess",
        "delta_e",
        "delta_a",
        "w",
        "s",
        "mix",
        "defect",
        "tilde_is_normal",
        "rank",
        "scale",
    )

    def __init__(self, cases: _Cases):
        n = cases.n
        e_norm = _fro_norms(cases.e)
        a_norm = _fro_norms(cases.a)
        tilde_norm = _fro_norms(cases.a_tilde)
        excess = _fro_norms(np.triu(cases.t, 1))
        rotated = _rotated(cases.q, cases.e)
        lam_a = np.empty(cases.eigenvalues.shape, dtype=np.complex128)
        radius = np.empty(len(lam_a))
        for rows, eigensolve in (
            (cases.hermitian, np.linalg.eigvalsh),
            (~cases.hermitian, np.linalg.eigvals),
        ):
            if rows.any():
                lam = eigensolve(cases.a[rows])
                lam_a[rows] = lam
                radius[rows] = np.abs(lam).max(axis=1)
        self.cases = cases
        self.n = n
        self.lam_a = lam_a
        self.e_norm = e_norm
        self.e2 = _square(e_norm)
        self.e_trace = _trace_moduli(cases.e)
        self.a_norm = a_norm
        self.tilde_norm = tilde_norm
        self.excess = excess
        self.delta_e = _deltas(e_norm, self.e_trace, n)
        self.delta_a = _deltas(a_norm, _trace_moduli(cases.a), n)
        self.w = _band_widths(rotated, W_PRODUCT_RTOL * _fro_norms(rotated), lower=True)
        self.s = 1 + np.count_nonzero(cases.boundaries, axis=1)
        self.mix = np.minimum(a_norm, math.sqrt(max(n - 1, 0)) * radius)
        self.defect = _commutator_defects(cases.a_tilde)
        self.tilde_is_normal = _is_normal(self.defect, tilde_norm)
        self.rank = np.zeros(len(lam_a), dtype=int)
        if cases.hermitian.any():
            self.rank[cases.hermitian] = _ranks(cases.a_tilde[cases.hermitian])
        self.scale = 1.0 + self.e2 + _square(excess)


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
# excess d.  ``norm`` is the bound itself; every other shape is the
# radicand r of sqrt(||E||_F^2 + r).  A coefficient is computed before
# it meets x, so each bound keeps the operation order of its scalar form
# and its bits: sqrt(1 + 0) x = x, sqrt(1 + (n - 1)) = sqrt(n) and
# 2 sqrt(1/2) = sqrt(2) hold exactly.
_SHAPES = {
    "norm": lambda c, x, d: np.sqrt(1.0 + c) * x,
    "square": lambda c, x, d: c * _square(x),
    "cross": lambda c, x, d: np.sqrt(1.0 + c) * x * d,
    "plus": lambda c, x, d: 2.0 * x * d + _square(d),
    "minus": lambda c, x, d: 2.0 * np.sqrt(c) * x * d - _square(d),
}


def _distance_bound(bound_id: str, shape: str, constant: str, scale: str, st: _Stats, on):
    """A row of ``_DISTANCE_BOUNDS`` on a stack; a radicand negative
    beyond round-off is an error only where ``on`` (the entry applies)."""
    value = _SHAPES[shape](_CONSTANTS[constant](st), getattr(st, scale), st.excess)
    if shape == "norm":
        return value
    return _safe_sqrt(st.e2 + value, st.scale, bound_id, on)


# The triangular-excess estimates, each with its own formula:
# (id, requires_hermitian, value function (st, on)).
_EXCESS_ESTIMATES = (
    ("henrici_3_6", False, lambda st, on: _henrici(st.n, st.defect)),
    ("sun_3_7", False, lambda st, on: _sun(st.tilde_norm, st.defect)),
    ("thm_4_3_a", True, lambda st, on: _skew_delta_bounds(st.cases.a_tilde, st.rank, on)),
    ("thm_4_3_b", True, lambda st, on: _skew_delta_bounds(st.cases.e, st.rank, on)),
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
DELTA_ESTIMATE_IDS: tuple[str, ...] = tuple(
    entry.id for entry in _CATALOG if entry.family == FAMILY_DELTA_ESTIMATE
)
D2_BOUND_IDS: tuple[str, ...] = tuple(
    entry.id for entry in _CATALOG if entry.family != FAMILY_DELTA_ESTIMATE
)
HERMITIAN_ONLY_IDS: tuple[str, ...] = tuple(entry.id for entry in _CATALOG if entry.requires_hermitian)
SCHUR_DEPENDENT_IDS: tuple[str, ...] = tuple(
    entry.id for entry in _CATALOG if entry.depends_on_schur_choice
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
    m = as_matrix(m)[None]
    return float(_henrici(m.shape[-1], _commutator_defects(m))[0])


def sun_delta_lower(m) -> float:
    """sqrt(||M||_F^2 - sqrt(||M||_F^4 - ||M M* - M* M||_F^2 / 2)): a
    lower bound on the triangular excess of any Schur form of M."""
    m = as_matrix(m)[None]
    return float(_sun(_fro_norms(m), _commutator_defects(m))[0])


def _henrici(n: int, defect: np.ndarray) -> np.ndarray:
    return ((n**3 - n) / 12.0) ** 0.25 * np.sqrt(defect)


def _sun(nrm: np.ndarray, defect: np.ndarray) -> np.ndarray:
    nrm2 = _square(nrm)
    inner = _square(nrm2) - 0.5 * _square(defect)
    scale = 1.0 + _square(nrm2)
    inner = _safe_sqrt(inner, scale, "sun_3_7 inner radicand")
    return _safe_sqrt(nrm2 - inner, 1.0 + nrm2, "sun_3_7")


def _skew_delta_bounds(m: np.ndarray, r: np.ndarray, on: np.ndarray) -> np.ndarray:
    """(1/sqrt(2)) * sqrt(||K||_F^2 - |tr K|^2 / r) for K = M - M* of each
    matrix of a stack, r >= 1 the numerical rank of A + E where ``on``."""
    skew = m - m.conj().transpose(0, 2, 1)
    nrm2 = _square(_fro_norms(skew))
    radicand = nrm2 - _square(_trace_moduli(skew)) / np.maximum(r, 1)
    return _safe_sqrt(radicand, 1.0 + nrm2, "thm_4_3", on) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# full evaluation


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
        return {k: list(v) if isinstance(v, tuple) else v for k, v in dataclasses.asdict(self).items()}


@dataclass(frozen=True)
class _Evaluation:
    """The catalog on a stack of cases: ``values`` (k, entries) holds NaN
    where ``applicable`` is false; ``violated`` flags the applicable
    distance bounds below d2 by more than the slack."""

    values: np.ndarray
    applicable: np.ndarray
    violated: np.ndarray
    d2: np.ndarray
    d_inf: np.ndarray
    stats: _Stats


def _evaluate(cases: _Cases, tol_factor: float) -> _Evaluation:
    """Evaluate the full catalog on a stack of cases; the Hermitian-only
    entries run on the cases with a Hermitian A."""
    st = _Stats(cases)
    k = len(st.e_norm)
    match = optimal_match(st.lam_a, cases.eigenvalues)
    d2, d_inf = match.d2, match.d_inf
    values = np.full((k, len(_CATALOG)), np.nan)
    applicable = np.zeros((k, len(_CATALOG)), dtype=bool)
    everywhere = np.ones(k, dtype=bool)
    for col, (entry, formula) in enumerate(zip(_CATALOG, _FORMULAS)):
        on = cases.hermitian if entry.requires_hermitian else everywhere
        if entry.id in _HYPOTHESES:
            on = on & _HYPOTHESES[entry.id](st)
        if on.any():
            values[:, col] = np.where(on, formula(st, on), np.nan)
            applicable[:, col] = on
    tol = tol_factor * (1.0 + st.a_norm + st.e_norm)
    violated = applicable & _IS_D2_BOUND & (values < (d2 - tol)[:, None])
    return _Evaluation(values, applicable, violated, d2, d_inf, st)


def evaluate_all(case: PerturbationCase, tol_factor: float = VIOLATION_TOL_FACTOR) -> BoundReport:
    """Evaluate the full catalog against the true matching distance.

    The Hermitian-only entries run exactly when the case's base matrix
    is Hermitian; on any other base they are reported as not applicable,
    since their hypotheses fail.  ``tol_factor`` must be finite and
    positive, else ValueError.
    """
    _check_tol_factor(tol_factor)
    ev = _evaluate(case._cases, tol_factor)
    bounds = tuple(
        BoundValue(**dataclasses.asdict(entry), value=value if applicable else None, applicable=applicable)
        for entry, value, applicable in zip(_CATALOG, ev.values[0].tolist(), ev.applicable[0].tolist())
    )
    return BoundReport(
        d2=float(ev.d2[0]),
        d_inf=float(ev.d_inf[0]),
        bounds=bounds,
        violations=tuple(CATALOG_IDS[j] for j in np.flatnonzero(ev.violated[0])),
    )
