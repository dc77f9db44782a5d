"""Catalog of spectral-distance bounds and triangular-excess estimates.

A :class:`PerturbationCase` packages a normal matrix ``a``, a free
perturbation ``e``, and an ordered Schur form of ``a + e``.  The catalog
evaluates every known Frobenius bound on the optimal-matching distance
between the two spectra, plus upper/lower estimates of the triangular
excess ||strict_upper(T)||_F that several of those bounds consume.
:func:`make_case` checks its inputs once; :func:`evaluate_all` then
trusts the case arrays and computes each per-case quantity once.

Catalog entries carry stable string ids (``eq_1_4`` ... ``thm_4_3_b``)
used by the command-line tools and by campaign CSV columns.  The ids are
wire-format identifiers; treat them as opaque.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decomp import (
    BlockStructure,
    SchurForm,
    detect_block_structure,
    numerical_rank,
    reorder_schur,
    schur_decompose,
    validate_schur_form,
)
from .matching import optimal_match
from .matrices import (
    _commutator_defect,
    _is_normal,
    as_matrix,
    is_hermitian,
    is_normal,
)
from .quantities import _delta, w_lower

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
    (e.g. a Schur form that does not belong to ``a + e``)."""


def _safe_sqrt(radicand: float, scale: float, context: str) -> float:
    if radicand < 0.0:
        if radicand < -RADICAND_TOL * scale:
            raise NumericalConsistencyError(
                f"{context}: radicand {radicand:.3e} is negative beyond "
                f"round-off slack {RADICAND_TOL * scale:.3e}"
            )
        radicand = 0.0
    return math.sqrt(radicand)


# ---------------------------------------------------------------------------
# cases


@dataclass(eq=False)
class PerturbationCase:
    """A matrix pair (A, A + E) with an ordered Schur form of A + E.

    Instances are built by :func:`make_case` and treated as immutable.
    ``a_is_normal`` is always true, since :func:`make_case` refuses a
    non-normal ``a``; ``a_is_hermitian`` may be either.
    """

    a: np.ndarray
    e: np.ndarray
    a_tilde: np.ndarray
    schur_tilde: SchurForm
    block: BlockStructure
    a_is_normal: bool
    a_is_hermitian: bool

    @property
    def n(self) -> int:
        return self.a.shape[0]


def make_case(a, e, *, schur: SchurForm | None = None) -> PerturbationCase:
    """Assemble a :class:`PerturbationCase` from a matrix pair.

    This is the single input check of the case pipeline: ``a`` and ``e``
    must be finite square matrices of one shape, and ``a`` must be normal
    at :data:`~spectra_perturb.matrices.STRUCTURE_TOL`, else ValueError.
    When ``schur`` is given it must be a valid Schur form of ``a + e``;
    it is validated and then reordered into the canonical eigenvalue
    order.  Otherwise a fresh decomposition is computed.  Eigenvalue
    blocks are detected on the ordered triangular factor.
    """
    a = np.array(as_matrix(a, "a"), dtype=np.complex128, copy=True)
    e = np.array(as_matrix(e, "e"), dtype=np.complex128, copy=True)
    if a.shape != e.shape:
        raise ValueError(f"shape mismatch: a is {a.shape}, e is {e.shape}")
    hermitian = is_hermitian(a)
    # Hermitian implies normal: a Hermitian A passes even where the
    # commutator test's tighter tolerance would reject it.
    if not (hermitian or is_normal(a)):
        raise ValueError("matrix A is not normal at tolerance; the catalog does not apply")
    a_tilde = a + e
    if schur is None:
        form = schur_decompose(a_tilde)
    else:
        form = SchurForm(
            q=np.array(schur.q, dtype=np.complex128, copy=True),
            t=np.array(schur.t, dtype=np.complex128, copy=True),
            eigenvalues=np.diag(schur.t).astype(np.complex128),
        )
        validate_schur_form(form, a_tilde)
    form = reorder_schur(form)
    return PerturbationCase(
        a=a,
        e=e,
        a_tilde=a_tilde,
        schur_tilde=form,
        block=detect_block_structure(form.t),
        a_is_normal=True,
        a_is_hermitian=hermitian,
    )


def rotated_perturbation(case: PerturbationCase) -> np.ndarray:
    """The perturbation expressed in the Schur basis of A + E."""
    q = case.schur_tilde.q
    return q.conj().T @ case.e @ q


def rotated_perturbation_residual(case: PerturbationCase) -> float:
    """||Q* E Q - strict_upper(T)||_F, the part of the rotated
    perturbation not explained by the triangular excess."""
    residual = rotated_perturbation(case) - np.triu(case.schur_tilde.t, 1)
    return float(np.linalg.norm(residual, "fro"))


# ---------------------------------------------------------------------------
# shared per-case quantities


class _Stats:
    """Every per-case quantity the catalog and the campaign checks use,
    computed once from the trusted case arrays.  ``lam_a`` is the
    spectrum of A from one eigensolve (``eigvalsh`` for a Hermitian A,
    ``eigvals`` otherwise); since A is normal, its spectral norm is
    max |lam_a|.  ``rank`` (the numerical rank of A + E) is computed
    only when the Hermitian entries run."""

    __slots__ = (
        "n",
        "lam_a",
        "e_norm",
        "e2",
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

    def __init__(self, case: PerturbationCase, hermitian: bool):
        n = case.n
        e_norm = float(np.linalg.norm(case.e, "fro"))
        a_norm = float(np.linalg.norm(case.a, "fro"))
        tilde_norm = float(np.linalg.norm(case.a_tilde, "fro"))
        excess = float(np.linalg.norm(np.triu(case.schur_tilde.t, 1), "fro"))
        rotated = rotated_perturbation(case)
        if case.a_is_hermitian:
            lam_a = np.linalg.eigvalsh(case.a)
        else:
            lam_a = np.linalg.eigvals(case.a)
        self.n = n
        self.lam_a = lam_a
        self.e_norm = e_norm
        self.e2 = e_norm**2
        self.a_norm = a_norm
        self.tilde_norm = tilde_norm
        self.excess = excess
        self.delta_e = _delta(case.e, e_norm)
        self.delta_a = _delta(case.a, a_norm)
        self.w = w_lower(rotated, tol=W_PRODUCT_RTOL * float(np.linalg.norm(rotated, "fro")))
        self.s = case.block.s
        self.mix = min(a_norm, math.sqrt(max(n - 1, 0)) * float(np.abs(lam_a).max()))
        self.defect = _commutator_defect(case.a_tilde)
        self.tilde_is_normal = _is_normal(self.defect, tilde_norm)
        self.rank = numerical_rank(case.a_tilde) if hermitian else 0
        self.scale = 1.0 + self.e2 + excess**2


def _rt(st: _Stats, extra: float, context: str) -> float:
    return _safe_sqrt(st.e2 + extra, st.scale, context)


# ---------------------------------------------------------------------------
# catalog

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class _Entry:
    id: str
    family: str
    requires_hermitian: bool
    depends_on_schur_choice: bool


def _always(case: PerturbationCase, st: _Stats) -> bool:
    return True


def _tilde_normal(case: PerturbationCase, st: _Stats) -> bool:
    return st.tilde_is_normal


def _tilde_nonzero(case: PerturbationCase, st: _Stats) -> bool:
    return st.tilde_norm > 0.0


def _v_hw(case, st):
    return st.e_norm


def _v_1_4(case, st):
    return math.sqrt(st.n) * st.e_norm


def _v_1_5(case, st):
    return math.sqrt(st.n - st.s + 1) * st.e_norm


def _v_1_6(case, st):
    return SQRT2 * st.e_norm


def _v_1_7(case, st):
    return _rt(st, 2.0 * st.mix * st.excess - st.excess**2, "eq_1_7")


def _v_1_8(case, st):
    return _rt(st, SQRT2 * st.e_norm * st.excess, "eq_1_8")


def _v_1_9(case, st):
    return _rt(st, 2.0 * st.e_norm * st.excess - st.excess**2, "eq_1_9")


def _v_3_3a(case, st):
    return _rt(st, st.w * st.delta_e**2, "eq_3_3a")


def _v_3_3b(case, st):
    return _rt(st, math.sqrt(1.0 + st.w) * st.delta_e * st.excess, "eq_3_3b")


def _v_3_3c(case, st):
    return _rt(st, 2.0 * st.delta_e * st.excess + st.excess**2, "eq_3_3c")


def _v_3_3d(case, st):
    return _rt(st, 2.0 * math.sqrt(st.w) * st.delta_e * st.excess - st.excess**2, "eq_3_3d")


def _v_3_4a(case, st):
    return _rt(st, st.w / (1.0 + st.w) * st.delta_a**2, "eq_3_4a")


def _v_3_4b(case, st):
    ratio = st.w / (1.0 + st.w)
    return _rt(st, 2.0 * math.sqrt(ratio) * st.delta_a * st.excess - st.excess**2, "eq_3_4b")


def _v_3_5a(case, st):
    return _rt(st, (st.n - 1) * st.delta_e**2, "eq_3_5a")


def _v_3_5b(case, st):
    return _rt(st, math.sqrt(st.n) * st.delta_e * st.excess, "eq_3_5b")


def _v_3_5c(case, st):
    return _rt(st, 2.0 * st.delta_e * st.excess + st.excess**2, "eq_3_5c")


def _v_3_5d(case, st):
    return _rt(st, 2.0 * math.sqrt(st.n - 1) * st.delta_e * st.excess - st.excess**2, "eq_3_5d")


def _v_3_5e(case, st):
    return _rt(st, (st.n - 1) / st.n * st.delta_a**2, "eq_3_5e")


def _v_3_5f(case, st):
    return _rt(st, 2.0 * math.sqrt((st.n - 1) / st.n) * st.delta_a * st.excess - st.excess**2, "eq_3_5f")


def _v_3_11a(case, st):
    return _rt(st, (st.n - st.s) * st.delta_e**2, "eq_3_11a")


def _v_3_11b(case, st):
    return _rt(st, math.sqrt(st.n - st.s + 1) * st.delta_e * st.excess, "eq_3_11b")


def _v_3_11c(case, st):
    return _rt(st, 2.0 * math.sqrt(st.n - st.s) * st.delta_e * st.excess - st.excess**2, "eq_3_11c")


def _v_4_6a(case, st):
    return _rt(st, st.delta_e**2, "eq_4_6a")


def _v_4_6b(case, st):
    return _rt(st, SQRT2 * st.delta_e * st.excess, "eq_4_6b")


def _v_4_6c(case, st):
    return _rt(st, 2.0 * st.delta_e * st.excess - st.excess**2, "eq_4_6c")


def _v_4_6d(case, st):
    return _rt(st, 0.5 * st.delta_a**2, "eq_4_6d")


def _v_4_6e(case, st):
    return _rt(st, SQRT2 * st.delta_a * st.excess - st.excess**2, "eq_4_6e")


def _v_henrici(case, st):
    return _henrici(st.n, st.defect)


def _v_sun(case, st):
    return _sun(st.tilde_norm, st.defect)


def _v_4_3a(case, st):
    return _skew_delta_bound(case.a_tilde, st.rank)


def _v_4_3b(case, st):
    return _skew_delta_bound(case.e, st.rank)


# (entry, applicability predicate, value function); catalog order is the
# report order and the campaign CSV column order.
_CATALOG: tuple[tuple[_Entry, object, object], ...] = (
    (_Entry("hoffman_wielandt", FAMILY_BASELINE, False, False), _tilde_normal, _v_hw),
    (_Entry("eq_1_4", FAMILY_BASELINE, False, False), _always, _v_1_4),
    (_Entry("eq_1_5", FAMILY_BASELINE, False, False), _always, _v_1_5),
    (_Entry("eq_1_6", FAMILY_BASELINE, True, False), _always, _v_1_6),
    (_Entry("eq_1_7", FAMILY_BASELINE, False, False), _always, _v_1_7),
    (_Entry("eq_1_8", FAMILY_BASELINE, True, False), _always, _v_1_8),
    (_Entry("eq_1_9", FAMILY_BASELINE, True, False), _always, _v_1_9),
    (_Entry("eq_3_3a", FAMILY_BANDWIDTH, False, True), _always, _v_3_3a),
    (_Entry("eq_3_3b", FAMILY_BANDWIDTH, False, True), _always, _v_3_3b),
    (_Entry("eq_3_3c", FAMILY_BANDWIDTH, False, True), _always, _v_3_3c),
    (_Entry("eq_3_3d", FAMILY_BANDWIDTH, False, True), _always, _v_3_3d),
    (_Entry("eq_3_4a", FAMILY_BANDWIDTH_BASE, False, True), _always, _v_3_4a),
    (_Entry("eq_3_4b", FAMILY_BANDWIDTH_BASE, False, True), _always, _v_3_4b),
    (_Entry("eq_3_5a", FAMILY_WORST_CASE, False, False), _always, _v_3_5a),
    (_Entry("eq_3_5b", FAMILY_WORST_CASE, False, False), _always, _v_3_5b),
    (_Entry("eq_3_5c", FAMILY_WORST_CASE, False, False), _always, _v_3_5c),
    (_Entry("eq_3_5d", FAMILY_WORST_CASE, False, False), _always, _v_3_5d),
    (_Entry("eq_3_5e", FAMILY_WORST_CASE, False, False), _always, _v_3_5e),
    (_Entry("eq_3_5f", FAMILY_WORST_CASE, False, False), _always, _v_3_5f),
    (_Entry("eq_3_11a", FAMILY_BLOCK, False, False), _always, _v_3_11a),
    (_Entry("eq_3_11b", FAMILY_BLOCK, False, False), _always, _v_3_11b),
    (_Entry("eq_3_11c", FAMILY_BLOCK, False, False), _always, _v_3_11c),
    (_Entry("eq_4_6a", FAMILY_HERMITIAN, True, False), _always, _v_4_6a),
    (_Entry("eq_4_6b", FAMILY_HERMITIAN, True, False), _always, _v_4_6b),
    (_Entry("eq_4_6c", FAMILY_HERMITIAN, True, False), _always, _v_4_6c),
    (_Entry("eq_4_6d", FAMILY_HERMITIAN, True, False), _always, _v_4_6d),
    (_Entry("eq_4_6e", FAMILY_HERMITIAN, True, False), _always, _v_4_6e),
    (_Entry("henrici_3_6", FAMILY_DELTA_ESTIMATE, False, False), _always, _v_henrici),
    (_Entry("sun_3_7", FAMILY_DELTA_ESTIMATE, False, False), _always, _v_sun),
    (_Entry("thm_4_3_a", FAMILY_DELTA_ESTIMATE, True, False), _tilde_nonzero, _v_4_3a),
    (_Entry("thm_4_3_b", FAMILY_DELTA_ESTIMATE, True, False), _tilde_nonzero, _v_4_3b),
)

CATALOG_IDS: tuple[str, ...] = tuple(entry.id for entry, _, _ in _CATALOG)
DELTA_ESTIMATE_IDS: tuple[str, ...] = tuple(
    entry.id for entry, _, _ in _CATALOG if entry.family == FAMILY_DELTA_ESTIMATE
)
D2_BOUND_IDS: tuple[str, ...] = tuple(
    entry.id for entry, _, _ in _CATALOG if entry.family != FAMILY_DELTA_ESTIMATE
)
HERMITIAN_ONLY_IDS: tuple[str, ...] = tuple(
    entry.id for entry, _, _ in _CATALOG if entry.requires_hermitian
)
SCHUR_DEPENDENT_IDS: tuple[str, ...] = tuple(
    entry.id for entry, _, _ in _CATALOG if entry.depends_on_schur_choice
)

_BY_ID = {entry.id: (entry, pred, value) for entry, pred, value in _CATALOG}


def catalog_entries() -> tuple[dict, ...]:
    """Metadata for every catalog entry, in report order."""
    return tuple(
        {
            "id": entry.id,
            "family": entry.family,
            "requires_hermitian": entry.requires_hermitian,
            "depends_on_schur_choice": entry.depends_on_schur_choice,
        }
        for entry, _, _ in _CATALOG
    )


def family_of(bound_id: str) -> str:
    try:
        return _BY_ID[bound_id][0].family
    except KeyError:
        raise KeyError(f"unknown bound id {bound_id!r}") from None


# ---------------------------------------------------------------------------
# triangular-excess estimates (matrix level)


def henrici_delta_upper(m) -> float:
    """((n^3 - n) / 12)^(1/4) * sqrt(||M M* - M* M||_F): an upper bound
    on the triangular excess of any Schur form of M."""
    m = as_matrix(m)
    return _henrici(m.shape[0], _commutator_defect(m))


def sun_delta_lower(m) -> float:
    """sqrt(||M||_F^2 - sqrt(||M||_F^4 - ||M M* - M* M||_F^2 / 2)): a
    lower bound on the triangular excess of any Schur form of M."""
    m = as_matrix(m)
    return _sun(float(np.linalg.norm(m, "fro")), _commutator_defect(m))


def _henrici(n: int, defect: float) -> float:
    return ((n**3 - n) / 12.0) ** 0.25 * math.sqrt(defect)


def _sun(nrm: float, defect: float) -> float:
    nrm2 = nrm**2
    inner = nrm2**2 - 0.5 * defect**2
    scale = 1.0 + nrm2**2
    inner = _safe_sqrt(inner, scale, "sun_3_7 inner radicand")
    return _safe_sqrt(nrm2 - inner, 1.0 + nrm2, "sun_3_7")


def _skew_delta_bound(m: np.ndarray, r: int) -> float:
    """(1/sqrt(2)) * sqrt(||K||_F^2 - |tr K|^2 / r) for K = M - M* and
    r >= 1 the numerical rank of A + E."""
    skew = m - m.conj().T
    nrm2 = float(np.linalg.norm(skew, "fro")) ** 2
    radicand = nrm2 - abs(complex(np.trace(skew))) ** 2 / r
    return _safe_sqrt(radicand, 1.0 + nrm2, "thm_4_3") / SQRT2


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
    # the per-case quantities behind the values, reused by the campaign
    # checks; not part of the wire format
    _stats: _Stats | None = field(default=None, repr=False, compare=False)

    def value_of(self, bound_id: str) -> float | None:
        for bv in self.bounds:
            if bv.id == bound_id:
                return bv.value
        raise KeyError(f"unknown bound id {bound_id!r}")

    def as_dict(self) -> dict:
        return {
            "d2": self.d2,
            "d_inf": self.d_inf,
            "bounds": [
                {
                    "id": bv.id,
                    "family": bv.family,
                    "value": bv.value,
                    "applicable": bv.applicable,
                    "requires_hermitian": bv.requires_hermitian,
                    "depends_on_schur_choice": bv.depends_on_schur_choice,
                }
                for bv in self.bounds
            ],
            "violations": list(self.violations),
        }


def evaluate_all(
    case: PerturbationCase,
    include_hermitian: bool | None = None,
    tol_factor: float = VIOLATION_TOL_FACTOR,
) -> BoundReport:
    """Evaluate the full catalog against the true matching distance.

    ``include_hermitian`` forces the Hermitian-only entries on or off;
    the default None enables them exactly when the case's base matrix is
    Hermitian.  Hermitian-only entries are never evaluated on a
    non-Hermitian base even when forced on: they are reported as not
    applicable, since their hypotheses fail.
    """
    if include_hermitian is None:
        include_hermitian = case.a_is_hermitian
    hermitian = bool(include_hermitian) and case.a_is_hermitian
    st = _Stats(case, hermitian)
    match = optimal_match(st.lam_a, case.schur_tilde.eigenvalues)
    tol = tol_factor * (1.0 + st.a_norm + st.e_norm)
    values: list[BoundValue] = []
    violations: list[str] = []
    for entry, pred, value_fn in _CATALOG:
        applicable = bool(pred(case, st))
        if entry.requires_hermitian:
            applicable = applicable and hermitian
        value = float(value_fn(case, st)) if applicable else None
        values.append(
            BoundValue(
                id=entry.id,
                family=entry.family,
                value=value,
                applicable=applicable,
                requires_hermitian=entry.requires_hermitian,
                depends_on_schur_choice=entry.depends_on_schur_choice,
            )
        )
        if (
            applicable
            and entry.family != FAMILY_DELTA_ESTIMATE
            and value < match.d2 - tol
        ):
            violations.append(entry.id)
    return BoundReport(
        d2=match.d2,
        d_inf=match.d_inf,
        bounds=tuple(values),
        violations=tuple(violations),
        _stats=st,
    )
