import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from spectra_perturb import bounds as bounds_module

from spectra_perturb import (
    CATALOG_IDS,
    D2_BOUND_IDS,
    DELTA_ESTIMATE_IDS,
    FIXTURE_NAMES,
    HERMITIAN_ONLY_IDS,
    KINDS,
    SCHUR_DEPENDENT_IDS,
    EnsembleSpec,
    NumericalConsistencyError,
    SchurForm,
    catalog_entries,
    delta,
    eigenvalues,
    evaluate_all,
    family_of,
    fixture,
    fixture_expectations,
    frobenius_norm,
    henrici_delta_upper,
    make_case,
    optimal_match,
    random_case,
    rotated_perturbation,
    rotated_perturbation_residual,
    schur_decompose,
    sun_delta_lower,
    w_lower,
)

from conftest import haar_rotated_diagonal, random_complex, rng_for


# ---------------------------------------------------------------------------
# case assembly


def test_make_case_shape_mismatch():
    with pytest.raises(ValueError):
        make_case(np.eye(3), np.zeros((2, 2)))


def test_make_case_flags():
    case = make_case(np.diag([1.0, 2.0]), np.zeros((2, 2)))
    assert case.a_is_hermitian and case.a_is_normal
    case = make_case(np.diag([1.0j, 2.0]), np.zeros((2, 2)))
    assert case.a_is_normal and not case.a_is_hermitian
    with pytest.raises(ValueError, match="not normal"):
        make_case([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2)))


def test_make_case_rejects_wrong_schur(rng):
    a = np.diag([1.0, 2.0])
    e = np.zeros((2, 2))
    bogus = SchurForm(q=np.eye(2, dtype=complex), t=np.diag([5.0, 6.0]).astype(complex))
    with pytest.raises(ValueError):
        make_case(a, e, schur=bogus)
    # a genuine Schur form, but of another matrix
    a = haar_rotated_diagonal(rng, 4)
    other = schur_decompose(random_complex(rng, (4, 4)))
    with pytest.raises(ValueError, match="reconstruct"):
        make_case(a, random_complex(rng, (4, 4)), schur=other)


def _nearly_triangular_pair(lower: float):
    """(a, e, form): t = diag(4, 3, 2, 1) plus a unit strictly upper part
    and ``lower * ||t||_F`` at t[3, 0], q = I, a = diag(t), a + e = t."""
    t = np.diag([4.0, 3.0, 2.0, 1.0]).astype(complex) + np.triu(np.ones((4, 4)), 1)
    t[3, 0] = lower * np.linalg.norm(t)
    a = np.diag(np.diag(t))
    return a, t - a, SchurForm(q=np.eye(4, dtype=complex), t=t)


def test_make_case_accepts_a_strictly_lower_part_within_tolerance():
    # under TAU_SCHUR the form passes the check; its strictly lower part
    # is then dropped, so the stored factor is exactly triangular
    a, e, form = _nearly_triangular_pair(1e-11)
    case = make_case(a, e, schur=form)
    assert np.all(np.tril(case.schur_tilde.t, -1) == 0)
    assert case.block.sizes == (4,)
    assert np.array_equal(case.schur_tilde.eigenvalues, [4.0, 3.0, 2.0, 1.0])
    assert evaluate_all(case).violations == ()
    a, e, form = _nearly_triangular_pair(1e-9)
    with pytest.raises(ValueError, match="not upper triangular"):
        make_case(a, e, schur=form)


def test_make_case_reorders_supplied_schur():
    # supplied form has ascending moduli; the case must come out ordered,
    # its eigenvalues read off t
    a = np.diag([1.0, 3.0])
    e = np.zeros((2, 2))
    form = SchurForm(q=np.eye(2, dtype=complex), t=np.diag([1.0, 3.0]).astype(complex))
    case = make_case(a, e, schur=form)
    lam = case.schur_tilde.eigenvalues
    assert abs(lam[0]) >= abs(lam[1])
    assert abs(lam[0] - 3.0) < 1e-14
    assert np.array_equal(lam, np.diag(case.schur_tilde.t))


def test_case_attributes_are_read_only():
    case = fixture("intro_2x2")
    names = ("a", "e", "a_tilde", "n", "a_is_normal", "a_is_hermitian", "schur_tilde", "block")
    for name in names:
        with pytest.raises(AttributeError):
            setattr(case, name, getattr(case, name))
    with pytest.raises(AttributeError):
        case.extra = 1


def test_evaluate_all_evaluates_the_stack_make_case_built(monkeypatch):
    seen = []
    original = bounds_module._evaluate

    def spy(cases, tol_factor):
        seen.append(cases)
        return original(cases, tol_factor)

    monkeypatch.setattr(bounds_module, "_evaluate", spy)
    case = fixture("example_4_4")
    evaluate_all(case)
    assert len(seen) == 1 and seen[0] is case._cases


def test_case_dimension_property():
    case = fixture("intro_2x2")
    assert case.n == 2
    assert case.a_tilde.shape == (2, 2)


# ---------------------------------------------------------------------------
# catalog metadata: ids, families, applicability flags are wire format


def test_catalog_ids_complete_and_ordered():
    assert len(CATALOG_IDS) == 31
    assert CATALOG_IDS[0] == "hoffman_wielandt"
    assert CATALOG_IDS[1:7] == ("eq_1_4", "eq_1_5", "eq_1_6", "eq_1_7", "eq_1_8", "eq_1_9")
    assert CATALOG_IDS[-4:] == ("henrici_3_6", "sun_3_7", "thm_4_3_a", "thm_4_3_b")
    assert len(set(CATALOG_IDS)) == 31


def test_catalog_family_strings():
    fam = {entry["id"]: entry["family"] for entry in catalog_entries()}
    for bid in ("hoffman_wielandt", "eq_1_4", "eq_1_5", "eq_1_6", "eq_1_7", "eq_1_8", "eq_1_9"):
        assert fam[bid] == "baseline"
    for bid in ("eq_3_3a", "eq_3_3b", "eq_3_3c", "eq_3_3d"):
        assert fam[bid] == "lemma_3_4"
    for bid in ("eq_3_4a", "eq_3_4b"):
        assert fam[bid] == "lemma_3_5"
    for bid in ("eq_3_5a", "eq_3_5b", "eq_3_5c", "eq_3_5d", "eq_3_5e", "eq_3_5f"):
        assert fam[bid] == "theorem_3_6"
    for bid in ("eq_3_11a", "eq_3_11b", "eq_3_11c"):
        assert fam[bid] == "theorem_3_10"
    for bid in ("eq_4_6a", "eq_4_6b", "eq_4_6c", "eq_4_6d", "eq_4_6e"):
        assert fam[bid] == "theorem_4_2"
    for bid in ("henrici_3_6", "sun_3_7", "thm_4_3_a", "thm_4_3_b"):
        assert fam[bid] == "delta_estimate"
    assert family_of("eq_3_5a") == "theorem_3_6"
    with pytest.raises(KeyError):
        family_of("nope")


def test_catalog_applicability_flags():
    assert set(HERMITIAN_ONLY_IDS) == {
        "eq_1_6", "eq_1_8", "eq_1_9",
        "eq_4_6a", "eq_4_6b", "eq_4_6c", "eq_4_6d", "eq_4_6e",
        "thm_4_3_a", "thm_4_3_b",
    }
    assert set(SCHUR_DEPENDENT_IDS) == {
        "eq_3_3a", "eq_3_3b", "eq_3_3c", "eq_3_3d", "eq_3_4a", "eq_3_4b",
    }
    assert set(DELTA_ESTIMATE_IDS) == {"henrici_3_6", "sun_3_7", "thm_4_3_a", "thm_4_3_b"}
    assert set(D2_BOUND_IDS) | set(DELTA_ESTIMATE_IDS) == set(CATALOG_IDS)
    assert not set(D2_BOUND_IDS) & set(DELTA_ESTIMATE_IDS)


# ---------------------------------------------------------------------------
# the distance bounds against their scalar formulas, written out one by one

SQRT2 = math.sqrt(2.0)


def _root(st, extra):
    return math.sqrt(max(st.e_norm**2 + extra, 0.0))


# the paper's 27 distance bounds on the Python scalars of one case, in
# the operation order that fixes their bits
SCALAR_BOUNDS = {
    "hoffman_wielandt": lambda st: st.e_norm,
    "eq_1_4": lambda st: math.sqrt(st.n) * st.e_norm,
    "eq_1_5": lambda st: math.sqrt(st.n - st.s + 1) * st.e_norm,
    "eq_1_6": lambda st: SQRT2 * st.e_norm,
    "eq_1_7": lambda st: _root(st, 2.0 * st.mix * st.excess - st.excess**2),
    "eq_1_8": lambda st: _root(st, SQRT2 * st.e_norm * st.excess),
    "eq_1_9": lambda st: _root(st, 2.0 * st.e_norm * st.excess - st.excess**2),
    "eq_3_3a": lambda st: _root(st, st.w * st.delta_e**2),
    "eq_3_3b": lambda st: _root(st, math.sqrt(1.0 + st.w) * st.delta_e * st.excess),
    "eq_3_3c": lambda st: _root(st, 2.0 * st.delta_e * st.excess + st.excess**2),
    "eq_3_3d": lambda st: _root(st, 2.0 * math.sqrt(st.w) * st.delta_e * st.excess - st.excess**2),
    "eq_3_4a": lambda st: _root(st, st.w / (1.0 + st.w) * st.delta_a**2),
    "eq_3_4b": lambda st: _root(
        st, 2.0 * math.sqrt(st.w / (1.0 + st.w)) * st.delta_a * st.excess - st.excess**2
    ),
    "eq_3_5a": lambda st: _root(st, (st.n - 1) * st.delta_e**2),
    "eq_3_5b": lambda st: _root(st, math.sqrt(st.n) * st.delta_e * st.excess),
    "eq_3_5c": lambda st: _root(st, 2.0 * st.delta_e * st.excess + st.excess**2),
    "eq_3_5d": lambda st: _root(st, 2.0 * math.sqrt(st.n - 1) * st.delta_e * st.excess - st.excess**2),
    "eq_3_5e": lambda st: _root(st, (st.n - 1) / st.n * st.delta_a**2),
    "eq_3_5f": lambda st: _root(
        st, 2.0 * math.sqrt((st.n - 1) / st.n) * st.delta_a * st.excess - st.excess**2
    ),
    "eq_3_11a": lambda st: _root(st, (st.n - st.s) * st.delta_e**2),
    "eq_3_11b": lambda st: _root(st, math.sqrt(st.n - st.s + 1) * st.delta_e * st.excess),
    "eq_3_11c": lambda st: _root(st, 2.0 * math.sqrt(st.n - st.s) * st.delta_e * st.excess - st.excess**2),
    "eq_4_6a": lambda st: _root(st, st.delta_e**2),
    "eq_4_6b": lambda st: _root(st, SQRT2 * st.delta_e * st.excess),
    "eq_4_6c": lambda st: _root(st, 2.0 * st.delta_e * st.excess - st.excess**2),
    "eq_4_6d": lambda st: _root(st, 0.5 * st.delta_a**2),
    "eq_4_6e": lambda st: _root(st, SQRT2 * st.delta_a * st.excess - st.excess**2),
}


def _scalar_stats(case):
    """The per-case quantities the distance bounds read, as Python scalars."""
    st = bounds_module._evaluate(case._cases, bounds_module.VIOLATION_TOL_FACTOR).stats
    fields = ("e_norm", "excess", "delta_e", "delta_a", "w", "s", "mix")
    return SimpleNamespace(n=st.n, **{name: getattr(st, name)[0].item() for name in fields})


def test_distance_bounds_equal_their_scalar_formulas():
    assert tuple(SCALAR_BOUNDS) == D2_BOUND_IDS
    cases = [fixture(name) for name in FIXTURE_NAMES]
    for kind in KINDS:
        for trace_mode in ("zero", "generic"):
            for n in range(2, 13):
                spec = EnsembleSpec(n=n, kind=kind, trace_mode=trace_mode, seed=100 + n)
                cases.append(random_case(spec))
    checked = set()
    for case in cases:
        st = _scalar_stats(case)
        for bv in evaluate_all(case).bounds:
            if bv.applicable and bv.id in SCALAR_BOUNDS:
                assert repr(bv.value) == repr(SCALAR_BOUNDS[bv.id](st)), (bv.id, case.n)
                checked.add(bv.id)
    assert checked == set(D2_BOUND_IDS)


# ---------------------------------------------------------------------------
# hand-checkable 2x2 case


def test_two_by_two_baseline_values():
    report = evaluate_all(fixture("intro_2x2"))
    expect = fixture_expectations("intro_2x2")["bounds"]
    for bid in ("eq_1_4", "eq_1_6", "eq_1_7", "eq_1_8", "eq_1_9"):
        assert abs(report.value_of(bid) - expect[bid]) < 1e-12, bid
    # both eigenvalues collapse to one cluster here, so s = 1
    assert abs(report.value_of("eq_1_5") - report.value_of("eq_1_4")) < 1e-12


def test_two_by_two_family_values():
    report = evaluate_all(fixture("intro_2x2"))
    expect = fixture_expectations("intro_2x2")["bounds"]
    for bid in ("eq_3_5a", "eq_3_5f", "eq_3_4b", "eq_4_6d", "eq_4_6e"):
        assert abs(report.value_of(bid) - expect[bid]) < 1e-12, bid


def test_two_by_two_excess_estimates():
    case = fixture("intro_2x2")
    assert abs(henrici_delta_upper(case.a_tilde) - 2.0) < 1e-12
    assert abs(sun_delta_lower(case.a_tilde) - 2.0) < 1e-12
    report = evaluate_all(case)
    for bid in ("henrici_3_6", "sun_3_7", "thm_4_3_a", "thm_4_3_b"):
        assert abs(report.value_of(bid) - 2.0) < 1e-12, bid


def test_two_by_two_matching_distance_not_normal():
    # the perturbed matrix is defective, so the normal-pair shortcut
    # must be reported as not applicable rather than evaluated
    report = evaluate_all(fixture("intro_2x2"))
    hw = [bv for bv in report.bounds if bv.id == "hoffman_wielandt"][0]
    assert not hw.applicable and hw.value is None
    assert abs(report.d2 - 3.0) < 1e-9
    assert abs(report.d_inf - 3.0) < 1e-9
    assert report.violations == ()


def test_normal_pair_shortcut_equals_perturbation_norm():
    rng = rng_for(7)
    q = np.linalg.qr(random_complex(rng, (4, 4)))[0]
    a = (q * np.array([1.0, 2.0, -1.0, 4.0])) @ q.conj().T
    e = (q * np.array([0.1, -0.2, 0.05, 0.3])) @ q.conj().T
    report = evaluate_all(make_case(a, e))
    assert abs(report.value_of("hoffman_wielandt") - frobenius_norm(e)) < 1e-12


# ---------------------------------------------------------------------------
# degenerate inputs


def test_zero_perturbation_report():
    case = make_case(np.diag([1.0, -2.0, 0.5]), np.zeros((3, 3)))
    report = evaluate_all(case)
    assert report.d2 == 0.0
    assert report.d_inf == 0.0
    assert report.violations == ()
    for bv in report.bounds:
        if bv.applicable:
            assert bv.value is not None and bv.value >= 0.0


def test_skew_bounds_error_paths():
    # non-Hermitian base: neither the skew nor the Hermitian family applies
    report = evaluate_all(make_case(np.diag([1.0j, 1.0]), np.zeros((2, 2))))
    for bid in ("thm_4_3_a", "thm_4_3_b", "eq_4_6a", "eq_4_6e"):
        assert report.value_of(bid) is None, bid
    # Hermitian base but identically zero perturbed matrix: the skew
    # bounds divide by the rank of A + E, so only they drop out
    report = evaluate_all(make_case(np.eye(2), -np.eye(2)))
    applicable = {bv.id: bv.applicable for bv in report.bounds}
    assert not applicable["thm_4_3_a"] and not applicable["thm_4_3_b"]
    assert report.value_of("thm_4_3_a") is None and report.value_of("thm_4_3_b") is None
    assert applicable["eq_4_6a"] and applicable["henrici_3_6"]


def test_hermitian_entries_gated_by_structure():
    case = make_case(np.diag([1.0j, 2.0]), 0.01 * np.eye(2))
    report = evaluate_all(case)
    for bv in report.bounds:
        if bv.requires_hermitian:
            assert not bv.applicable and bv.value is None


def test_report_value_lookup():
    report = evaluate_all(fixture("intro_2x2"))
    assert abs(report.value_of("eq_1_4") - math.sqrt(14.0)) < 1e-12
    assert report.value_of("hoffman_wielandt") is None
    with pytest.raises(KeyError):
        report.value_of("eq_9_9")


def test_forced_violation_flags_every_distance_bound(monkeypatch):
    # a d2 far above every bound, as an inconsistent oracle would report
    original = bounds_module.optimal_match

    def inflated(*args):
        match = original(*args)
        return dataclasses.replace(match, d2=100.0 * match.d2)

    monkeypatch.setattr(bounds_module, "optimal_match", inflated)
    case = fixture("intro_2x2")
    report = evaluate_all(case)
    applicable = {bv.id for bv in report.bounds if bv.applicable}
    flagged = set(report.violations)
    assert flagged == applicable - set(DELTA_ESTIMATE_IDS)
    assert "henrici_3_6" not in flagged


@pytest.mark.parametrize("tol_factor", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_tolerance_factor_must_be_finite_and_positive(tol_factor):
    with pytest.raises(ValueError, match="finite and positive"):
        evaluate_all(fixture("intro_2x2"), tol_factor=tol_factor)


# ---------------------------------------------------------------------------
# collapse of the parametrized families onto their worst-case forms


def test_block_family_collapses_at_single_cluster():
    spec = EnsembleSpec(n=6, kind="normal", trace_mode="generic", seed=11)
    case = random_case(spec)
    assert case.block.s == 1  # generic spectra give one dense cluster
    v = evaluate_all(case).value_of
    assert abs(v("eq_3_11a") - v("eq_3_5a")) < 1e-12
    assert abs(v("eq_3_11b") - v("eq_3_5b")) < 1e-12
    assert abs(v("eq_3_11c") - v("eq_3_5d")) < 1e-12


def test_bandwidth_family_collapses_at_full_width():
    spec = EnsembleSpec(n=6, kind="normal", trace_mode="generic", seed=12)
    case = random_case(spec)
    rotated = rotated_perturbation(case)
    assert w_lower(rotated, tol=1e-13 * frobenius_norm(rotated)) == case.n - 1
    v = evaluate_all(case).value_of
    assert abs(v("eq_3_3a") - v("eq_3_5a")) < 1e-12
    assert abs(v("eq_3_3b") - v("eq_3_5b")) < 1e-12
    assert abs(v("eq_3_3c") - v("eq_3_5c")) < 1e-12
    assert abs(v("eq_3_3d") - v("eq_3_5d")) < 1e-12
    assert abs(v("eq_3_4a") - v("eq_3_5e")) < 1e-12
    assert abs(v("eq_3_4b") - v("eq_3_5f")) < 1e-12


def test_excess_linear_bounds_collapse_when_perturbed_stays_normal():
    # commuting Hermitian pair: A + E is normal, the excess vanishes, and
    # every bound whose extra term is excess-linear collapses to ||E||_F
    rng = rng_for(3)
    q = np.linalg.qr(random_complex(rng, (5, 5)))[0]
    a = (q * np.array([3.0, 1.0, -2.0, 0.5, 4.0])) @ q.conj().T
    a = (a + a.conj().T) / 2.0
    e = (q * np.array([0.3, -0.1, 0.2, 0.05, -0.25])) @ q.conj().T
    e = (e + e.conj().T) / 2.0
    case = make_case(a, e)
    e_norm = frobenius_norm(case.e)
    report = evaluate_all(case)
    collapse = (
        "hoffman_wielandt", "eq_1_7", "eq_1_8", "eq_1_9",
        "eq_3_3b", "eq_3_3c", "eq_3_3d", "eq_3_4b",
        "eq_3_5b", "eq_3_5c", "eq_3_5d", "eq_3_5f",
        "eq_3_11b", "eq_3_11c", "eq_4_6b", "eq_4_6c", "eq_4_6e",
    )
    for bid in collapse:
        value = report.value_of(bid)
        assert value is not None
        assert abs(value - e_norm) <= 1e-9 * (1.0 + e_norm), bid


def test_exactly_diagonal_pair_collapses_exactly():
    a = np.diag([2.0, -1.0, 0.5])
    e = np.diag([0.1, 0.2, -0.3])
    case = make_case(a, e)
    e_norm = frobenius_norm(e)
    report = evaluate_all(case)
    assert report.value_of("hoffman_wielandt") == e_norm
    assert abs(report.value_of("eq_1_9") - e_norm) < 1e-14
    assert abs(report.value_of("eq_3_5d") - e_norm) < 1e-14


# ---------------------------------------------------------------------------
# ordering properties among the bounds


def test_refinements_never_exceed_their_baselines():
    for seed in range(30):
        spec = EnsembleSpec(n=2 + seed % 9, kind="normal", trace_mode="generic", seed=seed)
        case = random_case(spec)
        report = evaluate_all(case)
        tol = 1e-12 * max(1.0, report.value_of("eq_1_4"))
        assert report.value_of("eq_3_5a") <= report.value_of("eq_1_4") + tol
        assert report.value_of("eq_3_11a") <= report.value_of("eq_1_5") + tol
        assert report.value_of("eq_3_5f") <= report.value_of("eq_1_7") + tol


def test_hermitian_refinements_never_exceed_their_baselines():
    for seed in range(30):
        spec = EnsembleSpec(n=2 + seed % 9, kind="hermitian", trace_mode="generic", seed=seed)
        case = random_case(spec)
        report = evaluate_all(case)
        e_norm = frobenius_norm(case.e)
        excess = frobenius_norm(np.triu(case.schur_tilde.t, 1))
        tol = 1e-12 * max(1.0, e_norm, excess)
        assert report.value_of("eq_4_6a") <= report.value_of("eq_1_6") + tol
        assert report.value_of("eq_4_6b") <= report.value_of("eq_1_8") + tol
        assert report.value_of("eq_4_6c") <= report.value_of("eq_1_9") + tol
        assert report.value_of("eq_4_6c") <= report.value_of("eq_1_6") + tol
        assert report.value_of("eq_4_6b") <= e_norm + excess + tol
        assert report.value_of("eq_4_6c") <= e_norm + excess + tol


def test_excess_estimates_bracket_true_excess():
    for seed in range(20):
        spec = EnsembleSpec(n=3 + seed % 8, kind="normal", trace_mode="generic", seed=100 + seed)
        case = random_case(spec)
        excess = frobenius_norm(np.triu(case.schur_tilde.t, 1))
        slack = 1e-9 * max(1.0, frobenius_norm(case.a_tilde))
        assert sun_delta_lower(case.a_tilde) <= excess + slack
        assert excess <= henrici_delta_upper(case.a_tilde) + slack


def test_excess_estimates_tight_on_jordan_block():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert abs(henrici_delta_upper(m) - 1.0) < 1e-12
    assert abs(sun_delta_lower(m) - 1.0) < 1e-12


def test_skew_estimates_dominate_excess_and_agree():
    for seed in range(20):
        spec = EnsembleSpec(n=2 + seed % 10, kind="hermitian", trace_mode="generic", seed=seed)
        case = random_case(spec)
        excess = frobenius_norm(np.triu(case.schur_tilde.t, 1))
        report = evaluate_all(case)
        via_tilde, via_e = report.value_of("thm_4_3_a"), report.value_of("thm_4_3_b")
        tol = 1e-12 * max(1.0, frobenius_norm(case.e))
        assert via_tilde >= excess - tol
        assert abs(via_tilde - via_e) <= tol


def test_rotated_residual_relations_hermitian():
    for seed in range(20):
        spec = EnsembleSpec(n=2 + seed % 10, kind="hermitian", trace_mode="generic", seed=50 + seed)
        case = random_case(spec)
        r = rotated_perturbation_residual(case)
        report = evaluate_all(case)
        slack = 1e-9 * (1.0 + frobenius_norm(case.e))
        assert report.d2 <= r + slack
        for bid in ("eq_4_6a", "eq_4_6b", "eq_4_6c", "eq_4_6d", "eq_4_6e"):
            assert r <= report.value_of(bid) + slack


def test_distance_bounds_dominate_d2_on_random_cases():
    for seed in range(40):
        kind = ("normal", "hermitian", "normal-blocked")[seed % 3]
        spec = EnsembleSpec(n=2 + seed % 11, kind=kind, trace_mode="generic", seed=seed)
        case = random_case(spec)
        report = evaluate_all(case)
        assert report.violations == ()
        assert report.d_inf <= report.d2 + 1e-14


def test_block_count_refines_dimension_baseline():
    spec = EnsembleSpec(n=8, kind="normal-blocked", trace_mode="generic", seed=5)
    case = random_case(spec)
    assert case.block.s >= 2
    report = evaluate_all(case)
    assert report.value_of("eq_1_5") < report.value_of("eq_1_4")
    assert report.value_of("eq_3_11a") <= report.value_of("eq_3_5a") + 1e-12


def test_inconsistent_radicand_raises():
    from spectra_perturb.bounds import _safe_sqrt

    with pytest.raises(NumericalConsistencyError):
        _safe_sqrt(-1.0, 1.0, "test")
    # within round-off slack the radicand clamps to zero instead
    assert _safe_sqrt(-1e-12, 1.0, "test") == 0.0
    # one radicand per case of a stack: a single bad entry raises and is named
    radicands = np.array([4.0, -1e-12, 9.0, -1.0])
    with pytest.raises(NumericalConsistencyError, match=r"test \(entry 3\)") as info:
        _safe_sqrt(radicands, np.ones(4), "test")
    assert info.value.entry == 3
    # an entry whose value is not reported is not checked; the others
    # clamp within the slack
    on = np.array([True, True, True, False])
    roots = _safe_sqrt(radicands, np.ones(4), "test", on)
    assert roots[:3].tolist() == [2.0, 0.0, 3.0]
    assert roots[3] == 0.0
    # the slack scales per entry
    assert _safe_sqrt(np.array([-1e-8, -1e-8]), np.array([1e2, 1e2]), "test").tolist() == [0.0, 0.0]
    with pytest.raises(NumericalConsistencyError, match="entry 1"):
        _safe_sqrt(np.array([-1e-8, -1e-8]), np.array([1e2, 1.0]), "test")


# ---------------------------------------------------------------------------
# the spectrum of A


def test_hermitian_base_d2_comes_from_eigvalsh(rng):
    for n in (2, 5, 12):
        a = haar_rotated_diagonal(rng, n, real_spectrum=True)
        a = (a + a.conj().T) / 2  # Hermitian to the last bit
        case = make_case(a, random_complex(rng, (n, n)))
        assert case.a_is_hermitian
        report = evaluate_all(case)
        expected = optimal_match(np.linalg.eigvalsh(a), case.schur_tilde.eigenvalues)
        assert report.d2 == expected.d2


def test_normal_base_mix_uses_the_spectral_norm(rng):
    for n in (2, 6, 11):
        a = haar_rotated_diagonal(rng, n)
        case = make_case(a, random_complex(rng, (n, n)))
        assert not case.a_is_hermitian
        tol_factor = bounds_module.VIOLATION_TOL_FACTOR
        st = bounds_module._evaluate(case._cases, tol_factor).stats
        expected = min(frobenius_norm(a), math.sqrt(n - 1) * np.linalg.norm(a, 2))
        assert abs(st.mix - expected) <= 1e-12 * expected


def test_base_hermitian_only_at_tolerance(rng):
    # H + 1e-12 K with K skew-Hermitian: Hermitian at tolerance, not bitwise
    n = 8
    h = haar_rotated_diagonal(rng, n, real_spectrum=True)
    h = (h + h.conj().T) / 2
    k = random_complex(rng, (n, n))
    a = h + 1e-12 * (k - k.conj().T)
    assert not np.array_equal(a, a.conj().T)
    case = make_case(a, random_complex(rng, (n, n)))
    assert case.a_is_hermitian
    report = evaluate_all(case)
    reference = optimal_match(eigenvalues(a), case.schur_tilde.eigenvalues).d2
    assert abs(report.d2 - reference) <= 1e-9 * (1.0 + frobenius_norm(a))
    assert report.violations == ()
