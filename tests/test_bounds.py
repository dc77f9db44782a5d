import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_perturb import bounds as bounds_module
from spectra_perturb import decomp, matrices
from spectra_perturb.decomp import _ranks
from spectra_perturb.ensembles import _draw_cases, _haar_unitaries

from spectra_perturb import (
    CATALOG_IDS,
    D2_BOUND_IDS,
    FIXTURE_NAMES,
    KINDS,
    EnsembleSpec,
    NumericalConsistencyError,
    SchurForm,
    brute_force_match,
    catalog_entries,
    delta,
    delta_spectral_form,
    departure_from_normality,
    eigenvalues,
    evaluate_all,
    family_of,
    fixture,
    fixture_expectations,
    fixture_matrices,
    frobenius_norm,
    henrici_delta_upper,
    is_hermitian,
    is_normal,
    make_case,
    optimal_match,
    phi1,
    phi2,
    phi3,
    random_case,
    rotated_perturbation,
    rotated_perturbation_residual,
    sun_delta_lower,
    w_lower,
)

from conftest import case_stacks, haar_rotated_diagonal, random_complex, rng_for, unit_hermitian


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


def test_make_case_computes_the_hermitian_flags_once(monkeypatch):
    # the normality gate's flags are the case's: _make_cases is handed
    # them and does not test A again
    calls = []
    is_hermitian = bounds_module._is_hermitian
    monkeypatch.setattr(bounds_module, "_is_hermitian", lambda *args: calls.append(args[0].shape) or is_hermitian(*args))
    for a, hermitian in ((np.diag([1.0, 2.0]), True), (np.diag([1.0j, 2.0]), False)):
        calls.clear()
        assert make_case(a, np.ones((2, 2))).a_is_hermitian is hermitian
        assert calls == [(1,)]


def _fro(m):
    return np.linalg.norm(m, "fro")


@pytest.mark.parametrize("kind", KINDS)
def test_every_stage_norm_is_the_numpy_norm_of_its_matrix(kind, monkeypatch):
    # each stage writes the stacks it needs norms of into one buffer and
    # takes them in one _fro_norms call; every norm must keep the bits of
    # np.linalg.norm of its matrix alone, in row-major order (np.triu of
    # the Fortran-ordered t is C-ordered)
    fro_norms, calls = matrices._fro_norms, []

    def checked(m):
        norms = fro_norms(m)
        calls.append(len(m))
        assert norms.tolist() == [_fro(np.ascontiguousarray(x)) for x in m]
        return norms

    for module in (matrices, decomp, bounds_module):
        monkeypatch.setattr(module, "_fro_norms", checked)
    for n in (2, 3, 7, 12, 40):
        cases = _draw_cases(kind, n, range(6), 1.0, "generic")
        stats = bounds_module._matrix_stats(cases)
        for i, (a, e, a_tilde, t) in enumerate(zip(cases.a, cases.e, cases.a_tilde, cases.t)):
            assert (cases.a_norm[i], cases.e_norm[i], cases.tilde_norm[i]) == (_fro(a), _fro(e), _fro(a_tilde))
            h = a_tilde.conj().T
            assert stats["excess"][i] == _fro(np.triu(t, 1))
            assert stats["defect"][i] == _fro(a_tilde @ h - h @ a_tilde)
    assert calls


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    # per case: the binary exponents of A and E, and whether A is Hermitian
    exponents=st.lists(
        st.tuples(st.integers(-1074, 989), st.integers(-1074, 989), st.booleans()), min_size=1, max_size=5
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_make_cases_takes_the_exponents_and_flags_of_unit(n, exponents, seed):
    # _make_cases takes each matrix's largest entry once for both A's own
    # exponent and the pair's; its exponents, scaled pairs and Hermitian
    # flags (tested at A's own unit scale) must be those of matrices._unit,
    # with the largest entries anywhere from 2^-1074 to 2^989
    rng = rng_for(seed)
    a, e = random_complex(rng, (2, len(exponents), n, n))
    for i, (pa, pe, hermitian) in enumerate(exponents):
        if hermitian:
            a[i] = (a[i] + a[i].conj().T) / 2
        a[i] = np.ldexp(a[i].view(float), pa).view(complex)
        e[i] = np.ldexp(e[i].view(float), pe).view(complex)
    cases = bounds_module._make_cases(case_stacks(a, e))
    own_unit, _ = matrices._unit(a)
    _, exponent = matrices._unit(np.concatenate([a, e], axis=2))
    assert np.array_equal(cases.exponent, exponent)
    assert np.array_equal(cases.a, matrices._scaled(a, -exponent))
    assert np.array_equal(cases.e, matrices._scaled(e, -exponent))
    flags = [_fro(m - m.conj().T) <= matrices._TOLERANCES["hermitian"](_fro(m)) for m in own_unit]
    assert cases.hermitian.tolist() == flags


def test_make_case_reorders_the_computed_schur_form():
    # diag(1, 3) takes the triangular fast path (q = I, t = diag(1, 3)),
    # which has ascending moduli; the case must come out ordered, its
    # eigenvalues read off t
    a = np.diag([1.0, 3.0])
    e = np.zeros((2, 2))
    case = make_case(a, e)
    lam = case.schur_tilde.eigenvalues
    assert abs(lam[0]) >= abs(lam[1])
    assert abs(lam[0] - 3.0) < 1e-14
    assert np.array_equal(lam, np.diag(case.schur_tilde.t))


def test_make_case_takes_no_schur_form():
    # a case's Schur form is always computed: in the canonical order it is
    # unique up to diagonal phases, so a supplied one would add nothing
    form = SchurForm(q=np.eye(2, dtype=complex), t=np.diag([3.0, 1.0]).astype(complex))
    with pytest.raises(TypeError, match="schur"):
        make_case(np.diag([1.0, 3.0]), np.zeros((2, 2)), schur=form)


def test_case_attributes_are_read_only():
    case = fixture("intro_2x2")
    names = ("a", "e", "a_tilde", "n", "a_is_normal", "a_is_hermitian", "schur_tilde", "block")
    for name in names:
        with pytest.raises(AttributeError):
            setattr(case, name, getattr(case, name))
    with pytest.raises(AttributeError):
        case.extra = 1


def test_case_arrays_are_read_only():
    # a write into a case's arrays would leave its Schur form, blocks and
    # flags stale: A[1, 1] = 100 on the 2x2 example gave d2 = 100 and four
    # violated bounds
    a, e = np.diag([1.0, 3.0]), np.zeros((2, 2))
    copied = make_case(a, e)
    cases = [fixture("intro_2x2"), copied]
    # normal-blocked reorders the generator's own Schur form
    cases += [random_case(EnsembleSpec(n=4, kind=kind, seed=3)) for kind in KINDS]
    for case in cases:
        form = case.schur_tilde
        for m in (case.a, case.e, case.a_tilde, form.q, form.t):
            with pytest.raises(ValueError, match="read-only"):
                m[1, 1] = 100.0
    assert evaluate_all(fixture("intro_2x2")).violations == ()
    # make_case copies its inputs, so the caller's arrays stay writable
    a[1, 1] = 100.0
    assert copied.a[1, 1] == 3.0


@pytest.mark.parametrize("tol_factor", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_tolerance_factor_must_be_finite_and_positive(tol_factor):
    # the violation slack is a row of the tolerance table: evaluate_all takes
    # no factor, so no invalid one reaches the catalog
    with pytest.raises(TypeError, match="tol_factor"):
        evaluate_all(fixture("intro_2x2"), tol_factor=tol_factor)


def test_evaluate_all_evaluates_the_stack_make_case_built(monkeypatch):
    seen = []
    original = bounds_module._evaluate_block

    def spy(k, stacks):
        stacks = list(stacks)
        seen.append((k, [cases for _, cases in stacks]))
        return original(k, stacks)

    monkeypatch.setattr(bounds_module, "_evaluate_block", spy)
    case = fixture("example_4_4")
    evaluate_all(case)
    assert len(seen) == 1 and seen[0][0] == 1
    assert len(seen[0][1]) == 1 and seen[0][1][0] is case._cases


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


def _ids_where(key: str, value=True) -> set:
    return {entry["id"] for entry in catalog_entries() if entry[key] == value}


DELTA_ESTIMATE_IDS = _ids_where("family", "delta_estimate")


def test_catalog_applicability_flags():
    assert [entry["id"] for entry in catalog_entries()] == list(CATALOG_IDS)
    assert _ids_where("requires_hermitian") == {
        "eq_1_6", "eq_1_8", "eq_1_9",
        "eq_4_6a", "eq_4_6b", "eq_4_6c", "eq_4_6d", "eq_4_6e",
        "thm_4_3_a", "thm_4_3_b",
    }
    assert _ids_where("depends_on_schur_choice") == {
        "eq_3_3a", "eq_3_3b", "eq_3_3c", "eq_3_3d", "eq_3_4a", "eq_3_4b",
    }
    assert DELTA_ESTIMATE_IDS == {"henrici_3_6", "sun_3_7", "thm_4_3_a", "thm_4_3_b"}
    assert set(D2_BOUND_IDS) | DELTA_ESTIMATE_IDS == set(CATALOG_IDS)
    assert not set(D2_BOUND_IDS) & DELTA_ESTIMATE_IDS


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
    """The per-case quantities the distance bounds read, at the case's
    unit scale, as Python scalars, with the exponent p that scales a bound
    back (2^p)."""
    st = bounds_module._Stats(1, [(slice(None), case._cases)])
    fields = ("n", "exponent", "e_norm", "excess", "delta_e", "delta_a", "w", "s", "mix")
    return SimpleNamespace(**{name: getattr(st, name)[0].item() for name in fields})


def test_distance_bounds_equal_their_scalar_formulas():
    assert tuple(SCALAR_BOUNDS) == D2_BOUND_IDS
    cases = [fixture(name) for name in FIXTURE_NAMES]
    for kind in KINDS:
        for trace_mode in ("zero", "generic"):
            for n in range(2, 13):
                spec = EnsembleSpec(n=n, kind=kind, trace_mode=trace_mode, seed=100 + n)
                cases.append(random_case(spec))
    checked = set()
    exponents = set()
    for case in cases:
        st = _scalar_stats(case)
        exponents.add(st.exponent)
        for bv in evaluate_all(case).bounds:
            if bv.applicable and bv.id in SCALAR_BOUNDS:
                # the catalog runs at unit scale and scales back exactly
                expected = math.ldexp(SCALAR_BOUNDS[bv.id](st), st.exponent)
                assert repr(bv.value) == repr(expected), (bv.id, case.n)
                checked.add(bv.id)
    assert checked == set(D2_BOUND_IDS)
    assert {0, -2} <= exponents


def test_henrici_factor_is_the_python_float_power():
    # numpy's power of an array rounds ((n^3 - n) / 12)^(1/4) unlike
    # Python's float power at n = 16 and 68, among others
    for n in (16, 68):
        case = random_case(EnsembleSpec(n=n, seed=n))
        st = bounds_module._evaluate_block(1, [(slice(None), case._cases)])
        # the defect is at the case's unit scale, the value scaled back
        at_unit_scale = ((n**3 - n) / 12.0) ** 0.25 * math.sqrt(st.defect[0].item())
        expected = math.ldexp(at_unit_scale, st.exponent[0].item())
        assert repr(evaluate_all(case).value_of("henrici_3_6")) == repr(expected)


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


def _hermitian_pair(rng, n, inner=None):
    """A Hermitian A and E = G1 G2 - A with inner dimension ``inner``
    (A + E of that rank), or a generic E when it is None."""
    a = unit_hermitian(rng, n)
    if inner is None:
        return a, random_complex(rng, (n, n)) / n
    return a, random_complex(rng, (n, inner)) @ random_complex(rng, (inner, n)) - a


@pytest.mark.parametrize(
    "name, inner, svd_calls, rank",
    [("generic", None, [], 64), ("rank_8", 8, [1], 8), ("intro_2x2", None, [1], 1)],
)
def test_the_rank_takes_an_svd_only_where_the_schur_factor_leaves_it_open(name, inner, svd_calls, rank, monkeypatch):
    # the Schur factor certifies a generic pair's rank, so no SVD runs; a
    # rank-deficient A + E takes one, and every value is that of the SVD
    # alone (the certificate turned off)
    case = fixture(name) if name == "intro_2x2" else make_case(*_hermitian_pair(rng_for(64), 64, inner))
    calls = []
    monkeypatch.setattr(bounds_module, "_ranks", lambda m: calls.append(len(m)) or _ranks(m))
    report = evaluate_all(case)
    assert calls == svd_calls
    st = bounds_module._evaluate_block(1, [(slice(None), case._cases)])
    assert st.rank.tolist() == [rank]
    monkeypatch.setattr(bounds_module, "_full_rank", lambda t: np.zeros(len(t), dtype=bool))
    assert repr(evaluate_all(case)) == repr(report)
    if name == "intro_2x2":
        assert report.value_of("thm_4_3_a") == report.value_of("thm_4_3_b") == 2.0
    else:
        # tr K != 0, so thm_4_3_* divide by the rank
        assert st.skew_tilde_trace[0] > 0.0 and report.value_of("thm_4_3_a") is not None


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
    assert flagged == applicable - DELTA_ESTIMATE_IDS
    assert "henrici_3_6" not in flagged


# ---------------------------------------------------------------------------
# collapse of the parametrized families onto their worst-case forms


def test_block_family_collapses_at_single_cluster():
    spec = EnsembleSpec(n=6, kind="normal", trace_mode="generic", seed=11)
    case = random_case(spec)
    assert len(case.block) == 1  # generic spectra give one dense cluster
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


@pytest.mark.parametrize("eps", [1e-6, 1e-9])
def test_sun_estimate_keeps_its_digits_at_a_small_excess(eps):
    # M = [[1, eps], [0, 2]]: d^2 / 2 = eps^2 + eps^4 and ||M||_F^2 = 5 + eps^2,
    # so the estimate is eps / sqrt(10) to a relative O(eps^2); written as a
    # difference of squares it kept only the square root of one ulp of 25
    value = sun_delta_lower(np.array([[1.0, eps], [0.0, 2.0]]))
    assert abs(value - eps / math.sqrt(10.0)) <= 1e-9 * eps / math.sqrt(10.0)


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
    assert len(case.block) >= 2
    report = evaluate_all(case)
    assert report.value_of("eq_1_5") < report.value_of("eq_1_4")
    assert report.value_of("eq_3_11a") <= report.value_of("eq_3_5a") + 1e-12


def test_inconsistent_radicand_raises():
    from spectra_perturb.bounds import _safe_sqrt

    with pytest.raises(NumericalConsistencyError):
        _safe_sqrt(-1.0, 1e-9, "test")
    # within round-off slack the radicand clamps to zero instead
    assert _safe_sqrt(-1e-12, 1e-9, "test") == 0.0
    # one radicand per case of a stack: a single bad entry raises and is named
    radicands = np.array([4.0, -1e-12, 9.0, -1.0])
    with pytest.raises(NumericalConsistencyError, match=r"test \(entry 3\)") as info:
        _safe_sqrt(radicands, np.full(4, 1e-9), "test")
    assert info.value.entry == 3
    # the core computes a radicand and its slack at the case's unit scale
    assert "negative beyond round-off slack 1.000e-09, both at the case's unit scale" in str(info.value)
    # an entry whose value is not reported is not checked; the others
    # clamp within the slack
    on = np.array([True, True, True, False])
    roots = _safe_sqrt(radicands, np.full(4, 1e-9), "test", on)
    assert roots[:3].tolist() == [2.0, 0.0, 3.0]
    assert roots[3] == 0.0
    # the slack is per entry
    assert _safe_sqrt(np.array([-1e-8, -1e-8]), np.array([1e-7, 1e-7]), "test").tolist() == [0.0, 0.0]
    with pytest.raises(NumericalConsistencyError, match="entry 1"):
        _safe_sqrt(np.array([-1e-8, -1e-8]), np.array([1e-7, 1e-9]), "test")


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
        st = bounds_module._evaluate_block(1, [(slice(None), case._cases)])
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


# ---------------------------------------------------------------------------
# scale invariance: the tests of structure are relative, so scaling a pair
# changes no hypothesis


def test_scaled_example_keeps_its_hypotheses():
    # scaling a pair scales d2 and every bound and changes no hypothesis;
    # the nilpotent A + E must stay non-normal at 1e-8, where
    # hoffman_wielandt would read 2.6458e-8, below d2 = 3e-8
    case = fixture("intro_2x2")
    scaled = evaluate_all(make_case(1e-8 * case.a, 1e-8 * case.e))
    assert [bv.applicable for bv in scaled.bounds] == [bv.applicable for bv in evaluate_all(case).bounds]
    assert scaled.violations == ()


def test_make_case_refuses_a_small_non_normal_base():
    # at 1e-170 the squares of the commutator test underflowed to 0 before
    # the pair was scaled, and the Jordan block passed as a Hermitian A
    for s in (1e-6, 1e-170):
        with pytest.raises(ValueError, match="not normal"):
            make_case(s * np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))


def test_a_base_far_smaller_than_its_perturbation_keeps_its_structure():
    # at the pair's unit scale the squares of such an A underflow to 0, and
    # its structure tests read 0 <= 0: every A passed as Hermitian
    for kind in KINDS:
        unit = random_case(EnsembleSpec(n=4, kind=kind, seed=1))
        drawn = random_case(EnsembleSpec(n=4, kind=kind, seed=1, perturbation_scale=1e200))
        assert drawn.a_is_hermitian == unit.a_is_hermitian, kind
    assert not random_case(EnsembleSpec(n=4, kind="normal", seed=1, perturbation_scale=1e200)).a_is_hermitian
    with pytest.raises(ValueError, match="not normal"):
        make_case(1e-170 * np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones((2, 2)))


def test_scaling_a_draw_keeps_its_hypotheses_and_scales_d2():
    # an absolute floor on a test of structure makes a small enough
    # matrix pass it: with one, the normal draw at n = 4, seed 1 times
    # 1e-11 is called Hermitian, and eigvalsh reads half of its A
    scales = (1e-12, 1e-11, 1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e12)
    for kind in KINDS:
        for n in range(2, 9):
            for seed in range(10):
                case = random_case(EnsembleSpec(n=n, kind=kind, seed=seed))
                unit = evaluate_all(case)
                applicable = [bv.applicable for bv in unit.bounds]
                for c in scales:
                    scaled_case = make_case(c * case.a, c * case.e)
                    scaled = evaluate_all(scaled_case)
                    where = (kind, n, seed, c)
                    assert scaled_case.a_is_hermitian == case.a_is_hermitian, where
                    assert [bv.applicable for bv in scaled.bounds] == applicable, where
                    assert abs(scaled.d2 - c * unit.d2) <= 1e-12 * c * unit.d2, where


@pytest.mark.parametrize("scale", [1.0, 1e-6])
@pytest.mark.parametrize("kind", KINDS)
def test_a_unitary_similarity_moves_no_hypothesis_or_verdict(kind, scale):
    # (A, E) -> (V A V*, V E V*) with a Haar V moves the spectra, the norms
    # and the excess only by rounding: no flag, block count, applicability
    # or verdict may move, and d2 stays within 1e-9 S, S = 1 + ||A||_F +
    # ||E||_F.  So does each value, or else its square: a value is the
    # square root of a radicand, or of the defect of A + E, known to about
    # 2 n eps S^2, since the excess Delta is known to about n eps S (the
    # backward error of the Schur form) and a radicand holds at most 2 S
    # Delta.  Where A + E is normal, henrici_3_6 reads about sqrt(eps) S and
    # sun_3_7 about eps S on either side; at 1e-6 a bound whose x is of the
    # size of ||A|| (eq_1_7, eq_3_5f) moves by about 2 n eps S^2 / ||E||_F
    eps = float(np.finfo(np.float64).eps)
    for n in range(2, 9):
        for seed in range(10):
            drawn = random_case(EnsembleSpec(n=n, kind=kind, perturbation_scale=scale, seed=seed))
            a, e = drawn.a, drawn.e
            v = _haar_unitaries(random_complex(rng_for(1000 * n + seed), (1, n, n)))[0]
            case, rotated = make_case(a, e), make_case(v @ a @ v.conj().T, v @ e @ v.conj().T)
            report, moved = evaluate_all(case), evaluate_all(rotated)
            where = (kind, scale, n, seed)
            assert rotated.a_is_hermitian == case.a_is_hermitian, where
            assert len(rotated.block) == len(case.block), where
            assert moved.violations == report.violations, where
            size = 1.0 + frobenius_norm(a) + frobenius_norm(e)
            assert abs(moved.d2 - report.d2) <= 1e-9 * size, where
            for bv, ref in zip(moved.bounds, report.bounds):
                assert bv.applicable == ref.applicable, (bv.id, *where)
                if bv.applicable:
                    close = abs(bv.value - ref.value) <= 1e-9 * size
                    assert close or abs(bv.value**2 - ref.value**2) <= 2 * n * eps * size**2, (bv.id, *where)


# ---------------------------------------------------------------------------
# extreme scales: every case runs at its unit scale, so the only limit is
# that a reported number be finite (largest entry below 2^990)


def _scaled_pair(s: float):
    """diag(1, 3) s and [[0, 1], [1, 0]] s / 10: a Hermitian A, d2 about
    7.05e-3 s."""
    return np.diag([1.0, 3.0]) * s, np.array([[0.0, 1.0], [1.0, 0.0]]) * (s / 10)


def _assert_scaled_report(report, unit, s: float, rel: float):
    assert report.violations == unit.violations
    assert abs(report.d2 / s - unit.d2) <= rel * unit.d2
    assert abs(report.d_inf / s - unit.d_inf) <= rel * unit.d_inf
    for bv, ref in zip(report.bounds, unit.bounds):
        assert bv.applicable == ref.applicable, bv.id
        if bv.applicable:
            assert abs(bv.value / s - ref.value) <= rel * ref.value, bv.id


@pytest.mark.parametrize("s", [1e80, 1e160])
def test_make_case_accepts_a_pair_whose_fourth_powers_overflow(s):
    # before pairs were scaled, 1e80 overflowed ||A + E||_F^4 and sun_3_7
    # raised a false NumericalConsistencyError, 1e160 overflowed the
    # squared distances, and an overflow rule refused both
    unit = evaluate_all(make_case(*_scaled_pair(1.0)))
    _assert_scaled_report(evaluate_all(make_case(*_scaled_pair(s))), unit, s, 1e-12)


def test_make_case_refuses_a_pair_at_the_entry_limit():
    limit = math.ldexp(1.0, 990)
    a, e = np.diag([0.5, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]) / 10
    with pytest.raises(ValueError, match=r"entry of A and E is not below 2\^990"):
        make_case(limit * a, limit * e)
    with pytest.raises(ValueError, match=r"entry of A and E is not below 2\^990"):
        make_case(a, limit * np.array([[0.0, 1.0j], [1.0j, 0.0]]))
    below = np.nextafter(limit, 0.0)
    report = evaluate_all(make_case(below * a, below * e))
    values = [report.d2, report.d_inf, *(bv.value for bv in report.bounds if bv.applicable)]
    assert all(map(math.isfinite, values))
    _assert_scaled_report(report, evaluate_all(make_case(a, e)), below, 1e-12)


def test_make_case_accepts_a_pair_just_inside_the_range():
    # (2 (||A||_F + ||E||_F))^4 is about 1.9e306 at s = 1e76
    s = 1e76
    report = evaluate_all(make_case(*_scaled_pair(s)))
    unit = evaluate_all(make_case(*_scaled_pair(1.0)))
    assert report.violations == ()
    assert abs(report.d2 / s - unit.d2) <= 1e-12 * unit.d2
    for bv, ref in zip(report.bounds, unit.bounds):
        assert bv.applicable == ref.applicable
        if bv.applicable:
            assert abs(bv.value / s - ref.value) <= 1e-9 * ref.value


def test_a_tiny_pair_keeps_its_distance():
    d2 = evaluate_all(make_case(*_scaled_pair(1.0))).d2
    tiny = evaluate_all(make_case(*_scaled_pair(1e-170))).d2
    assert abs(tiny - 1e-170 * d2) <= 1e-9 * 1e-170 * d2


def test_a_scaled_pair_keeps_its_distance_from_1e_minus_300_to_1e290():
    unit = evaluate_all(make_case(*_scaled_pair(1.0)))
    for k in range(-300, 291, 10):
        s = 10.0**k
        report = evaluate_all(make_case(*_scaled_pair(s)))
        assert abs(report.d2 / s - unit.d2) <= 1e-13 * unit.d2, s
        _assert_scaled_report(report, unit, s, 1e-12)


@pytest.mark.parametrize("j", [-200, -1, 1, 200])
def test_a_power_of_4_scales_every_output_exactly(j):
    # a pair times 4^j has the same unit-scale pair, so every number comes
    # out as the unscaled one times 4^j, bit for bit
    f = 4.0**j
    pairs = [fixture_matrices(name) for name in FIXTURE_NAMES]
    for kind in KINDS:
        for seed in range(7):
            drawn = random_case(EnsembleSpec(n=2 + seed % 7, kind=kind, seed=seed))
            pairs.append((drawn.a, drawn.e))
    for a, e in pairs:
        case, scaled = make_case(a, e), make_case(f * a, f * e)
        report, unit = evaluate_all(scaled), evaluate_all(case)
        assert repr(report.d2) == repr(f * unit.d2)
        assert repr(report.d_inf) == repr(f * unit.d_inf)
        assert [repr(bv.value) for bv in report.bounds] == [
            repr(None if bv.value is None else f * bv.value) for bv in unit.bounds
        ]
        assert report.violations == unit.violations
        assert scaled.a_is_hermitian == case.a_is_hermitian
        assert np.array_equal(scaled.schur_tilde.t, f * case.schur_tilde.t)
        assert np.array_equal(scaled.schur_tilde.q, case.schur_tilde.q)


# 22 of the 220 pairs per kind behind the planted-defect table of the
# scale direction: n = 2 + i mod 11, seed i
_PLANTED_PAIRS = [(kind, 2 + i % 11, i) for kind in KINDS for i in range(22)]


def test_a_planted_defect_is_found_at_every_scale(monkeypatch):
    # d2 / 0.9 puts some distance bounds below d2; the violation slack is
    # relative to the largest entry, so the same cases report a violation
    # at every scale (before, none below about 1e-8, and 1e100 was refused)
    original = bounds_module.optimal_match

    def planted(*args, **kwargs):
        match = original(*args, **kwargs)
        return dataclasses.replace(match, d2=match.d2 / 0.9)

    monkeypatch.setattr(bounds_module, "optimal_match", planted)
    pairs = [random_case(EnsembleSpec(n=n, kind=kind, seed=seed)) for kind, n, seed in _PLANTED_PAIRS]
    counts = {}
    for c in (1.0, 1e-8, 1e-12, 4.0**-200, 1e100):
        counts[c] = sum(bool(evaluate_all(make_case(c * case.a, c * case.e)).violations) for case in pairs)
    assert len(set(counts.values())) == 1 and counts[1.0] > 0, counts


# ---------------------------------------------------------------------------
# the public single-matrix functions run at the matrix's unit scale


@pytest.mark.parametrize("s", [1e-170, 1e160])
def test_single_matrix_functions_scale_with_their_matrix(s):
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert not is_normal(s * jordan) and not is_hermitian(s * jordan)
    assert is_normal(s * np.diag([1.0j, 2.0])) and is_hermitian(s * np.diag([1.0, 2.0]))
    m = random_complex(rng_for(5), (4, 4))
    for fn in (frobenius_norm, delta, departure_from_normality, henrici_delta_upper, sun_delta_lower):
        unit = fn(m)
        assert abs(fn(s * m) / s - unit) <= 1e-12 * unit, fn.__name__


# ---------------------------------------------------------------------------
# every public numeric function is homogeneous, and runs at its input's unit
# scale: f(2^j M) = 2^(deg j) f(M) bit for bit for an even j.  At |j| = 520
# the squares of 2^j M over- or underflow, while 2^(deg j) f(M) is still a
# normal float.

_MATRIX = random_complex(rng_for(5), (4, 4))
_SPECTRA = tuple(random_complex(rng_for(6), (2, 5)))
_DRAWN = random_case(EnsembleSpec(n=5, seed=3))
_PAIR = (_DRAWN.a, _DRAWN.e)

_DEGREE_ONE = {
    "frobenius_norm": (frobenius_norm, (_MATRIX,)),
    "delta": (delta, (_MATRIX,)),
    "departure_from_normality": (departure_from_normality, (_MATRIX,)),
    "henrici_delta_upper": (henrici_delta_upper, (_MATRIX,)),
    "sun_delta_lower": (sun_delta_lower, (_MATRIX,)),
    "delta_spectral_form": (delta_spectral_form, _SPECTRA[:1]),
    "rotated_perturbation_residual": (lambda a, e: rotated_perturbation_residual(make_case(a, e)), _PAIR),
    "optimal_match": (lambda a, b: optimal_match(a, b).d2, _SPECTRA),
    "optimal_match.d_inf": (lambda a, b: optimal_match(a, b).d_inf, _SPECTRA),
    "brute_force_match": (lambda a, b: brute_force_match(a, b).d2, _SPECTRA),
}


@pytest.mark.parametrize("j", [-520, 520])
@pytest.mark.parametrize("name", list(_DEGREE_ONE))
def test_a_power_of_two_scales_a_function_of_degree_one_exactly(name, j):
    f, args = _DEGREE_ONE[name]
    unit = f(*args)
    assert unit > 0.0
    assert f(*(2.0**j * x for x in args)) == math.ldexp(unit, j)


@pytest.mark.parametrize("phi", [phi1, phi2, phi3])
def test_a_power_of_two_scales_each_phi_exactly(phi):
    # phi is of degree 2; here it is 2^-40 to rounding, so at j = 520 it
    # reads about 2^1000 while ||M||_F^2 is about 2^1041
    m = np.array([[1.0, 2.0**-20], [0.0, 1.0]])
    unit = phi(m)
    assert abs(unit - 2.0**-40) <= 2.0**-50
    assert phi(2.0**520 * m) == math.ldexp(unit, 1040)


@pytest.mark.parametrize("j", [-520, 520])
def test_a_power_of_two_moves_no_structure_test(j):
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    for m in (jordan, np.diag([1.0j, 2.0]), np.diag([1.0, 2.0]), _MATRIX, _PAIR[0]):
        assert is_normal(2.0**j * m) == is_normal(m)
        assert is_hermitian(2.0**j * m) == is_hermitian(m)
