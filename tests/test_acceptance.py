"""End-to-end acceptance checks.

Each test exercises one of the ten headline guarantees and registers a
pass/fail line that pytest prints in its terminal summary.  Tolerances
here are contractual: do not widen them.
"""

import json
import math
import time

import numpy as np

from spectra_perturb import (
    D2_BOUND_IDS,
    CampaignConfig,
    brute_force_match,
    delta,
    departure_from_normality,
    evaluate_all,
    fixture,
    fixture_expectations,
    fixture_matrices,
    frobenius_norm,
    henrici_delta_upper,
    optimal_match,
    phi1,
    phi2,
    phi3,
    random_case,
    rotated_perturbation,
    rotated_perturbation_residual,
    run_campaign,
    run_trial,
    schur_decompose,
    strict_lower,
    strict_upper,
    sun_delta_lower,
    w_lower,
    w_upper,
    EnsembleSpec,
    PHI_EXAMPLE_UNITARY,
)
from spectra_perturb.cli import main

from conftest import haar_rotated_diagonal, random_complex, rng_for


def test_worked_example_two_by_two(acceptance):
    acceptance.start(1, "2x2 worked example: d2 = 3 > sqrt(7) = ||E||, no bound below d2")
    fixture("intro_2x2")  # warm-up: BLAS + module state outside the timed region
    t0 = time.perf_counter()
    case = fixture("intro_2x2")
    report = evaluate_all(case)
    elapsed = time.perf_counter() - t0
    assert abs(report.d2 - 3.0) <= 1e-9
    assert abs(frobenius_norm(case.e) - math.sqrt(7.0)) <= 1e-12
    assert report.d2 > frobenius_norm(case.e)
    for bv in report.bounds:
        if bv.applicable and bv.id in D2_BOUND_IDS:
            assert bv.value >= 3.0 - 1e-8, bv.id
    assert report.violations == ()
    assert elapsed < 0.1
    acceptance.ok(1)


def test_phi_functionals_witness(acceptance):
    acceptance.start(2, "phi functionals hit their exact example values and move under rotation")
    m, _ = fixture_matrices("phi_example")
    rotated = PHI_EXAMPLE_UNITARY.conj().T @ m @ PHI_EXAMPLE_UNITARY
    expect = fixture_expectations("phi_example")
    assert abs(phi1(m) - (6.0 - 2.0 * math.sqrt(5.0))) <= 1e-12
    assert abs(phi2(m) - 0.0) <= 1e-12
    assert abs(phi3(m) - (3.0 - 2.0 * math.sqrt(2.0))) <= 1e-12
    assert abs(phi1(rotated) - 1.0) <= 1e-12
    assert abs(phi2(rotated) - 1.0) <= 1e-12
    assert abs(phi3(rotated) - 1.0) <= 1e-12
    assert abs(phi1(m) - expect["phi1_base"]) <= 1e-12
    # strictness in the stated directions
    assert phi1(m) > phi1(rotated)
    assert phi2(m) < phi2(rotated)
    assert phi3(m) < phi3(rotated)
    acceptance.ok(2)


def test_shifted_identity_sweep(acceptance):
    acceptance.start(3, "shifted-identity family: closed forms over n = 3..64")
    t0 = time.perf_counter()
    for n in range(3, 65):
        case = fixture("example_4_4", n)
        expect = fixture_expectations("example_4_4", n)
        report = evaluate_all(case)
        root_n = math.sqrt(n)
        assert abs(report.d2 - root_n) <= 1e-8
        assert abs(delta(case.e) - math.sqrt(3.0 - 4.0 / n)) <= 1e-9
        assert abs(delta(case.a) - 2.0 * math.sqrt(1.0 - 1.0 / n)) <= 1e-9
        excess = frobenius_norm(strict_upper(case.schur_tilde.t))
        assert abs(excess - 1.0) <= 1e-9
        assert abs(frobenius_norm(case.e) ** 2 - (n - 1)) <= 1e-9
        for bid, closed_form in expect["bounds"].items():
            value = report.value_of(bid)
            assert abs(value - closed_form) <= 1e-9, (n, bid)
            assert value >= root_n - 1e-12, (n, bid)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    acceptance.ok(3)


def test_domination_campaign_normal(acceptance, capsys):
    acceptance.start(4, "1000-trial normal campaign: every bound dominates d2")
    argv = [
        "verify", "--trials", "1000", "--n-min", "2", "--n-max", "12",
        "--kind", "normal", "--seed", "42",
    ]
    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["trials"] == 1000
    assert summary["violation_count"] == 0
    assert summary["check_failure_count"] == 0
    assert elapsed < 60.0
    acceptance.ok(4)


def test_hermitian_campaign_refinements(acceptance):
    acceptance.start(5, "1000-trial Hermitian campaign: refinement chain holds per trial")
    config = CampaignConfig(
        trials=1000, n_min=2, n_max=12, kind="hermitian", trace_mode="generic", seed=42
    )
    summary = run_campaign(config)
    assert summary.ok
    assert summary.trials == 1000
    tol = 1e-12
    for rec in (run_trial(config, i) for i in range(config.trials)):
        v = rec.values
        assert v["eq_4_6a"] <= v["eq_1_6"] + tol
        assert v["eq_4_6b"] <= v["eq_1_8"] + tol
        assert v["eq_4_6c"] <= v["eq_1_9"] + tol
        assert v["eq_4_6c"] <= v["eq_1_6"] + tol
        assert v["eq_4_6b"] <= rec.e_norm + rec.excess + tol
        assert v["eq_4_6c"] <= rec.e_norm + rec.excess + tol
        assert v["thm_4_3_a"] >= rec.excess - tol
        assert v["thm_4_3_b"] >= rec.excess - tol
        assert abs(v["thm_4_3_a"] - v["thm_4_3_b"]) <= tol
    acceptance.ok(5)


def test_sharpness_strictness_campaign(acceptance):
    acceptance.start(6, "sharpened bounds sit strictly inside their baselines off the null set")
    config = CampaignConfig(
        trials=500, n_min=2, n_max=12, kind="normal", trace_mode="generic", seed=42
    )
    summary = run_campaign(config)
    assert summary.ok  # the <= orderings are enforced inside every trial
    nonzero = summary.ordering["nonzero_trace_trials"]
    assert nonzero > 0
    for key in ("eq_3_5a<eq_1_4", "eq_3_11a<eq_1_5", "eq_3_5f<eq_1_7"):
        assert summary.ordering[key] >= 0.99 * nonzero, (key, summary.ordering)
    acceptance.ok(6)


def test_departure_sandwich(acceptance):
    acceptance.start(7, "departure from normality is enclosed by its two commutator estimates")
    rng = rng_for(77)
    for k in range(500):
        n = 2 + k % 15
        m = random_complex(rng, (n, n))
        dep = departure_from_normality(m)
        slack = 1e-9 * max(1.0, frobenius_norm(m))
        assert sun_delta_lower(m) <= dep + slack
        assert dep <= henrici_delta_upper(m) + slack
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert abs(sun_delta_lower(jordan) - 1.0) <= 1e-12
    assert abs(departure_from_normality(jordan) - 1.0) <= 1e-12
    assert abs(henrici_delta_upper(jordan) - 1.0) <= 1e-12
    acceptance.ok(7)


def test_matching_oracle_equivalence(acceptance):
    acceptance.start(8, "assignment matcher agrees with exhaustive search on small spectra")
    rng = rng_for(88)
    for n in range(2, 7):
        for _ in range(200):
            a = random_complex(rng, n)
            b = random_complex(rng, n)
            fast = optimal_match(a, b)
            brute = brute_force_match(a, b)
            assert abs(fast.d2 - brute.d2) <= 1e-12
    acceptance.ok(8)


def test_structural_identity_suite(acceptance):
    acceptance.start(9, "triangle and trace identities hold on 500 seeded cases")
    for k in range(500):
        kind = "hermitian" if k % 2 else "normal"
        n = 2 + k % 11
        case = random_case(EnsembleSpec(n=n, kind=kind, trace_mode="generic", seed=k))
        a, e = case.a, case.e
        a_norm = frobenius_norm(a)
        e_norm = frobenius_norm(e)

        # weighted band masses of the normal base must balance
        i, j = np.indices((n, n))
        skew = float(np.sum((j - i) * np.abs(a) ** 2))
        assert abs(skew) <= 1e-9 * a_norm**2

        # each triangle is controlled by the other through its bandwidth
        lo = frobenius_norm(strict_lower(a))
        up = frobenius_norm(strict_upper(a))
        w_tol = 1e-13 * a_norm
        assert up <= math.sqrt(w_lower(a, tol=w_tol)) * lo + 1e-9 * a_norm
        assert lo <= math.sqrt(w_upper(a, tol=w_tol)) * up + 1e-9 * a_norm

        # row-wise version
        u_part = strict_upper(a)
        for row in range(n):
            assert float(np.linalg.norm(u_part[row, :])) <= lo + 1e-9 * a_norm

        # off-diagonal mass of arbitrary matrices never exceeds delta^2
        for m in (case.a_tilde, rotated_perturbation(case)):
            off = frobenius_norm(strict_lower(m)) ** 2 + frobenius_norm(strict_upper(m)) ** 2
            assert off <= delta(m) ** 2 + 1e-12 * frobenius_norm(m) ** 2

        # rotated triangles of the base stay below the dimension-corrected delta
        q = np.linalg.qr(random_complex(rng_for(10_000 + k), (n, n)))[0]
        rotated_a = q.conj().T @ a @ q
        cap = math.sqrt((n - 1) / n) * delta(a) + 1e-9 * a_norm
        assert frobenius_norm(strict_upper(rotated_a)) <= cap
        assert frobenius_norm(strict_lower(rotated_a)) <= cap

        # the lower triangles of the rotated base and perturbation cancel
        rot_e = rotated_perturbation(case)
        rot_a = case.schur_tilde.q.conj().T @ a @ case.schur_tilde.q
        assert frobenius_norm(strict_lower(rot_a) + strict_lower(rot_e)) <= 1e-9 * (
            a_norm + e_norm
        )

        # Hermitian cases: the residual against the triangular excess
        # decomposes exactly into triangle masses
        if case.a_is_hermitian:
            r = rotated_perturbation_residual(case)
            lhs = r**2
            rhs = (
                e_norm**2
                + frobenius_norm(strict_lower(rot_e)) ** 2
                - frobenius_norm(strict_upper(rot_e)) ** 2
            )
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + e_norm**2)
    acceptance.ok(9)


def test_decomposition_quality(acceptance):
    acceptance.start(10, "Schur residuals stay below 1e-10 * n * max(1, norm) up to n = 32")
    rng = rng_for(1010)
    for k in range(500):
        n = 2 + k % 31
        m = random_complex(rng, (n, n))
        form = schur_decompose(m)
        cap = 1e-10 * n * max(1.0, frobenius_norm(m))
        assert frobenius_norm(form.q @ form.t @ form.q.conj().T - m) <= cap
        assert frobenius_norm(form.q.conj().T @ form.q - np.eye(n)) <= cap
        assert frobenius_norm(np.tril(form.t, -1)) <= cap
    acceptance.ok(10)
