import math

import numpy as np
import pytest

from spectra_perturb import (
    FIXTURE_NAMES,
    CampaignConfig,
    KINDS,
    PHI_EXAMPLE_UNITARY,
    TRACE_MODES,
    EnsembleSpec,
    delta,
    derive_trial_seed,
    fixture,
    fixture_expectations,
    fixture_matrices,
    frobenius_norm,
    is_hermitian,
    is_normal,
    random_case,
)

from spectra_perturb import ensembles
from spectra_perturb.bounds import _make_cases

from conftest import haar_rotated_diagonal, random_complex, rng_for, schur_residuals


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(n=1)
    with pytest.raises(ValueError):
        EnsembleSpec(n=4, kind="diagonal")
    with pytest.raises(ValueError):
        EnsembleSpec(n=4, trace_mode="none")
    with pytest.raises(ValueError):
        EnsembleSpec(n=4, perturbation_scale=0.0)
    with pytest.raises(ValueError):
        EnsembleSpec(n=4, seed=1.5)
    spec = EnsembleSpec(n=4)
    assert spec.kind in KINDS and spec.trace_mode in TRACE_MODES


def test_draws_are_bit_reproducible():
    for kind in KINDS:
        spec = EnsembleSpec(n=7, kind=kind, trace_mode="generic", seed=123456789)
        c1, c2 = random_case(spec), random_case(spec)
        assert np.array_equal(c1.a, c2.a) and np.array_equal(c1.e, c2.e)
        assert np.array_equal(c1.schur_tilde.t, c2.schur_tilde.t)


@pytest.mark.parametrize("kind", ["normal", "hermitian"])
def test_random_case_matches_an_independent_draw(kind):
    # the library re-keys one Philox generator per batch; the draws must
    # be those of a fresh generator, consumed in the documented order:
    # the Haar-rotated base first, then the perturbation
    for n, seed in ((2, 0), (7, 123456789), (12, (1 << 64) - 1)):
        spec = EnsembleSpec(n=n, kind=kind, perturbation_scale=0.5, seed=seed)
        case = random_case(spec)
        rng = rng_for(seed)
        a = haar_rotated_diagonal(rng, n, real_spectrum=(kind == "hermitian"))
        if kind == "hermitian":
            a = (a + a.conj().T) / 2.0
        e = random_complex(rng, (n, n))
        e = e * (0.5 / np.linalg.norm(e, "fro"))
        assert np.array_equal(case.a, a)
        assert np.array_equal(case.e, e)


def test_different_seeds_differ():
    for kind in KINDS:
        c1 = random_case(EnsembleSpec(n=5, kind=kind, seed=1))
        c2 = random_case(EnsembleSpec(n=5, kind=kind, seed=2))
        assert not np.allclose(c1.a, c2.a)
        assert not np.allclose(c1.e, c2.e)


def test_kind_structure():
    for seed in range(10):
        m = random_case(EnsembleSpec(n=6, kind="normal", seed=seed)).a
        assert is_normal(m)
        h = random_case(EnsembleSpec(n=6, kind="hermitian", seed=seed)).a
        assert np.array_equal(h, h.conj().T)  # exact by construction
        assert is_hermitian(h)


def test_perturbation_norm_and_trace_modes():
    for kind in KINDS:
        for seed in range(100):
            e = random_case(
                EnsembleSpec(n=5, kind=kind, trace_mode="zero", perturbation_scale=0.75, seed=seed)
            ).e
            assert abs(frobenius_norm(e) - 0.75) <= 1e-13
            assert abs(np.trace(e)) <= 1e-12 * frobenius_norm(e)
            # trace projected out means delta saturates the norm
            assert abs(delta(e) - frobenius_norm(e)) <= 1e-12
            g = random_case(EnsembleSpec(n=5, kind=kind, trace_mode="generic", seed=seed)).e
            assert abs(frobenius_norm(g) - 1.0) <= 1e-13
            assert delta(g) < frobenius_norm(g)


def test_case_kinds_everything_consistent():
    for seed in range(15):
        spec = EnsembleSpec(n=6, kind="hermitian", trace_mode="generic", seed=seed)
        case = random_case(spec)
        assert case.a_is_hermitian
        assert abs(frobenius_norm(case.e) - 1.0) <= 1e-12
        assert np.allclose(case.a + case.e, case.a_tilde)


def test_blocked_cases_have_structure():
    for seed in range(25):
        spec = EnsembleSpec(n=9, kind="normal-blocked", trace_mode="generic", seed=seed)
        case = random_case(spec)
        assert case.a_is_normal
        assert case.block.s >= 2
        assert abs(frobenius_norm(case.e) - 1.0) <= 1e-12
        form = case.schur_tilde
        tol = 1e-10 * case.n * max(1.0, frobenius_norm(case.a_tilde))
        assert all(res <= tol for res in schur_residuals(case.a_tilde, form))
        assert np.array_equal(form.eigenvalues, np.diag(form.t))
        # the constructed triangular factor really is block triangular:
        # the block count survives re-detection on the stored form
        sizes = case.block.sizes
        assert sum(sizes) == case.n


def test_blocked_zero_trace_mode():
    for seed in range(10):
        spec = EnsembleSpec(n=7, kind="normal-blocked", trace_mode="zero", seed=seed)
        case = random_case(spec)
        assert abs(np.trace(case.e)) <= 1e-11 * frobenius_norm(case.e)


def _blocked_cases_seed_by_seed(n, seeds, scale, trace_mode):
    # The blocked generator as one loop over the seeds, every step per
    # seed, with the canonical order as a Python sort key: the reference
    # for the stacked generator, which must give the same bits.
    m = n * n
    z = np.empty((len(seeds), 2 * m))
    t = np.zeros((len(seeds), n, n), dtype=np.complex128)
    mu = np.empty((len(seeds), n), dtype=np.complex128)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    stream = ensembles._Stream()
    for i, seed in enumerate(seeds):
        rng = stream.reset(seed)
        rng.standard_normal(out=z[i])
        draw = ensembles._complex_gaussian(rng, n)
        lam = np.array(sorted(draw, key=lambda x: (-abs(x), -x.real, -x.imag)))
        s = int(rng.integers(2, n + 1))
        cuts = np.sort(rng.choice(np.arange(1, n), size=s - 1, replace=False))
        block_of = np.zeros(n, dtype=int)
        block_of[cuts] = 1
        block_of = np.cumsum(block_of)
        inside = upper & (block_of[:, None] == block_of[None, :])
        nu = ensembles._complex_gaussian(rng, n)
        noise = ensembles._complex_gaussian(rng, int(inside.sum()))
        if trace_mode == "zero":
            nu -= nu.mean()
        total = math.sqrt(float(np.sum(np.abs(nu) ** 2) + np.sum(np.abs(noise) ** 2)))
        factor = scale / total
        nu *= factor
        noise *= factor
        np.fill_diagonal(t[i], lam)
        t[i][inside] = noise
        mu[i] = lam - nu
    u = ensembles._haar_unitaries((z[:, :m] + 1j * z[:, m:]).reshape(-1, n, n))
    a = ensembles._normal_matrices(u, mu)
    a_tilde = u @ t @ u.conj().transpose(0, 2, 1)
    return _make_cases(a, a_tilde - a, u, t)


@pytest.mark.parametrize("trace_mode", TRACE_MODES)
def test_blocked_generator_equals_the_seed_by_seed_reference(trace_mode):
    for n in range(2, 13):
        seeds = [derive_trial_seed(1000 * n + 7, trial) for trial in range(29)] + [(1 << 64) - 1]
        stacked = ensembles._blocked_cases(n, seeds, 0.7, trace_mode)
        reference = _blocked_cases_seed_by_seed(n, seeds, 0.7, trace_mode)
        for name in ("a", "e", "q", "t", "eigenvalues"):
            assert np.array_equal(getattr(stacked, name), getattr(reference, name)), (n, name)


def test_trial_seed_derivation():
    assert derive_trial_seed(0, 0) == 0
    assert derive_trial_seed(42, 0) == 42
    assert derive_trial_seed(42, 1) == 43
    assert derive_trial_seed(2**64 - 1, 1) == 2**64 - 2
    with pytest.raises(ValueError):
        derive_trial_seed(42, -1)


def test_fixture_names_and_errors():
    assert FIXTURE_NAMES == ("intro_2x2", "phi_example", "example_4_4")
    with pytest.raises(ValueError):
        fixture_matrices("unknown")
    with pytest.raises(ValueError):
        fixture_matrices("intro_2x2", n=3)
    with pytest.raises(ValueError):
        fixture_matrices("example_4_4", n=2)


def test_fixture_sizes_follow_one_rule():
    for name, n in (("intro_2x2", 5), ("phi_example", 3), ("example_4_4", 2)):
        with pytest.raises(ValueError) as matrices_error:
            fixture_matrices(name, n)
        with pytest.raises(ValueError) as expectations_error:
            fixture_expectations(name, n)
        assert str(matrices_error.value) == str(expectations_error.value)
    for name in FIXTURE_NAMES:
        a, _ = fixture_matrices(name)
        assert fixture_expectations(name)["n"] == a.shape[0] == fixture(name).n
    assert fixture_expectations("example_4_4")["n"] == 5


def test_draw_parameters_are_refused_with_one_message():
    bad = (
        {"kind": "dense"},
        {"trace_mode": "none"},
        {"perturbation_scale": 0.0},
        {"seed": 1.5},
    )
    for fields in bad:
        with pytest.raises(ValueError) as spec_error:
            EnsembleSpec(n=2, **fields)
        with pytest.raises(ValueError) as config_error:
            CampaignConfig(trials=1, **fields)
        assert str(spec_error.value) == str(config_error.value)
        assert repr(next(iter(fields.values()))) in str(spec_error.value)


def test_intro_fixture_matrices_exact():
    a, e = fixture_matrices("intro_2x2")
    assert np.array_equal(a, np.array([[0, 0], [0, 3]], dtype=complex))
    assert np.array_equal(a + e, np.array([[-1, -1], [1, 1]], dtype=complex))


def test_phi_fixture_matrices_exact():
    a, e = fixture_matrices("phi_example")
    assert np.array_equal(a, np.diag([1 + 1j, 2.0]))
    u = PHI_EXAMPLE_UNITARY
    # the perturbed matrix is exactly the rotation of a into the u basis
    assert np.allclose(a + e, u.conj().T @ a @ u, atol=1e-15)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-15)


def test_shifted_identity_fixture_matrices():
    a, e = fixture_matrices("example_4_4", 6)
    assert a[0, 1] == a[1, 0] == 1.0 and a[0, 0] == a[1, 1] == 0.0
    assert all(a[i, i] == 1.0 for i in range(2, 6))
    assert e[1, 0] == -1.0
    assert all(e[i, i] == -1.0 for i in range(2, 6))
    assert float(np.sum(np.abs(e) ** 2)) == 5.0
    # default size when n is omitted
    a5, _ = fixture_matrices("example_4_4")
    assert a5.shape == (5, 5)


def test_fixture_cases_assemble():
    case = fixture("intro_2x2")
    assert case.a_is_hermitian
    case = fixture("phi_example")
    assert case.a_is_normal and not case.a_is_hermitian
    case = fixture("example_4_4", 8)
    assert case.a_is_hermitian and case.n == 8


def test_fixture_expectation_tables():
    intro = fixture_expectations("intro_2x2")
    assert intro["d2"] == 3.0
    assert abs(intro["e_norm"] - math.sqrt(7.0)) < 1e-15
    assert intro["excess"] == 2.0
    assert "eq_1_4" in intro["bounds"]

    phi = fixture_expectations("phi_example")
    assert phi["d2"] == 0.0
    assert abs(phi["phi1_base"] - (6 - 2 * math.sqrt(5))) < 1e-15
    assert phi["phi1_rotated"] == phi["phi2_rotated"] == phi["phi3_rotated"] == 1.0

    ex = fixture_expectations("example_4_4", 9)
    assert abs(ex["d2"] - 3.0) < 1e-15
    assert ex["e_norm_sq"] == 8.0
    assert ex["excess"] == 1.0
    assert ex["block_count"] == 8
    assert set(ex["bounds"]) == {"eq_4_6a", "eq_4_6b", "eq_4_6c", "eq_4_6d", "eq_4_6e"}
    with pytest.raises(ValueError):
        fixture_expectations("unknown")
