import math
import sys
import threading

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
    optimal_match,
    random_case,
)

from spectra_perturb import bounds, decomp, ensembles
from spectra_perturb.bounds import _make_cases
from spectra_perturb.matrices import _TOLERANCES, _fro_norms, _scaled
from spectra_perturb.quantities import _band_widths

from conftest import case_stacks, haar_rotated_diagonal, random_complex, rng_for, schur_residuals


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


@pytest.mark.parametrize("n", range(2, 13))
def test_blocked_cases_have_structure(n):
    for seed in range(25):
        spec = EnsembleSpec(n=n, kind="normal-blocked", trace_mode="generic", seed=seed)
        case = random_case(spec)
        assert case.a_is_normal
        assert len(case.block) >= 2
        assert abs(frobenius_norm(case.e) - 1.0) <= 1e-12
        form = case.schur_tilde
        assert np.array_equal(form.eigenvalues, np.diag(form.t))
        # the constructed triangular factor really is block triangular:
        # the block count survives re-detection on the stored form
        assert sum(case.block) == case.n


@pytest.mark.parametrize("kind", KINDS)
def test_generated_cases_are_valid_inputs(kind):
    # a draw goes into the case pipeline unchecked, so every kind must
    # give what make_case would accept: a finite, normal (for hermitian,
    # Hermitian) A; normal-blocked's planted Schur form must be exactly
    # triangular, unitary and reconstruct A + E within 1e-10 n max(1, ||.||_F),
    # and its planted spectrum, read-only, must match eigvals(A) within
    # 1e-10 n max(1, ||A||_F); the other kinds plant no spectrum
    check = is_hermitian if kind == "hermitian" else is_normal
    for n in range(2, 13):
        for seed in range(8):
            case = random_case(EnsembleSpec(n=n, kind=kind, seed=seed))
            assert np.isfinite(case.a).all() and check(case.a)
            planted = case._cases.spectrum
            if kind != "normal-blocked":
                assert planted is None
                continue
            form = case.schur_tilde
            assert not np.tril(form.t, -1).any()
            unitarity, _, reconstruction = schur_residuals(case.a_tilde, form)
            assert unitarity <= 1e-10 * n
            assert reconstruction <= 1e-10 * n * max(1.0, frobenius_norm(case.a_tilde))
            assert not planted.flags.writeable
            spectrum = _scaled(planted, case._cases.exponent)[0]
            distance = optimal_match(spectrum, np.linalg.eigvals(case.a)).d2
            assert distance <= 1e-10 * n * max(1.0, frobenius_norm(case.a))


@pytest.mark.parametrize("scale", [2.0**-1000, 1e-12, 1.0, 2.0**980])
@pytest.mark.parametrize("trace_mode", TRACE_MODES)
def test_a_planted_schur_form_is_in_order_at_its_unit_scale(scale, trace_mode):
    # _make_cases does not reorder a planted form: the generator sorts its
    # diagonal, and the exact power-of-4 scale must keep that order, so the
    # reorder would move nothing
    for n in range(2, 13):
        cases = ensembles._draw_cases("normal-blocked", n, range(40), scale, trace_mode)
        diagonal = np.diagonal(cases.t, axis1=1, axis2=2)
        assert np.array_equal(decomp._descending_order(diagonal), np.broadcast_to(np.arange(n), diagonal.shape))
        q, t = cases.q.copy(order="K"), cases.t.copy(order="K")  # writable, each matrix Fortran ordered
        decomp._reorder(q, t)
        assert np.array_equal(q, cases.q) and np.array_equal(t, cases.t)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12, 1e-20])
@pytest.mark.parametrize("trace_mode", TRACE_MODES)
@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_of_draw_has_the_requested_perturbation_norm_at_every_scale(kind, scale, trace_mode):
    # one rule, _perturbations, normalizes E for every kind; a blocked E is
    # formed from its planted form F alone, so ||E||_F carries the rounding
    # of ||E||, not of ||A||
    for n in range(2, 13):
        cases = ensembles._draw_cases(kind, n, range(40), scale, trace_mode)
        norms = np.linalg.norm(_scaled(cases.e, cases.exponent), axis=(1, 2))
        assert np.abs(norms - scale).max() <= 1e-14 * scale, n


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6, 1e-9])
def test_a_planted_perturbation_has_band_width_0_in_the_schur_basis(scale):
    # Q*EQ of a planted stack is F, upper triangular, so _matrix_stats takes
    # w = 0 without the products; the computed Q*EQ must show no wider band
    for n in (*range(2, 13), 40, 64):
        cases = ensembles._draw_cases("normal-blocked", n, range(40 if n <= 12 else 8), scale, "generic")
        rotated = bounds._rotated(cases.q, cases.e)
        assert not _band_widths(rotated, _TOLERANCES["band"](_fro_norms(rotated)), lower=True).any(), n


def test_blocked_zero_trace_mode():
    for seed in range(10):
        spec = EnsembleSpec(n=7, kind="normal-blocked", trace_mode="zero", seed=seed)
        case = random_case(spec)
        assert abs(np.trace(case.e)) <= 1e-11 * frobenius_norm(case.e)


# the smallest chi-square p-value a law test accepts, fixed before any was run
LAW_P_FLOOR = 1e-6


@pytest.mark.parametrize("n, trials", [(5, 6000), (9, 14000)])
def test_blocked_block_count_is_uniform_and_its_cuts_are_a_uniform_subset(n, trials):
    # the law of a blocked draw's structure: s uniform on 2..n and, given s,
    # each set S of s - 1 cuts among the n - 1 gaps equally likely, so
    # P(S) = 1 / ((n - 1) C(n - 1, |S|)); at scale 1 the detected blocks are
    # the planted ones.  Every cut set is expected at least 25 times.
    from scipy.stats import chisquare

    cuts = ensembles._draw_cases("normal-blocked", n, range(trials), 1.0, "generic").boundaries
    s = 1 + np.count_nonzero(cuts, axis=1)
    assert chisquare(np.bincount(s, minlength=n + 1)[2:]).pvalue > LAW_P_FLOOR
    cut_sets = np.bincount(cuts @ (1 << np.arange(n - 1)), minlength=1 << (n - 1))[1:]
    sizes = [bin(code).count("1") for code in range(1, 1 << (n - 1))]
    expected = [trials / ((n - 1) * math.comb(n - 1, size)) for size in sizes]
    assert chisquare(cut_sets, expected).pvalue > LAW_P_FLOOR


def _complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _blocked_cases_seed_by_seed(n, seeds, scale, trace_mode):
    # The blocked generator as one loop over the seeds, every step per
    # seed and every drawn value its own stream call, with the canonical
    # order, the block count and the cuts in Python: the reference for the
    # stacked generator, which must give the same bits.
    m = n * n
    z = np.empty((len(seeds), 2 * m))
    f = np.zeros((len(seeds), n, n), dtype=np.complex128)
    t = np.zeros((len(seeds), n, n), dtype=np.complex128)
    mu = np.empty((len(seeds), n), dtype=np.complex128)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    stream = ensembles._Stream()
    for i, seed in enumerate(seeds):
        rng = stream.reset(seed)
        rng.standard_normal(out=z[i])
        draw = _complex_gaussian(rng, n)
        lam = np.array(sorted(draw, key=lambda x: (-abs(x), -x.real, -x.imag)))
        nu = _complex_gaussian(rng, n)
        # room for the most in-block noise, c real then c imaginary values
        noise = rng.standard_normal((n - 1) * (n - 2))
        # s - 2 is the rank of r[0] among the r; the s - 1 smallest o mark the cuts
        r = rng.standard_normal(n - 1)
        s = 2 + sum(x < r[0] for x in r[1:])
        o = rng.standard_normal(n - 1)
        cuts = [1 + gap for gap in sorted(range(n - 1), key=lambda gap: o[gap])[: s - 1]]
        block_of = np.zeros(n, dtype=int)
        block_of[cuts] = 1
        block_of = np.cumsum(block_of)
        inside = upper & (block_of[:, None] == block_of[None, :])
        c = int(inside.sum())
        noise = noise[:c] + 1j * noise[c : 2 * c]
        if trace_mode == "zero":
            nu -= nu.mean()
        f[i][inside] = noise
        np.fill_diagonal(f[i], nu)
        f[i] *= scale / np.linalg.norm(f[i])
        mu[i] = lam - np.diag(f[i])
        t[i] = f[i]
        np.fill_diagonal(t[i], lam)
    u = ensembles._haar_unitaries((z[:, :m] + 1j * z[:, m:]).reshape(-1, n, n))
    a = ensembles._normal_matrices(u, mu)
    return _make_cases(case_stacks(a, u @ f @ u.conj().transpose(0, 2, 1)), u, t, mu)


@pytest.mark.parametrize("trace_mode", TRACE_MODES)
def test_blocked_generator_equals_the_seed_by_seed_reference(trace_mode):
    for n in (*range(2, 13), 24):
        seeds = [derive_trial_seed(1000 * n + 7, trial) for trial in range(29)] + [(1 << 64) - 1]
        stacked = ensembles._blocked_cases(n, seeds, 0.7, trace_mode)
        reference = _blocked_cases_seed_by_seed(n, seeds, 0.7, trace_mode)
        for name in ("a", "e", "q", "t", "eigenvalues", "spectrum"):
            assert np.array_equal(getattr(stacked, name), getattr(reference, name)), (n, name)


def _fresh_generator(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed & ((1 << 64) - 1), 0], dtype=np.uint64)))


def test_draws_build_no_bit_generator_once_the_stream_exists(monkeypatch):
    for kind in KINDS:
        ensembles._draw_cases(kind, 4, [1, 2], 1.0, "generic")

    def refuse(*args, **kwargs):
        raise AssertionError("a bit generator was built for a draw")

    monkeypatch.setattr(np.random, "Philox", refuse)
    for kind in KINDS:
        for trace_mode in TRACE_MODES:
            ensembles._draw_cases(kind, 5, [3, 4, 5], 0.5, trace_mode)
    random_case(EnsembleSpec(n=3, kind="normal-blocked", seed=6))


def test_a_rekey_gives_the_draws_of_a_fresh_generator():
    # each round leaves a partly used buffer and a cached 32-bit half in
    # the generator, which the next re-key must discard
    draws = (
        lambda g: g.standard_normal(7),
        lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
        lambda g: g.random(),
        lambda g: g.choice(9, 4, replace=False),
    )
    s1, s2 = 123456789, (1 << 64) - 1
    for seed in (s1, s2, s1, s1, 1 << 64 | 5):
        rng, fresh = ensembles._STREAM.reset(seed), _fresh_generator(seed)
        for draw in draws:
            assert np.array_equal(draw(rng), draw(fresh)), seed


def test_threads_that_draw_at_once_each_get_their_own_seeds_bits():
    seeds = {name: [derive_trial_seed(seed, i) for i in range(20)] for name, seed in (("x", 11), ("y", 12))}
    expected = {name: ensembles._draw_cases("normal", 3, s, 1.0, "generic") for name, s in seeds.items()}
    start = threading.Barrier(len(seeds), timeout=30)
    wrong, done = [], []

    def draw(name):
        start.wait()
        for _ in range(60):
            cases = ensembles._draw_cases("normal", 3, seeds[name], 1.0, "generic")
            if not (np.array_equal(cases.a, expected[name].a) and np.array_equal(cases.e, expected[name].e)):
                wrong.append(name)
        done.append(name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(name,)) for name in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == sorted(seeds)
    assert not wrong


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
