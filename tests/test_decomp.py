import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_perturb import (
    SchurForm,
    departure_from_normality,
    eigenvalues,
    fixture,
    frobenius_norm,
    make_case,
    optimal_match,
    schur_decompose,
)
from spectra_perturb import decomp
from spectra_perturb.decomp import _block_boundaries, _block_sizes, _descending_order, _ranks
from spectra_perturb.ensembles import _draw_cases
from spectra_perturb.matrices import _TOLERANCES

from conftest import haar_rotated_diagonal, random_complex, rng_for, schur_residuals, unit_hermitian
from oracles import char_poly_eigenvalues, match_distance


def assert_valid_schur_form(form, m):
    """The residuals of a Schur form of m within the package's budget,
    and its eigenvalues exactly diag(t)."""
    tol = 1e-10 * m.shape[0] * max(1.0, frobenius_norm(m))
    assert all(res <= tol for res in schur_residuals(m, form))
    assert np.array_equal(form.eigenvalues, np.diag(form.t))


def test_schur_decompose_quality(rng):
    for n in (2, 3, 8, 17):
        m = random_complex(rng, (n, n))
        assert_valid_schur_form(schur_decompose(m), m)


def test_schur_eigenvalues_match_closed_forms(rng):
    for n in (2, 3):
        for _ in range(20):
            m = random_complex(rng, (n, n))
            form = schur_decompose(m)
            expected = char_poly_eigenvalues(m)
            d = match_distance(form.eigenvalues, expected)
            assert d < 1e-7 * (1.0 + frobenius_norm(m))


def test_schur_form_eigenvalues_are_a_copy_of_diag_t():
    t = np.array([[2.0, 1.0], [0.0, -1.0j]])
    form = SchurForm(np.eye(2, dtype=complex), t)
    lam = form.eigenvalues
    assert np.array_equal(lam, [2.0, -1.0j])
    lam[0] = 7.0
    assert t[0, 0] == 2.0 and form.eigenvalues[0] == 2.0


def reordered(m):
    """The ordered Schur form of m, as a case of m takes it: the factors
    of ``_schur_factors`` reordered in place by ``_reorder``."""
    q, t = decomp._schur_factors(np.asarray(m, dtype=complex)[None])
    decomp._reorder(q, t)
    return SchurForm(q=q[0], t=t[0])


def test_schur_factors_are_scipy_schur_bit_for_bit_at_n_200(rng):
    # above 128 columns the zgees workspace sets zgehrd's block size: a
    # larger one than scipy.linalg.schur asks for changes T's bits from
    # n = 160 up, so the factors must stay scipy's, byte for byte
    m = random_complex(rng, (200, 200))
    q, t = decomp._schur_factors(m[None])
    t_scipy, q_scipy = scipy.linalg.schur(m, output="complex")
    assert np.ascontiguousarray(t[0]).tobytes() == np.ascontiguousarray(t_scipy).tobytes()
    assert np.ascontiguousarray(q[0]).tobytes() == np.ascontiguousarray(q_scipy).tobytes()


def test_schur_triangular_fast_path():
    t_in = np.array([[1.0, 5.0, 6.0], [0.0, 2.0, 7.0], [0.0, 0.0, 3.0]], dtype=complex)
    form = schur_decompose(t_in)
    assert np.array_equal(form.t, t_in)
    assert np.array_equal(form.q, np.eye(3, dtype=complex))


def test_reorder_schur_sorts_and_preserves(rng):
    for _ in range(10):
        m = random_complex(rng, (6, 6))
        form = schur_decompose(m)
        ordered = reordered(m)
        # same matrix, still a valid decomposition
        assert_valid_schur_form(ordered, m)
        mods = np.abs(ordered.eigenvalues)
        assert np.all(mods[:-1] >= mods[1:] - 1e-12)
        # eigenvalue multiset unchanged
        assert optimal_match(form.eigenvalues, ordered.eigenvalues).d2 < 1e-10 * (
            1 + frobenius_norm(m)
        )


def test_reorder_breaks_modulus_ties_deterministically():
    # eigenvalues i and -i share a modulus; descending real part wins
    ordered = reordered(np.diag([-1.0j, 1.0j]))
    assert abs(ordered.eigenvalues[0] - 1.0j) < 1e-14
    assert abs(ordered.eigenvalues[1] + 1.0j) < 1e-14


def _order_key(lam: complex) -> tuple[float, float, float]:
    # the canonical order as a Python sort key: descending modulus, ties
    # by descending real, then imaginary part
    return (-abs(lam), -lam.real, -lam.imag)


def test_descending_order_is_descending_modulus_then_real_then_imag():
    assert _descending_order(np.array([1.0, 2.0], dtype=complex)).tolist() == [1, 0]
    assert _descending_order(np.array([-1.0, 1.0], dtype=complex)).tolist() == [1, 0]
    assert _descending_order(np.array([-1.0j, 1.0j])).tolist() == [1, 0]
    stack = np.array([[1.0, 2.0], [-1.0, 1.0], [-1.0j, 1.0j], [2.0, 1.0]])
    assert _descending_order(stack).tolist() == [[1, 0], [1, 0], [1, 0], [0, 1]]


def test_descending_order_equals_a_stable_python_sort_on_ties(rng):
    # equal moduli (3+4i, 4+3i, 5, -5, 5i), equal real parts, exact
    # duplicates and both signed zeros, shuffled into many diagonals
    pool = np.array(
        [3 + 4j, 4 + 3j, 5, -5, 5j, -5j, 3 - 4j, 1 + 1j, 1 - 1j, 1j, -1j, 1, -1, 0.0, -0.0,
         complex(0.0, -0.0), complex(-0.0, 0.0), 2, 2, 1 + 1j],
        dtype=complex,
    )
    for n in (1, 2, 5, 12, 40):
        d = rng.choice(pool, size=(50, n))
        for row, order in zip(d, _descending_order(d)):
            expected = sorted(range(n), key=lambda k: _order_key(complex(row[k])))
            assert order.tolist() == expected


def test_reorder_makes_no_ztrexc_call_on_an_ordered_stack(rng, monkeypatch):
    calls = []
    real = decomp.ztrexc

    def counted(*args, **kwargs):
        calls.append(args[2:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(decomp, "ztrexc", counted)
    n = 6
    t = np.triu(random_complex(rng, (3, n, n)), 1)
    t[:, np.arange(n), np.arange(n)] = [[6, 5, 4, 3, 2, 1], [1j, -1j, 0.5, 0.5, 0.0, -0.0], [2, 2, 2, 2, 2, 2]]
    q, t = decomp._schur_factors(t)  # t is triangular: q = I, both Fortran ordered
    t0 = t.copy()
    decomp._reorder(q, t)
    assert calls == [] and np.array_equal(t, t0)
    # one form out of order: only its moves run, each to its target place
    t[1, 0, 0], t[1, 1, 1] = t[1, 1, 1], t[1, 0, 0]
    decomp._reorder(q, t)
    assert calls == [(2, 1)]


def test_reorder_moves_are_those_of_moving_each_target_in_turn(rng, monkeypatch):
    # reference: move each eigenvalue of the target order, in turn, from
    # where it now sits to its place, the rest keeping their order
    calls = []
    real = decomp.ztrexc

    def counted(*args, **kwargs):
        calls.append(args[2:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(decomp, "ztrexc", counted)
    pool = np.array([3 + 4j, 5, -5, 1j, -1j, 2, 2, 0.5, 0.0], dtype=complex)
    for n in (2, 5, 9):
        t = np.triu(random_complex(rng, (20, n, n)), 1)
        t[:, np.arange(n), np.arange(n)] = rng.choice(pool, size=(20, n))
        expected = []
        for diag in np.diagonal(t, axis1=1, axis2=2).tolist():
            current = list(range(n))
            for p, k in enumerate(sorted(range(n), key=lambda k: _order_key(diag[k]))):
                j = current.index(k, p)
                if j != p:
                    expected.append((j + 1, p + 1))
                    current.insert(p, current.pop(j))
        calls.clear()
        decomp._reorder(*decomp._schur_factors(t))
        assert calls == expected


def test_eigenvalues_of_diagonal():
    lam = eigenvalues(np.diag([3.0, 1.0 + 1.0j]))
    assert match_distance(lam, [3.0, 1.0 + 1.0j]) < 1e-14


def test_numerical_rank():
    # the rank of A + E that the thm_4_3 estimates divide by
    v = np.array([1.0, 2.0, 3.0])
    ranks = _ranks(np.stack([np.zeros((3, 3)), np.eye(3), np.outer(v, v)]))
    assert ranks.tolist() == [0, 3, 1]


def test_numerical_rank_random_products(rng):
    # G1 @ G2 with inner dimension 5 has rank exactly 5
    g1 = random_complex(rng, (8, 5))
    g2 = random_complex(rng, (5, 8))
    assert _ranks((g1 @ g2)[None]).tolist() == [5]


def test_departure_vanishes_for_normal(rng):
    a = haar_rotated_diagonal(rng, 6)
    assert departure_from_normality(a) <= 1e-12 * max(1.0, frobenius_norm(a))


def test_departure_of_jordan_block():
    assert abs(departure_from_normality([[0.0, 1.0], [0.0, 0.0]]) - 1.0) < 1e-12


def test_departure_agrees_with_schur_excess(rng):
    # the Schur excess against the spectral identity
    # ||strict_upper(T)||_F^2 = ||M||_F^2 - sum |lambda_i|^2
    for _ in range(10):
        m = random_complex(rng, (7, 7))
        lam = np.linalg.eigvals(m)
        spectral = np.sqrt(max(0.0, frobenius_norm(m) ** 2 - float(np.sum(np.abs(lam) ** 2))))
        assert abs(departure_from_normality(m) - spectral) <= 1e-9 * max(1.0, frobenius_norm(m))


def test_departure_unitary_invariance(rng):
    m = random_complex(rng, (6, 6))
    z = random_complex(rng, (6, 6))
    q, _ = np.linalg.qr(z)
    rotated = q.conj().T @ m @ q
    assert abs(departure_from_normality(m) - departure_from_normality(rotated)) <= 1e-9 * max(
        1.0, frobenius_norm(m)
    )


def block_sizes(t):
    return _block_sizes(_block_boundaries(np.asarray(t, dtype=complex)[None])[0])


def test_detect_block_structure_on_constructed_blocks():
    t = np.zeros((5, 5), dtype=complex)
    t[0, 0] = 4.0
    t[0, 1] = 1.0
    t[1, 1] = 3.0
    t[2, 2] = 2.0
    t[3, 3] = 1.0
    t[3, 4] = 0.5
    t[4, 4] = 0.5
    assert block_sizes(t) == (2, 1, 2)


def test_detect_block_structure_edge_cases():
    assert block_sizes(np.zeros((3, 3))) == (1, 1, 1)
    assert block_sizes(np.diag([1.0, 2.0])) == (1, 1)
    assert block_sizes(np.triu(np.ones((4, 4)))) == (4,)


def test_detect_block_structure_tolerance():
    # a coupling entry is a zero below 1e-12 * ||t||_F
    t = np.array([[1.0, 1e-6], [0.0, 2.0]])
    assert block_sizes(t) == (2,)
    t[0, 1] = 1e-13
    assert block_sizes(t) == (1, 1)


def test_decomposition_quality_batch():
    # moderate version of the wider acceptance sweep
    rng = rng_for(99)
    for _ in range(50):
        n = int(rng.integers(2, 17))
        m = random_complex(rng, (n, n))
        form = schur_decompose(m)
        tol = 1e-10 * n * max(1.0, frobenius_norm(m))
        assert all(res <= tol for res in schur_residuals(m, form))


def _is_sorted_by_order_key(values):
    keys = [_order_key(complex(z)) for z in values]
    return all(k0 <= k1 for k0, k1 in zip(keys, keys[1:]))


def test_reorder_permutes_the_diagonal_exactly(rng):
    for n in (2, 7, 33):
        m = random_complex(rng, (n, n))
        form, ordered = schur_decompose(m), reordered(m)
        before = np.array(sorted(np.diag(form.t).tolist(), key=_order_key))
        after = np.array(sorted(np.diag(ordered.t).tolist(), key=_order_key))
        # bitwise: the reorder moves diagonal entries, it never recomputes them
        assert np.array_equal(before.view(np.int64), after.view(np.int64))
        assert _is_sorted_by_order_key(np.diag(ordered.t))
        assert np.array_equal(ordered.eigenvalues, np.diag(ordered.t))
        assert np.all(np.tril(ordered.t, -1) == 0)


def test_reorder_keeps_a_valid_schur_form_at_larger_n(rng):
    for n in (64, 200):
        m = random_complex(rng, (n, n))
        ordered = reordered(m)
        assert_valid_schur_form(ordered, m)
        assert _is_sorted_by_order_key(ordered.eigenvalues)


def test_reorder_keeps_repeated_and_defective_eigenvalues_exact(rng):
    # a defective block [[1, 1], [0, 1]] and a repeated 2 inside a larger
    # triangular t; the larger eigenvalues must pass through them
    diag = [1.0, 1.0, 2.0, 0.5j, 2.0, 3.0]
    t = np.triu(random_complex(rng, (6, 6)), 1)
    t[np.diag_indices(6)] = diag
    t[0, 1] = 1.0
    ordered = reordered(t)  # a triangular t is its own Schur factor, with q = I
    assert np.diag(ordered.t).tolist() == [3.0, 2.0, 2.0, 1.0, 1.0, 0.5j]
    assert_valid_schur_form(ordered, t)


# ---------------------------------------------------------------------------
# the spectrum of a normal matrix from the Hermitian pencil H + cK

SCALES = (1e-170, 1e-150, 1e-12, 1e12, 1e150, 1e170)


def _spectra_and_fallbacks(a):
    """decomp._normal_spectra of a stack, and the rows it sent to eigvals."""
    with mock.patch.object(np.linalg, "eigvals", wraps=np.linalg.eigvals) as spy:
        lam = decomp._normal_spectra(a)
    sent = [m for call in spy.call_args_list for m in call.args[0]]
    return lam, [i for i, m in enumerate(a) if any(np.array_equal(m, s) for s in sent)]


def _spectrum_row(a):
    return float(_TOLERANCES["spectrum"](a.shape[-1], frobenius_norm(a)))


def _normal_with_spectrum(seed, mu):
    q = np.linalg.qr(random_complex(rng_for(seed), (len(mu), len(mu))))[0]
    return (q * mu) @ q.conj().T


def _separated(seed, n):
    """A spectrum whose values Re + c Im lie at least 1 - c apart."""
    rng = rng_for(seed)
    return np.arange(n) + 1j * rng.uniform(-0.5, 0.5, n) + complex(*rng.standard_normal(2))


def _collided(seed, n):
    """A spectrum whose last two values share Re + c Im: mu_j = mu_i + t (c - i)."""
    mu = _separated(seed, n)
    mu[-1] = mu[-2] + 1.5 * (decomp._PENCIL_C - 1j)
    return mu


def _haar(seed, n):
    return haar_rotated_diagonal(rng_for(seed), n)


def _repeated(seed, n):
    """n eigenvalues drawn from n // 2 + 1 separated values, so most repeat."""
    m = n // 2 + 1
    return _normal_with_spectrum(seed, _separated(seed, m)[rng_for(seed + 1).integers(0, m, n)])


seeds = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("draw", [_haar, _repeated], ids=["haar", "repeated"])
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 16), seed=seeds)
def test_normal_spectra_agree_with_eigvals(draw, n, seed):
    a = draw(seed, n)
    lam = decomp._normal_spectra(a[None])[0]
    assert optimal_match(lam, np.linalg.eigvals(a)).d2 <= _spectrum_row(a)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 12), seed=seeds)
def test_pencil_collision_falls_back_alone(n, seed):
    collided = _normal_with_spectrum(seed, _collided(seed, n))
    others = np.stack([_normal_with_spectrum(seed + k, _separated(seed + k, n)) for k in (1, 2)])
    stack = np.stack([others[0], collided, others[1]])
    lam, fallbacks = _spectra_and_fallbacks(stack)
    assert fallbacks == [1]
    assert np.array_equal(lam[1], np.linalg.eigvals(collided))
    # the other rows are those of the stack without the collision
    assert np.array_equal(lam[[0, 2]], decomp._normal_spectra(others))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 12), seed=seeds)
def test_normal_spectra_scale_with_a(n, seed):
    stack = np.stack(
        [
            _normal_with_spectrum(seed, _separated(seed, n)),
            _normal_with_spectrum(seed, _collided(seed, n)),
        ]
    )
    lam, fallbacks = _spectra_and_fallbacks(stack)
    for s in SCALES:
        scaled, scaled_fallbacks = _spectra_and_fallbacks(s * stack)
        assert scaled_fallbacks == fallbacks
        for a, unscaled, row in zip(stack, lam, scaled):
            assert optimal_match(row / s, unscaled).d2 <= _spectrum_row(a)


def test_a_power_of_two_scales_the_pencil_spectrum_exactly():
    a = _normal_with_spectrum(5, _separated(5, 9))[None]
    lam = decomp._normal_spectra(a)
    for s in (2.0**-600, 2.0**600):
        assert np.array_equal(decomp._normal_spectra(s * a) / s, lam)


def test_normal_spectra_of_zero_are_exact_zeros():
    for n in (1, 2, 7):
        lam, fallbacks = _spectra_and_fallbacks(np.zeros((3, n, n), dtype=complex))
        assert fallbacks == []
        assert lam.shape == (3, n) and not lam.any()


# -- the full-rank certificate of a Schur factor --------------------------


def _certificate_corpus():
    """(label, ordered Schur factor t of A + E, A + E) with a Hermitian A:
    seeded draws at n = 2..40, A + E of low rank, Jordan blocks,
    intro_2x2, a generic pair over scales and a swept smallest singular
    value.  The ``full`` members must be certified; the ``deficient``,
    ``jordan`` and ``ill`` ones (sigma_min / sigma_max <= 1e-6) must
    not."""

    def pair(label, cases):
        return label, cases.t[0], cases.a_tilde[0]

    for trace_mode in ("generic", "zero"):
        for n in range(2, 41):
            stack = _draw_cases("hermitian", n, list(range(n, n + 4)), 1.0, trace_mode)
            yield from (("full", t, a_tilde) for t, a_tilde in zip(stack.t, stack.a_tilde))
    rng = rng_for(21)
    for n in (3, 8, 17, 64, 128):
        a = unit_hermitian(rng, n)
        for r in sorted({0, 1, 2, n // 2, n - 1}):
            g = random_complex(rng, (n, r)) @ random_complex(rng, (r, n))
            yield pair("deficient", make_case(a, -a + g)._cases)
    yield pair("deficient", fixture("intro_2x2")._cases)
    for n in range(2, 9):
        jordan = np.diag(np.ones(n - 1), 1)
        for a in (np.zeros((n, n)), np.diag(np.arange(1.0, n + 1)), unit_hermitian(rng, n)):
            yield pair("jordan", make_case(a, jordan - a)._cases)
    a, e = unit_hermitian(rng, 16), random_complex(rng, (16, 16))
    for scale in (1e-150, 1e-100, 1e-50, 1e-10, 1.0, 1e10, 1e50, 1e70):
        yield pair("full", make_case(scale * a, scale * e / np.linalg.norm(e))._cases)
    u, v = (np.linalg.qr(random_complex(rng, (10, 10)))[0] for _ in range(2))
    a = unit_hermitian(rng, 10)
    for exponent in range(2, 17):
        sigma = np.linspace(1.0, 0.1, 10)
        sigma[-1] = 10.0**-exponent
        yield pair("ill" if exponent >= 6 else "full", make_case(a, (u * sigma) @ v.conj().T - a)._cases)


def test_the_full_rank_certificate_never_certifies_a_lower_svd_rank():
    counts = {}
    for label, t, a_tilde in _certificate_corpus():
        counts[label] = counts.get(label, 0) + 1
        flag = bool(decomp._full_rank(t[None])[0])
        assert not flag or _ranks(a_tilde[None])[0] == t.shape[-1], label
        assert flag == (label == "full"), label
    assert counts == {"full": 324, "deficient": 24, "jordan": 21, "ill": 11}


def test_the_certificate_falls_back_on_a_zero_diagonal_and_an_overflowing_inverse():
    # an exact zero on the diagonal is ztrtri's info > 0; 1e-300 on the
    # diagonal gives an inverse with infinite entries
    singular = np.array([[1.0, 2.0], [0.0, 0.0]], dtype=complex)
    overflow = np.array([[1e-300, 1.0], [0.0, 1e-300]], dtype=complex)
    stack = np.stack([singular, overflow, np.eye(2, dtype=complex)])
    assert decomp._full_rank(stack).tolist() == [False, False, True]
    assert _ranks(stack).tolist() == [1, 1, 2]
