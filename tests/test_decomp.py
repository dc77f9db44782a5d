import math

import numpy as np

from spectra_perturb import (
    SchurForm,
    departure_from_normality,
    eigenvalues,
    frobenius_norm,
    optimal_match,
    reorder_schur,
    schur_decompose,
)
from spectra_perturb import decomp
from spectra_perturb.decomp import _block_boundaries, _block_structure, _descending_order, _ranks

from conftest import haar_rotated_diagonal, random_complex, rng_for, schur_residuals
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


def test_schur_triangular_fast_path():
    t_in = np.array([[1.0, 5.0, 6.0], [0.0, 2.0, 7.0], [0.0, 0.0, 3.0]], dtype=complex)
    form = schur_decompose(t_in)
    assert np.array_equal(form.t, t_in)
    assert np.array_equal(form.q, np.eye(3, dtype=complex))


def test_reorder_schur_sorts_and_preserves(rng):
    for _ in range(10):
        m = random_complex(rng, (6, 6))
        form = schur_decompose(m)
        ordered = reorder_schur(form)
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
    t = np.diag([-1.0j, 1.0j])
    form = SchurForm(q=np.eye(2, dtype=complex), t=t.astype(complex))
    ordered = reorder_schur(form)
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
    q = decomp._fortran_stack(np.broadcast_to(np.eye(n), t.shape))
    t = decomp._fortran_stack(t)
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
        decomp._reorder(decomp._fortran_stack(np.broadcast_to(np.eye(n), t.shape)), decomp._fortran_stack(t))
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
    # the spectral formula loses half the digits near zero; see the docstring
    assert departure_from_normality(a) <= 1e-6 * max(1.0, frobenius_norm(a))


def test_departure_of_jordan_block():
    assert abs(departure_from_normality([[0.0, 1.0], [0.0, 0.0]]) - 1.0) < 1e-12


def test_departure_agrees_with_schur_excess(rng):
    # two routes: spectral formula vs norm of the strict upper Schur part
    for _ in range(10):
        m = random_complex(rng, (7, 7))
        form = schur_decompose(m)
        excess = frobenius_norm(np.triu(form.t, 1))
        assert abs(departure_from_normality(m) - excess) <= 1e-9 * max(1.0, frobenius_norm(m))


def test_departure_unitary_invariance(rng):
    m = random_complex(rng, (6, 6))
    z = random_complex(rng, (6, 6))
    q, _ = np.linalg.qr(z)
    rotated = q.conj().T @ m @ q
    assert abs(departure_from_normality(m) - departure_from_normality(rotated)) <= 1e-9 * max(
        1.0, frobenius_norm(m)
    )


def block_structure(t):
    return _block_structure(_block_boundaries(np.asarray(t, dtype=complex)[None])[0])


def test_detect_block_structure_on_constructed_blocks():
    t = np.zeros((5, 5), dtype=complex)
    t[0, 0] = 4.0
    t[0, 1] = 1.0
    t[1, 1] = 3.0
    t[2, 2] = 2.0
    t[3, 3] = 1.0
    t[3, 4] = 0.5
    t[4, 4] = 0.5
    b = block_structure(t)
    assert b.sizes == (2, 1, 2)
    assert b.s == 3


def test_detect_block_structure_edge_cases():
    assert block_structure(np.zeros((3, 3))).s == 3
    assert block_structure(np.diag([1.0, 2.0])).sizes == (1, 1)
    assert block_structure(np.triu(np.ones((4, 4)))).s == 1


def test_detect_block_structure_tolerance():
    # a coupling entry is a zero below 1e-12 * ||t||_F
    t = np.array([[1.0, 1e-6], [0.0, 2.0]])
    assert block_structure(t).s == 1
    t[0, 1] = 1e-13
    assert block_structure(t).s == 2


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
        form = schur_decompose(random_complex(rng, (n, n)))
        ordered = reorder_schur(form)
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
        ordered = reorder_schur(schur_decompose(m))
        assert_valid_schur_form(ordered, m)
        assert _is_sorted_by_order_key(ordered.eigenvalues)


def test_reorder_keeps_repeated_and_defective_eigenvalues_exact(rng):
    # a defective block [[1, 1], [0, 1]] and a repeated 2 inside a larger
    # triangular t; the larger eigenvalues must pass through them
    diag = [1.0, 1.0, 2.0, 0.5j, 2.0, 3.0]
    t = np.triu(random_complex(rng, (6, 6)), 1)
    t[np.diag_indices(6)] = diag
    t[0, 1] = 1.0
    m = t.copy()
    ordered = reorder_schur(SchurForm(q=np.eye(6, dtype=complex), t=t))
    assert np.diag(ordered.t).tolist() == [3.0, 2.0, 2.0, 1.0, 1.0, 0.5j]
    assert_valid_schur_form(ordered, m)


def test_reorder_leaves_its_input_untouched(rng):
    form = schur_decompose(random_complex(rng, (9, 9)))
    q0, t0, lam0 = form.q.copy(), form.t.copy(), form.eigenvalues.copy()
    reorder_schur(form)
    assert np.array_equal(form.q, q0)
    assert np.array_equal(form.t, t0)
    assert np.array_equal(form.eigenvalues, lam0)


def test_reorder_accepts_c_ordered_and_read_only_input(rng):
    m = random_complex(rng, (8, 8))
    form = schur_decompose(m)
    q = np.ascontiguousarray(form.q)
    t = np.ascontiguousarray(form.t)
    expected = reorder_schur(SchurForm(q=q, t=t))
    q.flags.writeable = False
    t.flags.writeable = False
    ordered = reorder_schur(SchurForm(q=q, t=t))
    assert np.array_equal(ordered.t, expected.t)
    assert np.array_equal(ordered.q, expected.q)
    assert_valid_schur_form(ordered, m)
