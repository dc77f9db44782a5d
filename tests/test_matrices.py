import json
import math

import numpy as np
import pytest

from spectra_perturb import (
    as_matrix,
    as_spectrum,
    frobenius_norm,
    is_hermitian,
    is_normal,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    save_matrix,
    strict_lower,
    strict_upper,
)
from spectra_perturb.matrices import _commutator_defects

from conftest import haar_rotated_diagonal, random_complex
from oracles import naive_frobenius


def test_as_matrix_accepts_lists_and_arrays():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.shape == (2, 2)
    assert m.dtype == np.complex128


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        as_matrix([1, 2, 3])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_matrix([[float("nan"), 0], [0, 1]])


def test_as_spectrum():
    s = as_spectrum([1, 2j, 3])
    assert s.shape == (3,)
    assert s[1] == 2j
    # nested sequences flatten
    assert as_spectrum([[1, 2]]).shape == (2,)
    with pytest.raises(ValueError):
        as_spectrum([])
    with pytest.raises(ValueError):
        as_spectrum([1, math.nan])


def test_frobenius_norm_against_naive(rng):
    for _ in range(10):
        m = random_complex(rng, (5, 5))
        assert abs(frobenius_norm(m) - naive_frobenius(m)) < 1e-12 * (1 + naive_frobenius(m))


def test_frobenius_norm_known_value():
    assert frobenius_norm([[3, 0], [0, 4]]) == 5.0


def test_triangular_parts_partition(rng):
    m = random_complex(rng, (6, 6))
    recombined = strict_lower(m) + np.diag(np.diag(m)) + strict_upper(m)
    assert np.array_equal(recombined, as_matrix(m))
    assert np.all(strict_lower(m)[np.triu_indices(6)] == 0)
    assert np.all(strict_upper(m)[np.tril_indices(6)] == 0)


def test_commutator_defect_zero_for_normal(rng):
    a = haar_rotated_diagonal(rng, 5)
    assert _commutator_defects(a[None])[0] <= 1e-12 * max(1.0, frobenius_norm(a) ** 2)


def test_commutator_defect_positive_for_jordan_block():
    m = np.array([[[0, 1], [0, 0]]], dtype=complex)
    # [M, M*] = diag(1, -1)
    assert abs(_commutator_defects(m)[0] - math.sqrt(2)) < 1e-15


def test_is_normal_and_is_hermitian(rng):
    d = np.diag([1.0 + 1.0j, 2.0, -3.0j])
    assert is_normal(d)
    assert not is_hermitian(d)
    h = random_complex(rng, (4, 4))
    h = (h + h.conj().T) / 2
    assert is_hermitian(h)
    assert is_normal(h)
    assert not is_normal([[0, 1], [0, 0]])


def test_is_normal_scales_with_magnitude(rng):
    # the tolerance must follow the squared norm, or large matrices fail
    a = 1e6 * haar_rotated_diagonal(rng, 4)
    assert is_normal(a)


def test_matrix_json_round_trip(rng):
    m = random_complex(rng, (3, 3))
    again = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(again, as_matrix(m))


def test_matrix_json_layout():
    j = matrix_to_json([[1, 2j], [3, 4]])
    assert j["n"] == 2
    # row-major [re, im] pairs
    assert j["entries"] == [[1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [4.0, 0.0]]


def test_matrix_from_json_validation():
    with pytest.raises(ValueError):
        matrix_from_json({"entries": [[0, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"n": 2, "entries": [[0, 0]] * 3})
    with pytest.raises(ValueError):
        matrix_from_json({"n": 1, "entries": [[0, 0, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"n": 1, "entries": [[True, 0]]})
    with pytest.raises(ValueError):
        matrix_from_json({"n": 1, "entries": [[math.inf, 0]]})


def _entries_16x16(rng):
    m = random_complex(rng, (16, 16))
    return [[float(z.real), float(z.imag)] for z in m.ravel()]


def test_matrix_from_json_decodes_bit_identically(rng):
    m = random_complex(rng, (64, 64))
    entries = json.loads(json.dumps([[float(z.real), float(z.imag)] for z in m.ravel()]))
    entries[3] = [7, -2]  # integer entries convert like float(x)
    entries[5] = [2**60 + 1, 0]
    entries[9] = [-0.0, 5e-324]
    reference = np.array(
        [complex(float(re), float(im)) for re, im in entries], dtype=np.complex128
    ).reshape(64, 64)
    decoded = matrix_from_json({"n": 64, "entries": entries})
    assert decoded.dtype == np.complex128 and decoded.shape == (64, 64)
    assert np.array_equal(decoded.view(np.float64), reference.view(np.float64))


def test_matrix_from_json_accepts_tuples_numpy_floats_and_ints():
    obj = {"n": 2, "entries": [(1, 2.5), [np.float64(-3.0), 4], (5.5, np.float64(6)), [7, 8]]}
    assert np.array_equal(
        matrix_from_json(obj), np.array([[1 + 2.5j, -3 + 4j], [5.5 + 6j, 7 + 8j]])
    )


@pytest.mark.parametrize(
    "bad",
    [[True, 0], ["1.0", 0], [None, 0], [np.int64(1), 0], [1, 2, 3], {"re": 1}],
    ids=["bool", "string", "null", "int64", "triple", "object"],
)
def test_matrix_from_json_names_malformed_entry(rng, bad):
    entries = _entries_16x16(rng)
    entries[37] = bad
    with pytest.raises(ValueError, match=r"^entry 37 is not a \[re, im\] pair of numbers$"):
        matrix_from_json({"n": 16, "entries": entries})


@pytest.mark.parametrize(
    "bad",
    [[math.nan, 0], [0, math.inf], [-math.inf, 1], [10**400, 0], [0, -(10**400)]],
    ids=["nan", "inf", "-inf", "huge-int", "-huge-int"],
)
def test_matrix_from_json_names_non_finite_entry(rng, bad):
    entries = _entries_16x16(rng)
    entries[37] = bad
    with pytest.raises(ValueError, match=r"^entry 37 is not finite$"):
        matrix_from_json({"n": 16, "entries": entries})


def test_matrix_from_json_names_first_bad_entry_in_order(rng):
    entries = _entries_16x16(rng)
    entries[5] = [math.nan, 0]
    entries[37] = [True, 0]
    with pytest.raises(ValueError, match=r"^entry 5 is not finite$"):
        matrix_from_json({"n": 16, "entries": entries})
    entries[5], entries[37] = entries[37], entries[5]
    with pytest.raises(ValueError, match=r"^entry 5 is not a \[re, im\] pair"):
        matrix_from_json({"n": 16, "entries": entries})


def test_load_matrix_rejects_integer_beyond_float_range(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 1, "entries": [[1' + "0" * 400 + ', 0]]}')
    with pytest.raises(ValueError, match="entry 0 is not finite"):
        load_matrix(path)


def test_matrix_to_json_text_matches_per_entry_encoding(rng):
    m = random_complex(rng, (4, 4))
    m[0, 0] = complex(-0.0, 0.0)
    m[0, 1] = complex(5e-324, -0.0)
    m[1, 2] = complex(1e308, -1e308)
    m[2, 3] = complex(3.0, -7.0)
    m[3, 3] = 0
    for a in (m, m.T, [[1, 2j], [3, 4]]):  # C- and Fortran-ordered, and a list
        am = as_matrix(a)
        old = {"n": am.shape[0], "entries": [[float(z.real), float(z.imag)] for z in am.ravel()]}
        assert json.dumps(matrix_to_json(a)) == json.dumps(old)


def test_save_and_load_matrix(tmp_path, rng):
    m = random_complex(rng, (4, 4))
    path = tmp_path / "m.json"
    save_matrix(path, m)
    data = json.loads(path.read_text())
    assert data["n"] == 4
    assert np.array_equal(load_matrix(path), as_matrix(m))


def test_load_matrix_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(ValueError):
        load_matrix(path)
