import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_perturb import (
    PHI_EXAMPLE_UNITARY,
    delta,
    delta_spectral_form,
    fixture_matrices,
    frobenius_norm,
    phi1,
    phi2,
    phi3,
    strict_lower,
    strict_upper,
    w_lower,
    w_upper,
)

from spectra_perturb.quantities import _band_widths

from conftest import haar_rotated_diagonal, random_complex, rng_for


def offdiag_mass(m):
    return frobenius_norm(strict_lower(m)) ** 2 + frobenius_norm(strict_upper(m)) ** 2


def test_delta_traceless_equals_norm():
    m = [[0.0, 1.0], [1.0, 0.0]]
    assert abs(delta(m) - math.sqrt(2.0)) < 1e-15
    assert abs(delta(m) - frobenius_norm(m)) < 1e-15


def test_delta_closed_forms_on_shifted_identity_family():
    for n in (3, 5, 12):
        a, e = fixture_matrices("example_4_4", n)
        assert abs(delta(e) - math.sqrt(3.0 - 4.0 / n)) < 1e-12
        assert abs(delta(a) - 2.0 * math.sqrt(1.0 - 1.0 / n)) < 1e-12


def test_delta_never_exceeds_norm(rng):
    for _ in range(50):
        m = random_complex(rng, (5, 5))
        assert delta(m) <= frobenius_norm(m) + 1e-14
        # equality exactly when the trace vanishes
        traceless = m - (np.trace(m) / 5.0) * np.eye(5)
        assert abs(delta(traceless) - frobenius_norm(traceless)) < 1e-12


def test_delta_clamps_near_scalar():
    # |tr|^2/n exceeds the squared norm by one ulp for this multiple
    m = (1.0 / 3.0) * np.eye(5)
    assert delta(m) == 0.0


def test_delta_unitary_invariance(rng):
    for _ in range(25):
        m = random_complex(rng, (6, 6))
        z = random_complex(rng, (6, 6))
        q, _ = np.linalg.qr(z)
        assert abs(delta(q.conj().T @ m @ q) - delta(m)) <= 1e-11 * max(1.0, frobenius_norm(m))


def test_band_widths_basic():
    assert w_lower(np.triu(np.ones((4, 4)))) == 0
    assert w_upper(np.tril(np.ones((4, 4)))) == 0
    tri = np.diag([1.0] * 3) + np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1)
    assert w_lower(tri) == 1
    assert w_upper(tri) == 1
    m = np.zeros((5, 5))
    m[4, 0] = 1e-20
    assert w_lower(m) == 4  # exact zero test by default
    assert w_lower(m, tol=1e-12) == 0


def test_band_widths_on_shifted_identity_perturbation():
    _, e = fixture_matrices("example_4_4", 6)
    assert w_lower(e) == 1
    assert w_upper(e) == 0


def test_band_widths_range(rng):
    m = random_complex(rng, (6, 6))
    assert 0 <= w_lower(m) <= 5
    assert 0 <= w_upper(m) <= 5


def _band_widths_by_diagonal(m, tol, lower):
    # the band width as a scan of the diagonals from the outermost
    # inwards, stopping once every matrix has its width: the reference
    # for the package's one-pass version
    width = np.zeros(m.shape[0], dtype=int)
    open_ = np.ones(m.shape[0], dtype=bool)
    for d in range(m.shape[-1] - 1, 0, -1):
        band = np.diagonal(m, -d if lower else d, axis1=1, axis2=2)
        found = open_ & (np.abs(band) > tol[:, None]).any(axis=1)
        width[found] = d
        open_ &= ~found
        if not open_.any():
            break
    return width


# entry values: exact zeros, moduli exactly at a threshold below (0.5,
# 1.0; the test is a strict >), and 0.3 + 0.4i, whose computed modulus
# sits at 0.5 to the last bit
_ENTRIES = st.sampled_from([0.0, 0.5, -0.5j, 1.0, -1.0, 1j, 2.0, 0.3 + 0.4j, 1e-300])


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 8),
    k=st.integers(1, 3),
    lower=st.booleans(),
    fortran=st.booleans(),
    data=st.data(),
)
def test_band_widths_equal_the_diagonal_scan(n, k, lower, fortran, data):
    m = np.array(data.draw(st.lists(_ENTRIES, min_size=k * n * n, max_size=k * n * n)), dtype=complex)
    m = m.reshape(k, n, n)
    # planted zero diagonals, on either side of the main one
    rows, cols = np.indices((n, n))
    for i in range(k):
        for d in data.draw(st.sets(st.integers(-(n - 1), n - 1))):
            m[i][cols - rows == d] = 0.0
    if fortran:
        m = np.ascontiguousarray(m.transpose(0, 2, 1)).transpose(0, 2, 1)
    tol = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=k, max_size=k)))
    widths = _band_widths(m, tol, lower)
    assert widths.dtype.kind == "i" and widths.shape == (k,)
    assert np.array_equal(widths, _band_widths_by_diagonal(m, tol, lower))
    if n == 1:
        assert not widths.any()


def test_band_widths_equal_the_diagonal_scan_on_dense_stacks(rng):
    # the outermost diagonal decides (dense) or one pass runs (triangular
    # to rounding), with the package's band tolerance
    for n in (2, 5, 12, 40):
        m = random_complex(rng, (6, n, n))
        m[3:] = np.triu(m[3:]) + 1e-15 * np.tril(m[3:], -1)
        m[4, n - 1, 0] = 0.0
        tol = 1e-13 * np.linalg.norm(m, axis=(1, 2))
        for lower in (True, False):
            assert np.array_equal(_band_widths(m, tol, lower), _band_widths_by_diagonal(m, tol, lower))


def test_normal_band_mass_identity(rng):
    """Weighted band masses of a normal matrix balance exactly."""
    for _ in range(100):
        n = int(rng.integers(2, 11))
        a = haar_rotated_diagonal(rng, n)
        i, j = np.indices((n, n))
        weights = (j - i).astype(float)
        skew = float(np.sum(weights * np.abs(a) ** 2))
        assert abs(skew) <= 1e-9 * frobenius_norm(a) ** 2


def test_triangle_mass_ratio_for_normal(rng):
    """Either triangle of a normal matrix controls the other through its
    bandwidth; the dense random case saturates the sqrt(n-1) weakening."""
    for _ in range(100):
        n = int(rng.integers(2, 11))
        a = haar_rotated_diagonal(rng, n)
        tol = 1e-13 * frobenius_norm(a)
        lo = frobenius_norm(strict_lower(a))
        up = frobenius_norm(strict_upper(a))
        slack = 1e-9 * frobenius_norm(a)
        assert up <= math.sqrt(w_lower(a, tol=tol)) * lo + slack
        assert lo <= math.sqrt(w_upper(a, tol=tol)) * up + slack
        assert up <= math.sqrt(n - 1) * lo + slack


def test_triangle_mass_ratio_banded_normal():
    # cyclic shift: lower bandwidth 1, the whole upper mass sits in one corner
    n = 6
    c = np.zeros((n, n), dtype=complex)
    c[0, n - 1] = 1.0
    for i in range(1, n):
        c[i, i - 1] = 1.0
    assert w_lower(c) == 1
    up = frobenius_norm(strict_upper(c))
    lo = frobenius_norm(strict_lower(c))
    assert up <= math.sqrt(w_lower(c)) * lo + 1e-12


def test_rowwise_upper_mass_bound(rng):
    """Each row of the upper triangle of a normal matrix is bounded by
    the full lower-triangle mass."""
    for _ in range(100):
        n = int(rng.integers(2, 11))
        a = haar_rotated_diagonal(rng, n)
        lo = frobenius_norm(strict_lower(a))
        slack = 1e-9 * frobenius_norm(a)
        u = strict_upper(a)
        for i in range(n):
            assert float(np.linalg.norm(u[i, :])) <= lo + slack


def test_offdiagonal_mass_bounded_by_delta(rng):
    # holds for arbitrary square matrices, not only normal ones
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = random_complex(rng, (n, n))
        assert offdiag_mass(m) <= delta(m) ** 2 + 1e-12 * frobenius_norm(m) ** 2


def test_rotated_triangles_bounded_by_delta(rng):
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a = haar_rotated_diagonal(rng, n)
        z = random_complex(rng, (n, n))
        q, _ = np.linalg.qr(z)
        rotated = q.conj().T @ a @ q
        cap = math.sqrt((n - 1) / n) * delta(a) + 1e-9 * frobenius_norm(a)
        assert frobenius_norm(strict_upper(rotated)) <= cap
        assert frobenius_norm(strict_lower(rotated)) <= cap


def test_phi_values_on_diagonal_witness():
    m, _ = fixture_matrices("phi_example")
    assert abs(phi1(m) - (6.0 - 2.0 * math.sqrt(5.0))) < 1e-12
    assert abs(phi2(m)) < 1e-12
    assert abs(phi3(m) - (3.0 - 2.0 * math.sqrt(2.0))) < 1e-12


def test_phi_values_after_rotation():
    m, _ = fixture_matrices("phi_example")
    u = PHI_EXAMPLE_UNITARY
    rotated = u.conj().T @ m @ u
    for phi in (phi1, phi2, phi3):
        assert abs(phi(rotated) - 1.0) < 1e-12


def test_phi_basis_dependence_directions():
    # phi1 decreases under this rotation, phi2 and phi3 increase
    m, _ = fixture_matrices("phi_example")
    u = PHI_EXAMPLE_UNITARY
    rotated = u.conj().T @ m @ u
    assert phi1(m) > phi1(rotated)
    assert phi2(m) < phi2(rotated)
    assert phi3(m) < phi3(rotated)


def test_phi_zero_matrix():
    z = np.zeros((3, 3))
    assert phi1(z) == phi2(z) == phi3(z) == 0.0


def test_phi_majorize_offdiagonal_mass(rng):
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = random_complex(rng, (n, n))
        floor = offdiag_mass(m) - 1e-12 * frobenius_norm(m) ** 2
        assert phi1(m) >= floor
        assert phi2(m) >= floor
        assert phi3(m) >= floor
        # and phi2 is the smallest of the three
        assert phi2(m) <= phi1(m) + 1e-12
        assert phi2(m) <= phi3(m) + 1e-12


def test_spectral_form_known_spectra():
    assert abs(delta_spectral_form([3.0, 0.0]) - 3.0 / math.sqrt(2.0)) < 1e-14
    assert abs(delta_spectral_form([3.0, 0.0]) - delta(np.diag([0.0, 3.0]))) < 1e-14
    # constant spectra are parallel to the ones vector
    assert delta_spectral_form([2.0 + 1.0j] * 5) < 1e-14
    # real traceless spectrum: the angle term is exactly one
    lam = [1.0, -2.0, 1.0]
    assert abs(delta_spectral_form(lam) - math.sqrt(6.0)) < 1e-14


def test_spectral_form_zero_component_convention():
    # purely imaginary spectrum: the real component vector vanishes
    assert abs(delta_spectral_form([1.0j, -1.0j]) - math.sqrt(2.0)) < 1e-14


def test_spectral_form_matches_matrix_delta(rng):
    for _ in range(50):
        n = int(rng.integers(2, 10))
        lam = random_complex(rng, n)
        z = random_complex(rng, (n, n))
        q, _ = np.linalg.qr(z)
        a = (q * lam) @ q.conj().T
        scale = 1.0 + float(np.linalg.norm(lam))
        assert abs(delta_spectral_form(lam) - delta(a)) <= 1e-10 * scale
