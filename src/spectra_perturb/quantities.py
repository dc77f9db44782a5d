"""Scalar functionals of matrices and spectra used by the bound catalog.

``delta`` is the trace-centered Frobenius norm that every sharpened bound
is built from; ``w_lower``/``w_upper`` measure how far nonzero entries
stray below/above the diagonal; the ``phi`` functionals are alternative
majorants of the off-diagonal mass that are *not* unitarily invariant.
"""

from __future__ import annotations

import math

import numpy as np

from .matrices import as_matrix, as_spectrum

__all__ = [
    "delta",
    "w_lower",
    "w_upper",
    "phi1",
    "phi2",
    "phi3",
    "delta_spectral_form",
]


def delta(m) -> float:
    """sqrt(max(0, ||M||_F^2 - |tr(M)|^2 / n)).

    At most ||M||_F, with equality exactly when tr(M) = 0.  The radicand
    is clamped at zero: for near-scalar matrices round-off can push
    |tr|^2/n marginally above the squared norm.
    """
    m = as_matrix(m)
    return _delta(m, float(np.linalg.norm(m, "fro")))


def _delta(m: np.ndarray, nrm: float) -> float:
    """``delta`` of a trusted array whose Frobenius norm ``nrm`` is known."""
    t = complex(np.trace(m))
    return math.sqrt(max(0.0, nrm**2 - abs(t) ** 2 / m.shape[0]))


def _band_width(m: np.ndarray, tol: float, lower: bool) -> int:
    n = m.shape[0]
    for d in range(n - 1, 0, -1):
        band = np.diag(m, -d if lower else d)
        if np.any(np.abs(band) > tol):
            return d
    return 0


def w_lower(m, tol: float = 0.0) -> int:
    """Largest i - j with M[i, j] nonzero below the diagonal, else 0.

    ``tol`` is an absolute threshold on entry moduli.  The default 0.0
    is an exact zero test, appropriate for explicitly constructed
    matrices; pass roughly 1e-13 * ||M||_F for floating-point products
    such as rotated perturbations, where exact zeros do not survive.
    """
    return _band_width(as_matrix(m), tol, lower=True)


def w_upper(m, tol: float = 0.0) -> int:
    """Largest j - i with M[i, j] nonzero above the diagonal, else 0."""
    return _band_width(as_matrix(m), tol, lower=False)


def phi1(m) -> float:
    """||M||_F^2 - |tr(M o M)|, where o is the entrywise product."""
    m = as_matrix(m)
    d = np.diag(m)
    return float(np.linalg.norm(m, "fro")) ** 2 - abs(complex(np.sum(d * d)))


def phi2(m) -> float:
    """||M||_F^2 - tr(|M| o |M|) with |M| the entrywise modulus."""
    m = as_matrix(m)
    d = np.abs(np.diag(m))
    return float(np.linalg.norm(m, "fro")) ** 2 - float(np.sum(d * d))


def phi3(m) -> float:
    """||M||_F^2 - tr(|M|)^2 / n."""
    m = as_matrix(m)
    n = m.shape[0]
    d = np.abs(np.diag(m))
    return float(np.linalg.norm(m, "fro")) ** 2 - float(np.sum(d)) ** 2 / n


def delta_spectral_form(spectrum) -> float:
    """``delta`` of a normal matrix evaluated from its spectrum alone.

    Splits the spectrum into real and imaginary component vectors and
    accumulates |v|^2 sin^2(angle(v, ones)) for each; a zero component
    vector contributes zero (its angle is undefined).  For any normal
    matrix with this spectrum the value equals delta of the matrix.
    """
    lam = as_spectrum(spectrum)
    n = lam.size
    total = 0.0
    for v in (lam.real, lam.imag):
        nv2 = float(v @ v)
        if nv2 == 0.0:
            continue
        # |v|^2 sin^2(theta) = |v|^2 - (v . 1)^2 / n, clamped for round-off
        total += max(0.0, nv2 - float(v.sum()) ** 2 / n)
    return math.sqrt(total)
