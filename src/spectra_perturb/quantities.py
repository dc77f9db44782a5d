"""Scalar functionals of matrices and spectra used by the bound catalog.

``delta`` is the trace-centered Frobenius norm that every sharpened bound
is built from; ``w_lower``/``w_upper`` measure how far nonzero entries
stray below/above the diagonal; the ``phi`` functionals are alternative
majorants of the off-diagonal mass that are *not* unitarily invariant.
"""

from __future__ import annotations

import math

import numpy as np

from .matrices import _fro_norms, as_matrix, as_spectrum

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
    m = as_matrix(m)[None]
    return float(_deltas(_fro_norms(m), _trace_moduli(m), m.shape[-1])[0])


def _square(x):
    """x**2 elementwise with the bits of Python's float ``x**2`` (libm
    pow), which is not always the correctly rounded x*x."""
    return np.float_power(x, 2.0)


def _trace_moduli(m: np.ndarray) -> np.ndarray:
    """|tr(M)| of each matrix of a stack, with the bits of Python's
    ``abs(complex(np.trace(M)))`` (numpy's complex abs differs)."""
    tr = np.trace(m, axis1=1, axis2=2)
    return np.hypot(tr.real, tr.imag)


def _deltas(nrm: np.ndarray, trace_moduli: np.ndarray, n: int) -> np.ndarray:
    """``delta`` of each matrix of a stack of size n, from its Frobenius
    norm and the modulus of its trace."""
    return np.sqrt(np.maximum(0.0, _square(nrm) - _square(trace_moduli) / n))


def _band_widths(m: np.ndarray, tol: np.ndarray, lower: bool) -> np.ndarray:
    """Band width of each matrix of a stack (see :func:`w_lower`), with
    one threshold per matrix.  Diagonals are scanned from the outermost
    inwards and the scan stops once every matrix has its width."""
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


def w_lower(m, tol: float = 0.0) -> int:
    """Largest i - j with M[i, j] nonzero below the diagonal, else 0.

    ``tol`` is an absolute threshold on entry moduli.  The default 0.0
    is an exact zero test, appropriate for explicitly constructed
    matrices; pass roughly 1e-13 * ||M||_F for floating-point products
    such as rotated perturbations, where exact zeros do not survive.
    """
    return int(_band_widths(as_matrix(m)[None], np.array([tol]), lower=True)[0])


def w_upper(m, tol: float = 0.0) -> int:
    """Largest j - i with M[i, j] nonzero above the diagonal, else 0."""
    return int(_band_widths(as_matrix(m)[None], np.array([tol]), lower=False)[0])


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
