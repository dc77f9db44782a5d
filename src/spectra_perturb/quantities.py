"""Scalar functionals of matrices and spectra used by the bound catalog.

``delta`` is the trace-centered Frobenius norm that every sharpened bound
is built from; ``w_lower``/``w_upper`` measure how far nonzero entries
stray below/above the diagonal; the ``phi`` functionals are alternative
majorants of the off-diagonal mass that are *not* unitarily invariant.
"""

from __future__ import annotations

import math

import numpy as np

from .matrices import _degree_one, _fro_norms, _scaled, _strict_upper, _unit, as_matrix, as_spectrum

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
    return _degree_one(m, lambda unit: _deltas(_fro_norms(unit), _trace_moduli(unit), unit.shape[-1]))


def _square(x):
    """x**2 elementwise with the bits of Python's float ``x**2`` (libm
    pow), which is not always the correctly rounded x*x."""
    return np.float_power(x, 2.0)


def _trace_moduli(m: np.ndarray) -> np.ndarray:
    """|tr(M)| of each matrix of a stack, with the bits of Python's
    ``abs(complex(np.trace(M)))`` (numpy's complex abs differs)."""
    tr = m.trace(0, 1, 2)
    return np.hypot(tr.real, tr.imag)


def _deltas(nrm: np.ndarray, trace_moduli: np.ndarray, n) -> np.ndarray:
    """``delta`` of each matrix of a stack, from its Frobenius norm, the
    modulus of its trace and its size n (one integer, or one per
    matrix)."""
    return np.sqrt(np.maximum(0.0, _square(nrm) - _square(trace_moduli) / n))


def _band_widths(m: np.ndarray, tol: np.ndarray, lower: bool) -> np.ndarray:
    """Band width of each matrix of a stack (see :func:`w_lower`), with
    one threshold per matrix: the outermost diagonal's one entry when it
    decides every width, else one pass over the strictly lower entries."""
    m = m if lower else m.transpose(0, 2, 1)
    n = m.shape[-1]
    if (np.abs(m[:, n - 1, 0]) > tol).all():
        return np.full(m.shape[0], n - 1)
    beyond = (np.abs(m) > tol[:, None, None]) & _strict_upper(n).T
    # the first entry beyond tol in row i, at column j, is the row's widest
    return np.where(beyond.any(axis=2), np.arange(n) - beyond.argmax(axis=2), 0).max(axis=1)


def w_lower(m, tol: float = 0.0) -> int:
    """Largest i - j with M[i, j] nonzero below the diagonal, else 0.

    ``tol`` is an absolute threshold on entry moduli.  The default 0.0
    is an exact zero test, appropriate for explicitly constructed
    matrices; for floating-point products such as rotated perturbations,
    where exact zeros do not survive, pass the ``"band"`` row of
    ``matrices._TOLERANCES`` at ||M||_F, as the catalog does.
    """
    return int(_band_widths(as_matrix(m)[None], np.array([tol]), lower=True)[0])


def w_upper(m, tol: float = 0.0) -> int:
    """Largest j - i with M[i, j] nonzero above the diagonal, else 0."""
    return int(_band_widths(as_matrix(m)[None], np.array([tol]), lower=False)[0])


def _phi(m, diagonal_part) -> float:
    """||M||_F^2 - diagonal_part(diag M), the shape of every phi, taken at
    M's unit scale and scaled back by 4^p: a phi is of degree 2."""
    unit, exponent = _unit(as_matrix(m)[None])
    d = np.diagonal(unit, axis1=1, axis2=2)
    return float(_scaled(_square(_fro_norms(unit)) - diagonal_part(d), 2 * exponent)[0])


def phi1(m) -> float:
    """||M||_F^2 - |tr(M o M)|, where o is the entrywise product."""
    return _phi(m, lambda d: np.abs((d * d).sum(axis=1)))


def phi2(m) -> float:
    """||M||_F^2 - tr(|M| o |M|) with |M| the entrywise modulus."""
    return _phi(m, lambda d: _square(np.abs(d)).sum(axis=1))


def phi3(m) -> float:
    """||M||_F^2 - tr(|M|)^2 / n."""
    return _phi(m, lambda d: _square(np.abs(d).sum(axis=1)) / d.shape[-1])


def delta_spectral_form(spectrum) -> float:
    """``delta`` of a normal matrix evaluated from its spectrum alone.

    Splits the spectrum into real and imaginary component vectors and
    accumulates |v|^2 sin^2(angle(v, ones)) for each; a zero component
    vector contributes zero (its angle is undefined).  For any normal
    matrix with this spectrum the value equals delta of the matrix.  It
    is taken at the spectrum's unit scale and scaled back.
    """
    unit, exponent = _unit(as_spectrum(spectrum).reshape(1, 1, -1))
    lam = unit[0, 0]
    n = lam.size
    total = 0.0
    for v in (lam.real, lam.imag):
        nv2 = float(v @ v)
        if nv2 == 0.0:
            continue
        # |v|^2 sin^2(theta) = |v|^2 - (v . 1)^2 / n, clamped for round-off
        total += max(0.0, nv2 - float(v.sum()) ** 2 / n)
    return math.ldexp(math.sqrt(total), int(exponent[0]))
