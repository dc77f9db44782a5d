"""Schur decomposition and the spectral quantities derived from it.

The triangularization M = Q T Q* is the engine behind every quantity that
involves the strictly upper triangular excess of a matrix: eigenvalue
extraction, departure from normality, the eigenvalue blocks of the
triangular factor, and the deterministic descending-modulus reordering
used by the bound catalog.

Both steps are LAPACK: the decomposition is the implicit-shift QR of
``scipy.linalg.schur``, and the reordering moves each eigenvalue to its
place with ``ztrexc``.  The target orders of a whole stack come from one
stable lexsort of the diagonals, ``ztrexc`` runs only on the forms out
of order, and it permutes the diagonal entries exactly, so the ordered
diagonal holds the very values of the input diagonal.

A normal matrix needs no Schur form for its spectrum alone: one
Hermitian eigensolve of a pencil of its Hermitian parts diagonalises it
(``_normal_spectra``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .matrices import _TOLERANCES, _compiled_module, _degree_one, _fro_norms, _scaled, _strict_upper, _unit, as_matrix

_flapack = _compiled_module("scipy.linalg._flapack", "scipy.linalg.lapack")
zgees, zlange, ztrexc, ztrtri = _flapack.zgees, _flapack.zlange, _flapack.ztrexc, _flapack.ztrtri

__all__ = [
    "SchurForm",
    "schur_decompose",
    "eigenvalues",
    "departure_from_normality",
]


@dataclass(eq=False)
class SchurForm:
    """Unitary factor q and upper triangular factor t.

    Satisfies q t q* = M for the source matrix M, with q unitary and t
    upper triangular (strictly lower entries exactly zero).  The
    eigenvalues are diag(t).
    """

    q: np.ndarray
    t: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        """diag(t), as a fresh array."""
        return np.diagonal(self.t).copy()


def schur_decompose(m) -> SchurForm:
    """Complex Schur decomposition M = q t q* of a square matrix.

    Delegates to LAPACK's implicit-shift QR, which manages its own
    iteration budget; a convergence failure raises LinAlgError rather
    than returning a truncated factorization.  An already upper
    triangular input is returned as-is with q = I.
    """
    q, t = _schur_factors(as_matrix(m)[None])
    return SchurForm(q=q[0], t=t[0])


def _no_sort(x):
    return None


@functools.cache
def _zgees_lwork(n: int) -> int:
    """The ``zgees`` workspace ``scipy.linalg.schur`` asks for: a function of n alone.
    Above 128 columns it sets ``zgehrd``'s block size, so a larger one
    changes T's bits (from n = 160) and is no faster at n = 256."""
    return int(zgees(_no_sort, np.zeros((n, n), dtype=np.complex128), lwork=-1)[-2][0].real)


def _schur_factors(m: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Schur factors (q, t) of each matrix of a stack, from one LAPACK
    ``zgees`` call per matrix (with the workspace ``scipy.linalg.schur``
    asks for, so the bits are the same); a matrix that is already upper
    triangular is its own t, with q = I.  Both stacks are written into
    ``out`` (2, k, n, n) if given, each matrix Fortran ordered, so that
    LAPACK works on it in place."""
    n = m.shape[-1]
    q, t = np.empty((2, *m.shape), dtype=np.complex128).transpose(0, 1, 3, 2) if out is None else out
    q[...], t[...] = np.eye(n), m
    lower = _strict_upper(n).T
    for i in np.flatnonzero((m[:, lower] != 0).any(axis=1)):
        ti, _, _, vs, _, info = zgees(_no_sort, t[i], lwork=_zgees_lwork(n), overwrite_a=1)
        if info > 0:
            raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
        t[i] = ti
        q[i] = vs
    t[:, lower] = 0.0
    return q, t


# c of the Hermitian pencil H + cK below: fixed and generic (the
# fractional part of the golden ratio)
_PENCIL_C = 0.6180339887498949


def _normal_spectra(a: np.ndarray) -> np.ndarray:
    """Spectrum (k, n) of each normal matrix of a stack (k, n, n), from
    one stacked Hermitian eigensolve.

    For a normal A the Hermitian parts H = (A + A*)/2 and K = (A - A*)/2i
    commute, so an eigenbasis V of the Hermitian pencil H + cK = wA +
    (wA)*, w = (1 - ic)/2, diagonalises A, and lam = diag(V* A V).
    Hoffman-Wielandt on V* A V = diag(lam) + offdiag puts lam within
    ||A V - V diag(lam)||_F of the spectrum, in the optimal matching.
    Where that residual exceeds the ``"spectrum"`` row of
    ``_TOLERANCES`` (two eigenvalues with nearly equal Re lam + c Im lam,
    whose eigenvectors the pencil mixes, or an A normal only at the
    ``"normal"`` tolerance), the matrix's spectrum comes from
    ``np.linalg.eigvals`` instead.  The result depends on A alone.

    Each matrix is first scaled exactly to its own unit scale (a case's A
    may be far smaller than its E), so that the squares of the residual
    check neither underflow nor overflow; lam is scaled back exactly."""
    residual, unit = pair = np.empty((2, *a.shape), dtype=np.complex128)
    exponent = _unit(a, out=unit)[1]
    wa = ((1.0 - 1j * _PENCIL_C) / 2) * unit
    v = np.linalg.eigh(wa + wa.conj().transpose(0, 2, 1))[1]
    av = unit @ v
    lam = (v.conj() * av).sum(axis=1)
    np.subtract(av, v * lam[:, None, :], out=residual)
    residual_norm, unit_norm = _fro_norms(pair.reshape(-1, *a.shape[1:])).reshape(2, -1)
    fallback = residual_norm > _TOLERANCES["spectrum"](a.shape[-1], unit_norm)
    lam = _scaled(lam, exponent)
    if fallback.any():
        lam[fallback] = np.linalg.eigvals(a[fallback])
    return lam


def _descending_order(d: np.ndarray) -> np.ndarray:
    """Indices that sort each row of a stack of spectra (k, n), or one
    spectrum (n,), by descending modulus, ties by descending real part,
    then descending imaginary part; equal eigenvalues keep their
    relative order.  The modulus is ``hypot``, as Python's ``abs`` of a
    complex (``np.abs`` of a complex array may differ in the last bit)."""
    return np.lexsort((-d.imag, -d.real, -np.hypot(d.real, d.imag)), axis=-1)


def _reorder(q: np.ndarray, t: np.ndarray) -> None:
    """Reorder each Schur form (q, t) of a stack of Fortran-ordered
    matrices, in place, into the order of :func:`_descending_order`; a
    form already in order is not touched.  Each eigenvalue moves to its
    place by one LAPACK ``ztrexc`` call (adjacent unitary swaps, Bai &
    Demmel 1993), so q t q* is kept to working accuracy and the new
    diagonal is an exact permutation of diag(t)."""
    n = t.shape[-1]
    target = _descending_order(t.diagonal(0, 1, 2))
    moved = np.flatnonzero((target != np.arange(n)).any(axis=1))
    target = target[moved]
    # Moving the eigenvalue target[p] to position p keeps the ones not yet
    # placed in their original relative order, so it starts at p plus the
    # number of later targets with a smaller original index.
    later_smaller = (target[:, None, :] < target[:, :, None]) & _strict_upper(n)
    source = np.arange(n) + np.count_nonzero(later_smaller, axis=2)
    for i, row in zip(moved.tolist(), source.tolist()):
        ti, qi = t[i], q[i]
        for p, j in enumerate(row):
            if j != p:
                ztrexc(ti, qi, j + 1, p + 1, overwrite_a=1, overwrite_q=1)


def eigenvalues(m) -> np.ndarray:
    """Spectrum of M as the diagonal of its Schur triangular factor."""
    return schur_decompose(m).eigenvalues


def _ranks(m: np.ndarray) -> np.ndarray:
    """Numerical rank of each matrix of a stack: the number of singular
    values above the ``"rank"`` row of ``_TOLERANCES``.

    Uses a true SVD: singular values computed through M* M lose half the
    working precision, which misclassifies exact zeros at this threshold.
    It is the reference count; :func:`_full_rank` only spares it where
    the count is certainly n.
    """
    sigma = np.linalg.svd(m, compute_uv=False)
    return np.count_nonzero(sigma > _TOLERANCES["rank"](m.shape[-1], sigma[:, :1]), axis=1)


def _full_rank(t: np.ndarray) -> np.ndarray:
    """Whether each upper triangular factor T of a stack certifies that
    its source M = Q T Q* has :func:`_ranks` n.  LAPACK ``ztrtri``
    inverts T (n^3/3 operations, far fewer than an SVD's), and the
    certificate holds when T is invertible and kappa = ||T||_F ||T^-1||_F
    (``zlange``, which scales its sums of squares) is below the
    ``"full_rank"`` row of ``_TOLERANCES``.  An exactly zero diagonal
    entry, an inverse that overflows (kappa inf or NaN) and a larger kappa
    leave the rank to the SVD."""
    bound = _TOLERANCES["full_rank"]()
    certified = np.zeros(len(t), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, ti in enumerate(t):
            inverse, info = ztrtri(ti)
            if info == 0:
                certified[i] = zlange("F", ti) * zlange("F", inverse) < bound
    return certified


def _strict_upper_parts(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """strict_upper(t) of each matrix of a stack, into ``out`` if given:
    t times the 0/1 mask, whose factors are exact.  Of a triangular factor
    t, its norm is the triangular excess, the departure from normality of
    its source."""
    return np.multiply(t, _strict_upper(t.shape[-1]), out=out)


def departure_from_normality(m) -> float:
    """||strict_upper(T)||_F of the Schur factor T of M: the same for
    every Schur form of M, and zero exactly when M is normal."""
    return _degree_one(m, lambda unit: _fro_norms(_strict_upper_parts(_schur_factors(unit)[1])))


def _block_boundaries(t: np.ndarray) -> np.ndarray:
    """Boundary flags (k, n - 1) of each upper triangular factor of a
    stack: entry [i, b] is true when a block of t[i] ends at index b,
    that is when every entry t[i, r, c] with r <= b < c has modulus
    within the ``"block"`` row of ``_TOLERANCES``.  A diagonal t has n
    blocks, a dense strictly upper t one."""
    # above[i, r, c] = max over j > c of |t[i, r, j]|, and its running
    # max over the rows r <= c is the largest entry right of and above
    # the boundary after c
    a = np.abs(t)
    above = np.maximum.accumulate(a[:, :, :0:-1], axis=2)[:, :, ::-1]
    corner = np.maximum.accumulate(above[:, :-1, :], axis=1)
    return corner.diagonal(0, 1, 2) <= _TOLERANCES["block"](_fro_norms(t)[:, None])


def _block_sizes(boundaries: np.ndarray) -> tuple[int, ...]:
    """The sizes of the diagonal blocks that the boundary flags (n - 1,) of
    one factor mark."""
    edges = np.concatenate(([0], np.flatnonzero(boundaries) + 1, [boundaries.size + 1]))
    return tuple(np.diff(edges).tolist())
