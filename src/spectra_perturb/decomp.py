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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgees, ztrexc

from .matrices import _fro_norms, as_matrix

__all__ = [
    "SchurForm",
    "BlockStructure",
    "TAU_SCHUR",
    "schur_decompose",
    "reorder_schur",
    "eigenvalues",
    "departure_from_normality",
]

#: Residual budget for Schur-form invariants (reconstruction, unitarity,
#: triangularity), relative to n * max(1, ||M||_F).
TAU_SCHUR = 1e-10


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
    def n(self) -> int:
        return self.t.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        """diag(t), as a fresh array."""
        return np.diagonal(self.t).copy()


@dataclass(frozen=True)
class BlockStructure:
    """Sizes of the diagonal blocks detected in a triangular factor."""

    sizes: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.sizes)


def schur_decompose(m) -> SchurForm:
    """Complex Schur decomposition M = q t q* of a square matrix.

    Delegates to LAPACK's implicit-shift QR, which manages its own
    iteration budget; a convergence failure raises LinAlgError rather
    than returning a truncated factorization.  An already upper
    triangular input is returned as-is with q = I.
    """
    q, t = _schur_factors(as_matrix(m)[None])
    return SchurForm(q=q[0], t=t[0])


def _fortran_stack(m: np.ndarray) -> np.ndarray:
    """A copy of a stack (k, n, n) whose matrices are each Fortran
    ordered, so LAPACK works on them in place."""
    out = np.empty_like(m, dtype=np.complex128, order="C").transpose(0, 2, 1)
    out[...] = m
    return out


def _no_sort(x):
    return None


def _schur_factors(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schur factors (q, t) of each matrix of a stack, from one LAPACK
    ``zgees`` call per matrix (with the workspace ``scipy.linalg.schur``
    asks for, so the bits are the same); a matrix that is already upper
    triangular is its own t, with q = I.  Both stacks are Fortran
    ordered per matrix."""
    n = m.shape[-1]
    t = _fortran_stack(m)
    q = _fortran_stack(np.broadcast_to(np.eye(n), m.shape))
    triangular = ~np.tril(m, -1).any(axis=(1, 2))
    lwork = None
    for i in np.flatnonzero(~triangular):
        if lwork is None:
            lwork = int(zgees(_no_sort, t[i], lwork=-1)[-2][0].real)
        ti, _, _, vs, _, info = zgees(_no_sort, t[i], lwork=lwork, overwrite_a=1)
        if info > 0:
            raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
        t[i] = ti
        q[i] = vs
    rows, cols = np.tril_indices(n, -1)
    t[:, rows, cols] = 0.0
    return q, t


def _check_schur_forms(q, t, source) -> None:
    """Check the invariants of a stack of Schur forms against a stack of
    source matrices; ValueError names the first invariant some matrix
    violates."""
    n = t.shape[-1]
    budget = TAU_SCHUR * n * np.maximum(1.0, _fro_norms(source))
    qh = q.conj().transpose(0, 2, 1)
    if (_fro_norms(qh @ q - np.eye(n)) > TAU_SCHUR * n).any():
        raise ValueError("q is not unitary within tolerance")
    if (_fro_norms(np.tril(t, -1)) > TAU_SCHUR * np.maximum(1.0, _fro_norms(t))).any():
        raise ValueError("t is not upper triangular within tolerance")
    if (_fro_norms(q @ t @ qh - source) > budget).any():
        raise ValueError("q t q* does not reconstruct the source matrix")


def _descending_order(d: np.ndarray) -> np.ndarray:
    """Indices that sort each row of a stack of spectra (k, n), or one
    spectrum (n,), by descending modulus, ties by descending real part,
    then descending imaginary part; equal eigenvalues keep their
    relative order.  The modulus is ``hypot``, as Python's ``abs`` of a
    complex (``np.abs`` of a complex array may differ in the last bit)."""
    return np.lexsort((-d.imag, -d.real, -np.hypot(d.real, d.imag)), axis=-1)


def reorder_schur(form: SchurForm) -> SchurForm:
    """Reorder a Schur form so diag(t) is sorted by descending modulus.

    Ties are broken by descending real part, then descending imaginary
    part, and equal eigenvalues keep their relative order, which makes
    the result deterministic.  Each eigenvalue is moved to its place by
    one LAPACK ``ztrexc`` call (a chain of adjacent unitary swaps, Bai &
    Demmel 1993), so q t q* is preserved to working accuracy and the
    diagonal of the result is an exact permutation of diag(t).  The
    input form is not modified.
    """
    q = _fortran_stack(form.q[None])
    t = _fortran_stack(form.t[None])
    _reorder(q, t)
    return SchurForm(q=q[0], t=t[0])


def _reorder(q: np.ndarray, t: np.ndarray) -> None:
    """:func:`reorder_schur` in place on each form of a stack whose
    matrices are Fortran ordered; a form already in order is not
    touched."""
    n = t.shape[-1]
    target = _descending_order(np.diagonal(t, axis1=1, axis2=2))
    # Moving the eigenvalue target[p] to position p keeps the ones not yet
    # placed in their original relative order, so it starts at p plus the
    # number of later targets with a smaller original index.
    later_smaller = np.triu(target[:, None, :] < target[:, :, None], 1)
    source = np.arange(n) + np.count_nonzero(later_smaller, axis=2)
    for i in np.flatnonzero((source != np.arange(n)).any(axis=1)).tolist():
        ti, qi = t[i], q[i]
        for p, j in enumerate(source[i].tolist()):
            if j != p:
                ztrexc(ti, qi, j + 1, p + 1, overwrite_a=1, overwrite_q=1)


def eigenvalues(m) -> np.ndarray:
    """Spectrum of M as the diagonal of its Schur triangular factor."""
    return schur_decompose(m).eigenvalues


def _ranks(m: np.ndarray) -> np.ndarray:
    """Numerical rank of each matrix of a stack: the number of singular
    values above ``64 n eps * sigma_max``.

    Uses a true SVD: singular values computed through M* M lose half the
    working precision, which misclassifies exact zeros at this threshold.
    """
    rtol = 64 * m.shape[-1] * float(np.finfo(np.float64).eps)
    sigma = np.linalg.svd(m, compute_uv=False)
    return np.count_nonzero(sigma > rtol * sigma[:, :1], axis=1)


def departure_from_normality(m) -> float:
    """sqrt(max(0, ||M||_F^2 - sum |lambda_i|^2)).

    Equals the Frobenius norm of the strictly upper part of the Schur
    triangular factor; zero exactly when M is normal.  Note the formula
    is a difference of nearly equal quantities for (near-)normal inputs,
    where the result floors at roughly sqrt(n*eps)*||M||_F.
    """
    m = as_matrix(m)
    lam = eigenvalues(m)
    nrm2 = float(np.linalg.norm(m, "fro")) ** 2
    excess = nrm2 - float(np.sum(np.abs(lam) ** 2))
    return float(np.sqrt(max(0.0, excess)))


def _block_boundaries(t: np.ndarray) -> np.ndarray:
    """Boundary flags (k, n - 1) of each upper triangular factor of a
    stack: entry [i, b] is true when a block of t[i] ends at index b,
    that is when every entry t[i, r, c] with r <= b < c has modulus at
    most ``1e-12 * ||t[i]||_F``.  A diagonal t has n blocks, a dense
    strictly upper t one."""
    # above[i, r, c] = max over j > c of |t[i, r, j]|, and its running
    # max over the rows r <= c is the largest entry right of and above
    # the boundary after c
    a = np.abs(t)
    above = np.maximum.accumulate(a[:, :, :0:-1], axis=2)[:, :, ::-1]
    corner = np.maximum.accumulate(above[:, :-1, :], axis=1)
    return np.diagonal(corner, axis1=1, axis2=2) <= 1e-12 * _fro_norms(t)[:, None]


def _block_structure(boundaries: np.ndarray) -> BlockStructure:
    ends = np.flatnonzero(boundaries) + 1
    edges = np.concatenate(([0], ends, [boundaries.size + 1]))
    return BlockStructure(sizes=tuple(np.diff(edges).tolist()))
