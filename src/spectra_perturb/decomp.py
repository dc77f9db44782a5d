"""Schur decomposition and the spectral quantities derived from it.

The triangularization M = Q T Q* is the engine behind every quantity that
involves the strictly upper triangular excess of a matrix: eigenvalue
extraction, departure from normality, block-structure detection, and the
deterministic descending-modulus reordering used by the bound catalog.

Both steps are LAPACK: the decomposition is the implicit-shift QR of
``scipy.linalg.schur``, and the reordering moves each eigenvalue to its
place with ``ztrexc``.  The target order is computed here from diag(t),
and ``ztrexc`` permutes the diagonal entries exactly, so the ordered
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
    "validate_schur_form",
    "reorder_schur",
    "eigenvalues",
    "spectral_norm",
    "numerical_rank",
    "departure_from_normality",
    "detect_block_structure",
]

#: Residual budget for Schur-form invariants (reconstruction, unitarity,
#: triangularity), relative to n * max(1, ||M||_F).
TAU_SCHUR = 1e-10


@dataclass(eq=False)
class SchurForm:
    """Unitary factor q, upper triangular factor t, and diag(t).

    Satisfies q t q* = M for the source matrix M, with q unitary and t
    upper triangular (strictly lower entries exactly zero).
    """

    q: np.ndarray
    t: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n(self) -> int:
        return self.t.shape[0]


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
    return SchurForm(q=q[0], t=t[0], eigenvalues=np.diagonal(t[0]).copy())


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


def validate_schur_form(form: SchurForm, source) -> None:
    """Check the SchurForm invariants against its source matrix.

    Raises ValueError naming the first violated invariant.
    """
    source = as_matrix(source, "source matrix")
    if form.q.shape != source.shape or form.t.shape != source.shape:
        raise ValueError("factor shapes do not match the source matrix")
    _check_schur_forms(form.q[None], form.t[None], form.eigenvalues[None], source[None])


def _check_schur_forms(q, t, eigenvalues, source) -> None:
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
    if not np.array_equal(eigenvalues, np.diagonal(t, axis1=1, axis2=2)):
        raise ValueError("stored eigenvalues do not equal diag(t)")


def _order_key(lam: complex) -> tuple[float, float, float]:
    # descending modulus; ties by descending real, then imaginary part
    return (-abs(lam), -lam.real, -lam.imag)


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
    return SchurForm(q=q[0], t=t[0], eigenvalues=np.diagonal(t[0]).copy())


def _reorder(q: np.ndarray, t: np.ndarray) -> None:
    """:func:`reorder_schur` in place on each form of a stack whose
    matrices are Fortran ordered."""
    n = t.shape[-1]
    for qi, ti in zip(q, t):
        diag = ti.diagonal().tolist()
        target = sorted(range(n), key=lambda k: _order_key(diag[k]))
        # current[p] is the original index of the eigenvalue now at position p;
        # positions before i are final, the rest keep their relative order
        current = list(range(n))
        for i, k in enumerate(target):
            j = current.index(k, i)
            if j != i:
                ztrexc(ti, qi, j + 1, i + 1, overwrite_a=1, overwrite_q=1)
                current.insert(i, current.pop(j))


def eigenvalues(m) -> np.ndarray:
    """Spectrum of M as the diagonal of its Schur triangular factor."""
    return schur_decompose(m).eigenvalues


def spectral_norm(m) -> float:
    """Largest singular value, via the largest eigenvalue of M* M."""
    m = as_matrix(m)
    ev = np.linalg.eigvalsh(m.conj().T @ m)
    return float(np.sqrt(max(0.0, float(ev[-1]))))


def numerical_rank(m) -> int:
    """Number of singular values above ``64 n eps * sigma_max``.

    Uses a true SVD: singular values computed through M* M lose half the
    working precision, which misclassifies exact zeros at this threshold.
    """
    return int(_ranks(as_matrix(m)[None])[0])


def _ranks(m: np.ndarray) -> np.ndarray:
    """:func:`numerical_rank` of each matrix of a stack."""
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


def detect_block_structure(t, tol: float = 1e-12) -> BlockStructure:
    """Detect the block upper triangular zero pattern of t.

    A boundary after index k exists when every entry t[i, j] with
    i <= k < j has modulus at most ``tol * ||t||_F``.  The block count is
    one plus the number of boundaries; a diagonal t yields n blocks and
    a dense strictly-upper t yields one.
    """
    t = as_matrix(t, "triangular factor")
    return _block_structure(_block_boundaries(t[None], tol)[0])


def _block_boundaries(t: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Boundary flags (k, n - 1) of each triangular factor of a stack:
    entry [i, b] is true when a block of t[i] ends at index b."""
    nrm = _fro_norms(t)
    if (_fro_norms(np.tril(t, -1)) > tol * np.maximum(1.0, nrm)).any():
        raise ValueError("t is not upper triangular")
    # above[i, r, c] = max over j > c of |t[i, r, j]|, and its running
    # max over the rows r <= c is the largest entry right of and above
    # the boundary after c
    a = np.abs(t)
    above = np.maximum.accumulate(a[:, :, :0:-1], axis=2)[:, :, ::-1]
    corner = np.maximum.accumulate(above[:, :-1, :], axis=1)
    return np.diagonal(corner, axis1=1, axis2=2) <= tol * nrm[:, None]


def _block_structure(boundaries: np.ndarray) -> BlockStructure:
    ends = np.flatnonzero(boundaries) + 1
    edges = np.concatenate(([0], ends, [boundaries.size + 1]))
    return BlockStructure(sizes=tuple(np.diff(edges).tolist()))
