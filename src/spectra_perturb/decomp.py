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
import scipy.linalg
from scipy.linalg.lapack import ztrexc

from .matrices import as_matrix, frobenius_norm

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
    m = as_matrix(m)
    n = m.shape[0]
    if np.all(np.tril(m, -1) == 0):
        t = m.astype(np.complex128, copy=True)
        q = np.eye(n, dtype=np.complex128)
    else:
        t, q = scipy.linalg.schur(m, output="complex")
        t = np.triu(np.asarray(t, dtype=np.complex128))
        q = np.asarray(q, dtype=np.complex128)
    return SchurForm(q=q, t=t, eigenvalues=np.diag(t).copy())


def validate_schur_form(form: SchurForm, source) -> None:
    """Check the SchurForm invariants against its source matrix.

    Raises ValueError naming the first violated invariant.
    """
    source = as_matrix(source, "source matrix")
    q, t = form.q, form.t
    n = t.shape[0]
    if q.shape != source.shape or t.shape != source.shape:
        raise ValueError("factor shapes do not match the source matrix")
    budget = TAU_SCHUR * n * max(1.0, frobenius_norm(source))
    if np.linalg.norm(q.conj().T @ q - np.eye(n), "fro") > TAU_SCHUR * n:
        raise ValueError("q is not unitary within tolerance")
    if np.linalg.norm(np.tril(t, -1), "fro") > TAU_SCHUR * max(1.0, frobenius_norm(t)):
        raise ValueError("t is not upper triangular within tolerance")
    if np.linalg.norm(q @ t @ q.conj().T - source, "fro") > budget:
        raise ValueError("q t q* does not reconstruct the source matrix")
    if not np.array_equal(form.eigenvalues, np.diag(t)):
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
    t = np.array(form.t, dtype=np.complex128, order="F")
    q = np.array(form.q, dtype=np.complex128, order="F")
    diag = np.diag(t).tolist()
    target = sorted(range(len(diag)), key=lambda k: _order_key(diag[k]))
    # current[p] is the original index of the eigenvalue now at position p;
    # positions before i are final, the rest keep their relative order
    current = list(range(len(diag)))
    for i, k in enumerate(target):
        j = current.index(k, i)
        if j != i:
            t, q, _ = ztrexc(t, q, j + 1, i + 1, overwrite_a=1, overwrite_q=1)
            current.insert(i, current.pop(j))
    return SchurForm(q=q, t=t, eigenvalues=np.diag(t).copy())


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
    m = as_matrix(m)
    rtol = 64 * m.shape[0] * float(np.finfo(np.float64).eps)
    sigma = np.linalg.svd(m, compute_uv=False)
    if sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > rtol * sigma[0]))


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
    n = t.shape[0]
    nrm = float(np.linalg.norm(t, "fro"))
    if np.linalg.norm(np.tril(t, -1), "fro") > tol * max(1.0, nrm):
        raise ValueError("t is not upper triangular")
    if n == 1:
        return BlockStructure(sizes=(1,))
    thr = tol * nrm
    a = np.abs(t)
    # suffix[i, c] = max over j >= c of |t[i, j]|
    suffix = np.maximum.accumulate(a[:, ::-1], axis=1)[:, ::-1]
    boundaries = [k for k in range(n - 1) if suffix[: k + 1, k + 1].max() <= thr]
    sizes = []
    prev = 0
    for k in boundaries:
        sizes.append(k + 1 - prev)
        prev = k + 1
    sizes.append(n - prev)
    return BlockStructure(sizes=tuple(sizes))
