"""Dense complex matrix primitives shared by the whole package.

Matrices are plain numpy ``complex128`` arrays.  Inputs are checked at
the boundary: each public function here validates its argument through
:func:`as_matrix` (or :func:`as_spectrum`), ``make_case`` validates a
matrix pair once, and JSON loading validates every entry.  Inside the
package, the arrays of a built case are trusted and not checked again.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

__all__ = [
    "STRUCTURE_TOL",
    "as_matrix",
    "as_spectrum",
    "frobenius_norm",
    "strict_lower",
    "strict_upper",
    "is_normal",
    "is_hermitian",
    "matrix_to_json",
    "matrix_from_json",
    "save_matrix",
    "load_matrix",
]

#: Relative tolerance of the normality / Hermitian predicates.
STRUCTURE_TOL = 1e-10


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce ``m`` to a validated square complex128 array.

    Rejects non-square shapes and non-finite entries.  Returns a view when
    ``m`` is already a complex128 array.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_spectrum(v, name: str = "spectrum") -> np.ndarray:
    """Coerce ``v`` to a validated 1-d complex128 array of eigenvalues."""
    a = np.asarray(v, dtype=np.complex128).ravel()
    if a.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def frobenius_norm(m) -> float:
    return float(np.linalg.norm(as_matrix(m), "fro"))


def strict_lower(m) -> np.ndarray:
    """Strictly lower triangular part of M (diagonal zeroed)."""
    return np.tril(as_matrix(m), -1)


def strict_upper(m) -> np.ndarray:
    """Strictly upper triangular part of M (diagonal zeroed)."""
    return np.triu(as_matrix(m), 1)


# -- stacks -------------------------------------------------------------
#
# The case pipeline works on stacks (k, n, n) of trusted matrices of one
# size.  These helpers give, matrix by matrix, the very bits of the
# single-matrix computations above.

def _fro_norms(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, bit for bit
    ``np.linalg.norm(m[i], "fro")`` of a C-ordered matrix: the same two
    BLAS dot products (real and imaginary parts) in row-major order."""
    flat = m.reshape(m.shape[0], 1, -1)
    re, im = flat.real, flat.imag
    squares = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
    return np.sqrt(squares[:, 0, 0])


def _commutator_defects(m: np.ndarray) -> np.ndarray:
    """||M M* - M* M||_F of each matrix M of a stack."""
    h = m.conj().transpose(0, 2, 1)
    return _fro_norms(m @ h - h @ m)


def _is_normal(defect, nrm):
    # The commutator defect scales quadratically with M, hence the
    # squared norm in the threshold.
    return defect <= STRUCTURE_TOL * np.maximum(1.0, nrm * nrm)


def _is_hermitian(m: np.ndarray) -> np.ndarray:
    defect = _fro_norms(m - m.conj().transpose(0, 2, 1))
    return defect <= STRUCTURE_TOL * np.maximum(1.0, _fro_norms(m))


def is_normal(m) -> bool:
    """Whether M M* = M* M within ``STRUCTURE_TOL * max(1, ||M||_F^2)``."""
    m = as_matrix(m)[None]
    return bool(_is_normal(_commutator_defects(m), _fro_norms(m))[0])


def is_hermitian(m) -> bool:
    """Whether M = M* within ``STRUCTURE_TOL * max(1, ||M||_F)``."""
    return bool(_is_hermitian(as_matrix(m)[None])[0])


# -- JSON wire format ---------------------------------------------------
#
# A matrix travels as {"n": n, "entries": [[re, im], ...]} with exactly
# n*n [re, im] pairs in row-major order.

def matrix_to_json(m) -> dict:
    """Encode a matrix as its wire-format dictionary."""
    m = as_matrix(m)
    pairs = np.stack([m.real, m.imag], -1).reshape(-1, 2)
    return {"n": m.shape[0], "entries": pairs.tolist()}


def matrix_from_json(obj) -> np.ndarray:
    """Decode and validate the wire-format dictionary.

    The entries are checked in bulk (pair types and lengths, then the
    number types, then finiteness of the decoded values) and decoded in
    one pass; an integer entry becomes the float ``float(x)`` gives.
    Raises ValueError on a malformed object: wrong entry count, entries
    that are not [re, im] pairs of int or float (bools excluded), or
    values that are not finite or too large for a float.  When a bulk
    check fails, the entries are walked in order and the message names
    the first bad entry.
    """
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("matrix JSON field 'n' must be a positive integer")
    entries = obj.get("entries")
    if not isinstance(entries, list) or len(entries) != n * n:
        found = len(entries) if isinstance(entries, list) else "missing"
        raise ValueError(
            f"matrix JSON needs exactly {n * n} entries, got {found}"
        )
    flat = _decode_entries(entries)
    if flat is None:
        raise _first_bad_entry(entries)
    return flat.view(np.complex128).reshape(n, n)


def _is_number_type(t: type) -> bool:
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _decode_entries(entries: list) -> np.ndarray | None:
    """The entries as one flat float64 array of [re, im] values, or None
    when any entry is malformed, not finite or out of float range."""
    if not all(issubclass(t, (list, tuple)) for t in set(map(type, entries))):
        return None
    if set(map(len, entries)) != {2}:
        return None
    scalar_types = set(map(type, itertools.chain.from_iterable(entries)))
    if not all(map(_is_number_type, scalar_types)):
        return None
    try:
        flat = np.fromiter(
            itertools.chain.from_iterable(entries),
            dtype=np.float64,
            count=2 * len(entries),
        )
    except OverflowError:  # an integer beyond the float range
        return None
    return flat if np.isfinite(flat).all() else None


def _first_bad_entry(entries: list) -> ValueError:
    """The error naming the first entry that :func:`_decode_entries` refuses."""
    for k, pair in enumerate(entries):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(_is_number_type(type(x)) for x in pair)
        ):
            return ValueError(f"entry {k} is not a [re, im] pair of numbers")
        try:
            finite = math.isfinite(pair[0]) and math.isfinite(pair[1])
        except OverflowError:
            finite = False
        if not finite:
            return ValueError(f"entry {k} is not finite")
    return ValueError("matrix JSON entries could not be decoded")


def save_matrix(path, m) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(m), fh)
        fh.write("\n")


def load_matrix(path) -> np.ndarray:
    """Read a matrix file in the wire format.

    Raises OSError when the file cannot be read, and ValueError when it
    is not valid JSON or not a valid matrix (see :func:`matrix_from_json`);
    every ValueError message starts with the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        return matrix_from_json(obj)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
