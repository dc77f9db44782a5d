"""Dense complex matrix primitives shared by the whole package.

Matrices are plain numpy ``complex128`` arrays.  Inputs are checked at
the boundary: each public function here validates its argument through
:func:`as_matrix` (or :func:`as_spectrum`), ``make_case`` validates a
matrix pair once and a draw's parameters once, and JSON loading
validates every entry.  Inside the package, arrays (drawn ones too) are
trusted, not checked.  A matrix, a spectrum, a pair of spectra or a
case's pair is worked on at its unit scale, where its largest real or
imaginary entry is in [1, 4), and a result is scaled back exactly
(:func:`_unit`, :func:`_scaled`).

The package calls five compiled scipy functions: ``zgees``, ``ztrexc``,
``ztrtri`` and ``zlange`` of ``scipy.linalg._flapack``, and
``linear_sum_assignment`` of ``scipy.optimize._lsap``.
:func:`_compiled_module` loads those two extension modules from scipy's
directory without running the ``scipy.linalg`` and ``scipy.optimize``
package imports, and falls back to those imports on a scipy laid out
otherwise: the two package imports would be most of a fresh
``spectra-perturb bounds`` call on a small pair.
"""

from __future__ import annotations

import functools
import gc
import importlib
import importlib.machinery
import importlib.util
import itertools
import json
import math
import os
import sys
import threading

import numpy as np
import orjson
import scipy

__all__ = [
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

# Every inequality of the paper holds in exact arithmetic, so each test
# of one in floating point carries a round-off slack.  This is the one
# table of them: each row maps the raw quantities a threshold scales with
# (norms, sizes, values) to the threshold.  A row's operation order is
# part of it: a threshold's last bit can decide a borderline case.  Every
# row runs at a case's unit scale (the tests of A at A's own), where a
# floor of 1 (max(1, .), 1 + .) is the pair's largest entry, so scaling a
# pair (A, E) moves no verdict.
_TOLERANCES = {
    # ||M M* - M* M||_F scales quadratically with M
    "normal": lambda nrm: 1e-10 * (nrm * nrm),
    # ||M - M*||_F scales linearly with M
    "hermitian": lambda nrm: 1e-10 * nrm,
    # an entry of t this small next to ||t||_F ends an eigenvalue block
    "block": lambda nrm: 1e-12 * nrm,
    # larger singular values count toward the numerical rank
    "rank": lambda n, sigma_max: 64 * n * float(np.finfo(np.float64).eps) * sigma_max,
    # kappa = ||T||_F ||T^-1||_F of a Schur factor T of M below this
    # certifies the SVD count of M above the "rank" row as n: kappa < 1e6
    # gives sigma_min / sigma_max > 1e-6, at least 700 times the "rank"
    # row's 64 n eps for any n <= 1e5; the backward errors of the Schur
    # form and of the SVD, O(n eps ||M||), and the error of the computed
    # inverse are far smaller than that margin, so no SVD count below n
    # passes (Higham, Accuracy and Stability of Numerical Algorithms,
    # 2nd ed., ch. 14)
    "full_rank": lambda: 1e6,
    # ||A V - V diag(lam)||_F of the pencil eigenbasis V of a normal A,
    # which bounds the error of lam (Hoffman-Wielandt); no floor, so it
    # scales with A and an exact zero stays exact
    "spectrum": lambda n, nrm: 64 * n * float(np.finfo(np.float64).eps) * nrm,
    # Q* E Q has no exact zeros; smaller entries do not widen the band
    "band": lambda nrm: 1e-13 * nrm,
    # a radicand ||.||^2 - y clamps to 0 within this of its leading square
    "radicand": lambda lead: 1e-9 * (1.0 + lead),
    # the same for a distance bound, (1 + ||E||_F^2) + Delta^2 in this order
    "distance_radicand": lambda e2, excess2: 1e-9 * (1.0 + e2 + excess2),
    # a bound below d2 by more than this is a violation, at every scale
    "violation": lambda a_norm, e_norm: 1e-8 * (1.0 + a_norm + e_norm),
    # d_inf <= d2
    "metric": lambda d2: 1e-12 * (1.0 + d2),
    # a sharpened bound against its baseline
    "ordering": lambda base: 1e-12 * np.maximum(1.0, np.abs(base)),
    # the excess estimates against the excess of A + E
    "sandwich": lambda nrm: 1e-9 * np.maximum(1.0, nrm),
    # tr(E) counts as nonzero beyond this
    "trace_nonzero": lambda e_norm: 1e-12 * np.maximum(1.0, e_norm),
    # the comparisons of a Hermitian base, on the scale of ||E||_F + Delta
    "hermitian_checks": lambda e_norm, excess: 1e-12 * np.maximum(np.maximum(1.0, e_norm), excess),
}


# A reported number must be finite.  For n <= 2^16 and a pair's largest
# entry m, S = ||A||_F + ||E||_F <= 2^17.5 m; d2, the norms and excesses are
# at most 2 S, the distance bounds 2 sqrt(n) S and henrici_3_6 2^29.1 m, so
# each is at most 2^30 m, and entries below 2^990 keep every one finite.
_ENTRY_EXPONENT_LIMIT = 990


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
    return _degree_one(m, _fro_norms)


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

def _largest(m: np.ndarray) -> np.ndarray:
    """The largest modulus of a real or imaginary entry of each member of
    a stack (k, r, c)."""
    return np.abs(np.ascontiguousarray(m).view(np.float64)).max(axis=(1, 2))


def _unit_exponents(largest: np.ndarray) -> np.ndarray:
    """The even p (k,), int32, for which each of the ``largest`` entries
    times 2^-p is in [1, 4): 2 floor((e - 1) / 2) for largest = f 2^e, f in [1/2, 1)."""
    return (np.frexp(largest)[1] - 1) & -2


def _unit(m: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """A stack (k, r, c) of matrices, or of spectra held as rows, times the
    power of 4, 2^-p, that puts each member's largest real or imaginary
    entry in [1, 4), into ``out`` if given; then p (k,), which scales a
    result of degree 1 back (2p one of degree 2)."""
    exponent = _unit_exponents(_largest(m))
    return _scaled(m, -exponent, out), exponent


def _scaled(m: np.ndarray, exponent: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """2^p m for a stack m (k, ...) and integers p (k,), or p of the shape
    of m's leading axes, exact where the result is normal, into ``out``
    (C-ordered, of m's shape) if given.  ``np.ldexp`` with int32 p (as
    :func:`_unit_exponents` gives it) is as cheap as a product; its int64
    loop is several times slower."""
    x = np.ascontiguousarray(m).view(np.float64)
    p = exponent.reshape(exponent.shape + (1,) * (x.ndim - exponent.ndim))
    return np.ldexp(x, p, out=None if out is None else out.view(np.float64)).view(m.dtype)


def _degree_one(m, f) -> float:
    """f(M) for a function f of degree 1 on stacks, run at M's unit scale."""
    unit, exponent = _unit(as_matrix(m)[None])
    return float(_scaled(f(unit), exponent)[0])


def _fro_norms(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, bit for bit
    ``np.linalg.norm(m[i], "fro")`` of a C-ordered matrix: the same two
    BLAS dot products (real and imaginary parts) in row-major order, in
    whatever layout m is.  A matrix's norm depends on its entries alone,
    so a stage writes every stack it needs norms of into one C-ordered
    buffer (s, k, n, n) and takes them in one call on its (s k, n, n) view."""
    flat = m.reshape(m.shape[0], 1, -1)
    re, im = flat.real, flat.imag
    squares = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
    return np.sqrt(squares[:, 0, 0])


# Cached per size and process, like decomp._zgees_lwork: a read-only bool mask, no n^2 index array.
@functools.cache
def _strict_upper(n: int) -> np.ndarray:
    """The read-only (n, n) mask of the entries above the diagonal."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def _commutators(m: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """M M* - M* M of each matrix M of a stack, into ``out`` if given, with
    M* M taken into ``scratch`` if given."""
    h = m.conj().transpose(0, 2, 1)
    out = np.matmul(m, h, out=out)
    out -= np.matmul(h, m, out=scratch)
    return out


def _commutator_defects(m: np.ndarray) -> np.ndarray:
    """||M M* - M* M||_F of each matrix M of a stack."""
    return _fro_norms(_commutators(m))


def _is_normal(defect, nrm):
    return defect <= _TOLERANCES["normal"](nrm)


def _is_hermitian(defect, nrm):
    """Whether M = M* within the ``"hermitian"`` row of ``_TOLERANCES``, from
    ``defect`` = ||M - M*||_F and ``nrm`` = ||M||_F."""
    return defect <= _TOLERANCES["hermitian"](nrm)


def is_normal(m) -> bool:
    """Whether M M* = M* M within the ``"normal"`` row of ``_TOLERANCES``."""
    unit, _ = _unit(as_matrix(m)[None])
    return bool(_is_normal(_commutator_defects(unit), _fro_norms(unit))[0])


def is_hermitian(m) -> bool:
    """Whether M = M* within the ``"hermitian"`` row of ``_TOLERANCES``."""
    unit, _ = _unit(as_matrix(m)[None])
    return bool(_is_hermitian(_fro_norms(unit - unit.conj().transpose(0, 2, 1)), _fro_norms(unit))[0])


# -- compiled scipy modules ---------------------------------------------


def _compiled_module(name: str, public: str):
    """The compiled extension module ``name`` of scipy (``scipy.linalg._flapack``),
    loaded from its package's directory without running that package's
    ``__init__``, or, where no such extension file loads, the public
    module ``public`` that exports the same functions.

    The module is registered in ``sys.modules`` under ``name``, so a later
    import of its package reuses it rather than loading the file twice.
    The package gets no attribute for it (``scipy.linalg._flapack`` raises
    AttributeError), but ``from scipy.linalg import _flapack`` finds it.
    """
    if name in sys.modules:
        return sys.modules[name]
    package = name.rpartition(".")[0]
    directory = os.path.join(scipy.__path__[0], *package.split(".")[1:])
    finder = importlib.machinery.FileFinder(
        directory, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    )
    spec = finder.find_spec(name)
    if spec is not None:
        try:
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            return module
        except ImportError:
            sys.modules.pop(name, None)
    return importlib.import_module(public)


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
    when any entry is malformed, not finite or out of float range.  The
    pairs are flattened once, into the list whose types are checked and
    whose values are decoded."""
    if not all(issubclass(t, (list, tuple)) for t in set(map(type, entries))):
        return None
    if set(map(len, entries)) != {2}:
        return None
    scalars = list(itertools.chain.from_iterable(entries))
    if not all(map(_is_number_type, set(map(type, scalars)))):
        return None
    try:
        flat = np.fromiter(scalars, dtype=np.float64, count=len(scalars))
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


# orjson 3.8 nests on the C stack without a limit.  In a main thread with
# the default 8 MiB stack 130,000 levels decode and 140,000 crash the
# process; in a thread with a 512 KiB stack 8,000 decode and 9,000 crash.
# Another thread's stack size cannot be read, so there the limit is one a
# 512 KiB stack clears with margin; a much smaller stack is not guarded
_ORJSON_DEPTH_LIMIT = 100_000
_ORJSON_THREAD_DEPTH_LIMIT = 1_000
_NOT_NESTING = bytes(sorted(set(range(256)).difference(b'[]{}"\\')))


def _too_deep_for_orjson(data: bytes) -> bool:
    """Whether ``data`` may nest arrays and objects ``_ORJSON_DEPTH_LIMIT``
    levels deep, or ``_ORJSON_THREAD_DEPTH_LIMIT`` outside the main
    thread.  Fewer ``[`` and ``{`` bytes than that settle it in one
    pass; else the depth is counted outside strings, over the bracket,
    quote and backslash bytes alone.  In text with no backslash strings
    start and end at each quote; text with a backslash and that many
    brackets counts as too deep."""
    limit = _ORJSON_DEPTH_LIMIT
    if threading.current_thread() is not threading.main_thread():
        limit = _ORJSON_THREAD_DEPTH_LIMIT
    b = np.frombuffer(data, dtype=np.uint8)
    # OR 0x20 folds "[" onto "{" and no other byte onto it
    if np.count_nonzero((b | np.uint8(0x20)) == ord("{")) < limit:
        return False
    marks = data.translate(None, _NOT_NESTING)
    if b"\\" in marks:
        return True
    outside = np.frombuffer(b"".join(marks.split(b'"')[::2]), dtype=np.uint8)
    # "[" and "{" have bit 0x02 set, "]" and "}" do not
    steps = (outside & np.uint8(2)).astype(np.int32) - 1
    return bool(np.cumsum(steps).max(initial=0) >= limit)


def save_matrix(path, m) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(m), fh)
        fh.write("\n")


def load_matrix(path) -> np.ndarray:
    """Read a matrix file in the wire format (:func:`matrix_from_json`).

    ``orjson`` decodes the file's bytes.  What it refuses, and text that
    may nest deeper than it can take (:func:`_too_deep_for_orjson`), the
    stdlib ``json`` decodes from the text a text-mode read gives, so that
    :func:`matrix_from_json` judges every value the stdlib accepts and
    every decode error is the stdlib's (orjson 3.8 reads an integer above
    2^64 as a float).  Raises OSError when the file cannot be read, and
    ValueError, its message starting with the path, when it is not valid
    JSON or not a valid matrix.  The cyclic garbage collector is paused
    until the decoded object is freed; its previous state is restored on
    every path.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            try:
                if _too_deep_for_orjson(data):
                    raise orjson.JSONDecodeError("nested too deep for orjson", "", 0)
                obj = orjson.loads(data)
            except orjson.JSONDecodeError:
                # the text a text-mode read gives (universal newlines):
                # an error's position counts each line end as one character
                data = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
                obj = json.loads(data)
            data = None
            return matrix_from_json(obj)
        finally:
            # after a good file or a decode error, the decoded object goes before
            # the collector is back (a refused matrix's traceback still holds it)
            obj = data = None
            if gc_was_enabled:
                gc.enable()
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
