"""Seeded random cases and exact worked-example fixtures.

:func:`random_case` draws the base matrix and the perturbation of a case
from one Philox 4x64 counter-based stream with key ``(seed mod 2^64, 0)``,
so cases are bit-reproducible across runs and machines for a given seed.
Campaign trials derive per-trial seeds as ``seed XOR trial_index`` and
therefore need no shared state.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .bounds import PerturbationCase, _Cases, _make_cases, make_case
from .decomp import _descending_order
from .matrices import _ENTRY_EXPONENT_LIMIT, _fro_norms, _strict_upper

__all__ = [
    "KINDS",
    "TRACE_MODES",
    "EnsembleSpec",
    "derive_trial_seed",
    "random_case",
    "FIXTURE_NAMES",
    "PHI_EXAMPLE_UNITARY",
    "fixture",
    "fixture_matrices",
    "fixture_expectations",
]

KINDS = ("normal", "hermitian", "normal-blocked")
TRACE_MODES = ("zero", "generic")

_MASK64 = (1 << 64) - 1


def _check_draw(kind: str, scale, trace_mode: str, seed) -> None:
    """The parameters of a draw shared by :class:`EnsembleSpec` and
    ``CampaignConfig``; ValueError names the first one out of range."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    # make_case's limit: a drawn entry is at most about ||A||_2 + scale, ||A||_2 = O(sqrt(n))
    real = isinstance(scale, numbers.Real) and not isinstance(scale, bool)
    # a numpy scalar compares as a Python number: in float32 or float16, 2^990 overflows
    value = scale.item() if isinstance(scale, np.generic) else scale
    if not (real and 0.0 < value < math.ldexp(1.0, _ENTRY_EXPONENT_LIMIT)):
        limit = f"2^{_ENTRY_EXPONENT_LIMIT}"
        raise ValueError(f"perturbation_scale must be finite and positive, below {limit}, got {scale!r}")
    if trace_mode not in TRACE_MODES:
        raise ValueError(f"trace_mode must be one of {TRACE_MODES}, got {trace_mode!r}")
    _check_integer("seed", seed)


def _check_integer(name: str, value, least: int | None = None) -> None:
    """Refuse a non-integer (bool included) or one below ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or (least is not None and value < least):
        at_least = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{at_least}, got {value!r}")


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters of one random draw: size, matrix kind, perturbation
    norm, whether the perturbation is projected to zero trace, and the
    64-bit seed."""

    n: int
    kind: str = "normal"
    perturbation_scale: float = 1.0
    trace_mode: str = "generic"
    seed: int = 0

    def __post_init__(self):
        _check_integer("n", self.n, 2)
        _check_draw(self.kind, self.perturbation_scale, self.trace_mode, self.seed)


class _Stream(threading.local):
    """One Philox generator per thread, re-keyed for each draw: setting
    the state (key ``(seed mod 2^64, 0)``, counter 0, empty buffer) of one
    dict of Python ints gives the draws of a fresh ``Philox(key=...)``
    without its constructor, which seeds itself from OS entropy.  The
    setter copies the values, so a re-key just writes the key into the
    dict.  Each thread builds its own on its first use of an instance."""

    def __init__(self):
        self.bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self.generator = np.random.Generator(self.bitgen)
        self.key = [0, 0]
        self.state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": self.key},
                      "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def reset(self, seed: int) -> np.random.Generator:
        self.key[0] = seed & _MASK64
        self.bitgen.state = self.state
        return self.generator


# the generators' stream, one per thread: threads that draw at once must not share one
_STREAM = _Stream()


def derive_trial_seed(seed: int, trial_index: int) -> int:
    """Seed for one campaign trial: seed XOR trial_index (mod 2^64)."""
    if trial_index < 0:
        raise ValueError("trial_index must be nonnegative")
    return (seed ^ trial_index) & _MASK64


def _haar_unitaries(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack of complex Gaussian matrices: the QR
    factor q with the phases of diag(r) divided out."""
    q, r = np.linalg.qr(z)
    d = r.diagonal(0, 1, 2).copy()
    d[d == 0] = 1.0  # zero pivots have probability zero; keep the phase defined
    return q * (d / np.abs(d))[:, None, :]


def _normal_matrices(u: np.ndarray, lam: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """U diag(lambda) U* for stacks of unitaries and spectra, into ``out`` if given."""
    return np.matmul(u * lam[:, None, :], u.conj().transpose(0, 2, 1), out=out)


def _perturbations(e: np.ndarray, scale: float, trace_mode: str, out: np.ndarray | None = None) -> np.ndarray:
    """A stack of perturbations, Gaussian draws or a generator's planted
    upper triangular F, projected (trace_mode zero) and scaled to
    Frobenius norm ``scale``, into ``out`` if given; modifies ``e``."""
    n = e.shape[-1]
    if trace_mode == "zero":
        e -= (np.trace(e, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
    nrm = _fro_norms(e)
    if not nrm.all():
        raise ArithmeticError("degenerate zero draw")
    # float: a Fraction divided by an ndarray makes an object array
    return np.multiply(e, (float(scale) / nrm)[:, None, None], out=out)


def _seed_normals(seeds, width: int) -> np.ndarray:
    """The first ``width`` standard normals of each seed's stream, one
    row per seed, each from one ``standard_normal`` call."""
    draws = np.empty((len(seeds), width))
    for row, seed in zip(draws, seeds):
        _STREAM.reset(seed).standard_normal(out=row)
    return draws


def _draw_cases(kind: str, n: int, seeds, scale: float, trace_mode: str) -> _Cases:
    """The cases of :func:`random_case` for one size and many seeds, as
    one stack: the draws run seed by seed, everything after them once
    for the whole stack."""
    if kind == "normal-blocked":
        return _blocked_cases(n, seeds, scale, trace_mode)
    m = n * n
    real = kind == "hermitian"
    # one stream per seed: the real and imaginary parts of the Haar
    # draw, the spectrum, then those of the perturbation
    draws = _seed_normals(seeds, 4 * m + (n if real else 2 * n))
    z = draws[:, :m] + 1j * draws[:, m : 2 * m]
    rest = draws[:, 2 * m :]
    if real:
        lam, rest = rest[:, :n], rest[:, n:]
    else:
        lam, rest = rest[:, :n] + 1j * rest[:, n : 2 * n], rest[:, 2 * n :]
    stacks = np.empty((5, len(seeds), n, n), dtype=np.complex128)  # A, E, then the case's scratch
    a = _normal_matrices(_haar_unitaries(z.reshape(-1, n, n)), lam, stacks[0])
    if real:
        np.divide(a + a.conj().transpose(0, 2, 1), 2.0, out=a)
    _perturbations((rest[:, :m] + 1j * rest[:, m:]).reshape(-1, n, n), scale, trace_mode, stacks[1])
    return _make_cases(stacks)


def _blocked_cases(n: int, seeds, scale: float, trace_mode: str) -> _Cases:
    # Plant A = U diag(mu) U* and E = U F U*, F = T - diag(mu) upper triangular:
    # nu and the in-block noise, projected and scaled by _perturbations to
    # Frobenius norm perturbation_scale (tr F = sum nu), so ||E||_F is that
    # scale to rounding at every scale.  T, genuinely block upper
    # triangular, is F with lambda = mu + nu on its diagonal.  The case carries
    # (u, t) as the Schur form of A + E and mu as the spectrum of A, which no
    # eigensolve then recomputes.  Each seed's draws are one row of its stream:
    # the Haar matrix, Re lambda and Im lambda; nu and the noise, c real then c
    # imaginary values for the c = sum b (b - 1) / 2 strictly upper positions
    # inside blocks of sizes b; n - 1 values r, n - 1 values o.  The block count
    # s = 2 + #{j >= 1 : r_j < r_0} is uniform on 2..n (the rank of r_0), and the
    # s - 1 smallest o mark the cuts, a uniform (s - 1)-subset of the n - 1 gaps
    # independent of s.  c is known only after the cuts, so the noise is drawn
    # for the largest c, (n - 1)(n - 2) / 2; the unused part moves no later draw.
    k, m, n1 = len(seeds), n * n, n - 1
    width = 2 * m + 4 * n + n1 * (n - 2) + 2 * n1
    draws = _seed_normals(seeds, width)
    rows = np.arange(k)[:, None]
    lam = draws[:, 2 * m : 2 * m + n] + 1j * draws[:, 2 * m + n : 2 * m + 2 * n]
    lam = lam[rows, _descending_order(lam)]
    nu, r, o = draws[:, 2 * m + 2 * n : 2 * m + 4 * n], draws[:, -2 * n1 : -n1], draws[:, -n1:]
    cut_count = 1 + (r[:, 1:] < r[:, :1]).sum(axis=1)
    last_cut = np.sort(o, axis=1)[rows[:, 0], cut_count - 1]
    block_of = np.zeros((k, n), dtype=int)
    (o <= last_cut[:, None]).cumsum(axis=1, out=block_of[:, 1:])
    # the strictly upper positions inside blocks, each matrix's in row-major
    # order, and 1 + the rank of each among them (the last, c); an entry is
    # gathered by its flat index in the draws, one in range elsewhere too,
    # and dropped there
    inside = ((block_of[:, :, None] == block_of[:, None, :]) & _strict_upper(n)).reshape(k, m)
    rank = inside.cumsum(axis=1)
    real = rank + (rows * width + 2 * m + 4 * n - 1)
    f = np.where(inside, draws.take(real) + 1j * draws.take(real + rank[:, -1:]), 0)
    f[:, :: n + 1] = nu[:, :n] + 1j * nu[:, n:]
    f = _perturbations(f.reshape(k, n, n), scale, trace_mode)
    mu = lam - f.reshape(k, m)[:, :: n + 1]
    t = f.copy()
    t.reshape(k, m)[:, :: n + 1] = lam
    u = _haar_unitaries((draws[:, :m] + 1j * draws[:, m : 2 * m]).reshape(k, n, n))
    stacks = np.empty((5, k, n, n), dtype=np.complex128)  # A, E, then the case's scratch
    _normal_matrices(u, mu, stacks[0])
    np.matmul(u @ f, u.conj().transpose(0, 2, 1), out=stacks[1])
    return _make_cases(stacks, u, t, mu)


def random_case(spec: EnsembleSpec) -> PerturbationCase:
    """One seeded trial: a base matrix of the requested kind plus a
    perturbation, assembled into a ready-to-evaluate case.  The base and
    the perturbation are drawn from a single stream, so the pair is a
    pure function of the spec."""
    return PerturbationCase(
        _draw_cases(spec.kind, spec.n, [spec.seed], spec.perturbation_scale, spec.trace_mode)
    )


# ---------------------------------------------------------------------------
# fixtures

# Unitary witness for the phi functionals' basis dependence.
PHI_EXAMPLE_UNITARY = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)

_SQRT5 = math.sqrt(5.0)
_SQRT2 = math.sqrt(2.0)


def _intro_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.array([[0.0, 0.0], [0.0, 3.0]], dtype=complex)
    a_tilde = np.array([[-1.0, -1.0], [1.0, 1.0]], dtype=complex)
    return a, a_tilde - a


def _intro_expectations(n: int) -> dict:
    return {
        "fixture": "intro_2x2",
        "n": 2,
        "d2": 3.0,
        "e_norm": math.sqrt(7.0),
        "excess": 2.0,
        "bounds": {
            "eq_1_4": math.sqrt(14.0),
            "eq_1_6": math.sqrt(14.0),
            "eq_1_7": math.sqrt(15.0),
            "eq_1_8": math.sqrt(7.0 + 2.0 * math.sqrt(14.0)),
            "eq_1_9": math.sqrt(3.0 + 4.0 * math.sqrt(7.0)),
            "eq_3_5a": math.sqrt(9.5),
            "eq_3_4b": 3.0,
            "eq_3_5f": 3.0,
            "eq_4_6d": math.sqrt(9.25),
            "eq_4_6e": 3.0,
            "henrici_3_6": 2.0,
            "sun_3_7": 2.0,
            "thm_4_3_a": 2.0,
            "thm_4_3_b": 2.0,
        },
    }


def _phi_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.array([[1.0 + 1.0j, 0.0], [0.0, 2.0]], dtype=complex)
    # exact rotation of a by PHI_EXAMPLE_UNITARY; entries are exact halves
    a_tilde = np.array([[3.0 + 1.0j, -1.0 - 1.0j], [1.0 + 1.0j, 3.0 + 1.0j]], dtype=complex) / 2.0
    return a, a_tilde - a


def _phi_expectations(n: int) -> dict:
    return {
        "fixture": "phi_example",
        "n": 2,
        "d2": 0.0,
        "phi1_base": 6.0 - 2.0 * _SQRT5,
        "phi2_base": 0.0,
        "phi3_base": 3.0 - 2.0 * _SQRT2,
        "phi1_rotated": 1.0,
        "phi2_rotated": 1.0,
        "phi3_rotated": 1.0,
        "delta": 1.0,
    }


def _example_4_4_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.eye(n, dtype=complex)
    a[0, 0] = a[1, 1] = 0.0
    a[0, 1] = a[1, 0] = 1.0
    e = np.zeros((n, n), dtype=complex)
    e[1, 0] = -1.0
    for i in range(2, n):
        e[i, i] = -1.0
    return a, e


def _example_4_4_expectations(n: int) -> dict:
    return {
        "fixture": "example_4_4",
        "n": n,
        "d2": math.sqrt(n),
        "e_norm_sq": float(n - 1),
        "delta_e": math.sqrt(3.0 - 4.0 / n),
        "delta_a": 2.0 * math.sqrt(1.0 - 1.0 / n),
        "excess": 1.0,
        "block_count": n - 1,
        "bounds": {
            "eq_4_6a": math.sqrt(n - 4.0 / n + 2.0),
            "eq_4_6b": math.sqrt(n + math.sqrt(6.0 - 8.0 / n) - 1.0),
            "eq_4_6c": math.sqrt(n + 2.0 * math.sqrt(3.0 - 4.0 / n) - 2.0),
            "eq_4_6d": math.sqrt(n - 2.0 / n + 1.0),
            "eq_4_6e": math.sqrt(n + 2.0 * math.sqrt(2.0 - 2.0 / n) - 2.0),
        },
    }


# name -> ((default n, least n, or None for a fixture of one size),
# matrices (n), expectations (n))
_FIXTURES = {
    "intro_2x2": ((2, None), _intro_matrices, _intro_expectations),
    "phi_example": ((2, None), _phi_matrices, _phi_expectations),
    "example_4_4": ((5, 3), _example_4_4_matrices, _example_4_4_expectations),
}

FIXTURE_NAMES = tuple(_FIXTURES)


def _fixture(name: str, n: int | None):
    """The size of a named fixture at the requested n (None for its
    default), with its matrices and expectations builders."""
    try:
        (default, least), matrices, expectations = _FIXTURES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}") from None
    if n is None:
        n = default
    if n != default and (least is None or n < least):
        sizes = f"is {default} x {default}" if least is None else f"needs n >= {least}"
        raise ValueError(f"fixture {name!r} {sizes}; n = {n} is not available")
    return n, matrices, expectations


def fixture_matrices(name: str, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The exact (A, E) pair of a named fixture."""
    size, matrices, _ = _fixture(name, n)
    return matrices(size)


def fixture(name: str, n: int | None = None) -> PerturbationCase:
    """A named worked example as a ready case.  ``n`` selects the size
    for example_4_4 (default 5, minimum 3); the other fixtures are 2 x 2."""
    return make_case(*fixture_matrices(name, n))


def fixture_expectations(name: str, n: int | None = None) -> dict:
    """Closed-form expected values for a fixture, keyed by quantity and
    catalog id.  Shipped alongside the matrices by the fixture command."""
    size, _, expectations = _fixture(name, n)
    return expectations(size)
