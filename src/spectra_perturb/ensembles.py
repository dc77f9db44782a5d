"""Seeded random cases and exact worked-example fixtures.

:func:`random_case` draws the base matrix and the perturbation of a case
from one Philox 4x64 counter-based stream with key ``(seed mod 2^64, 0)``,
so cases are bit-reproducible across runs and machines for a given seed.
Campaign trials derive per-trial seeds as ``seed XOR trial_index`` and
therefore need no shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import PerturbationCase, _Cases, _make_cases, make_case
from .decomp import _descending_order
from .matrices import _fro_norms

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
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"perturbation_scale must be finite and positive, got {scale!r}")
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


class _Stream:
    """One Philox generator, re-keyed for each draw of a batch.  Setting
    the state (key ``(seed mod 2^64, 0)``, counter 0, empty buffer) gives
    the draws of a fresh ``Philox(key=...)`` at a quarter of the cost,
    since the constructor first seeds itself from OS entropy."""

    def __init__(self):
        self.bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self.generator = np.random.Generator(self.bitgen)

    def reset(self, seed: int) -> np.random.Generator:
        self.bitgen.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": np.array([seed & _MASK64, 0], dtype=np.uint64),
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self.generator


def derive_trial_seed(seed: int, trial_index: int) -> int:
    """Seed for one campaign trial: seed XOR trial_index (mod 2^64)."""
    if trial_index < 0:
        raise ValueError("trial_index must be nonnegative")
    return (seed ^ trial_index) & _MASK64


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar_unitaries(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack of complex Gaussian matrices: the QR
    factor q with the phases of diag(r) divided out."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2).copy()
    d[d == 0] = 1.0  # zero pivots have probability zero; keep the phase defined
    return q * (d / np.abs(d))[:, None, :]


def _normal_matrices(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """U diag(lambda) U* for stacks of unitaries and spectra."""
    return (u * lam[:, None, :]) @ u.conj().transpose(0, 2, 1)


def _perturbations(e: np.ndarray, scale: float, trace_mode: str) -> np.ndarray:
    """A stack of Gaussian draws projected (trace_mode zero) and scaled
    to Frobenius norm ``scale``; modifies ``e``."""
    n = e.shape[-1]
    if trace_mode == "zero":
        e -= (np.trace(e, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
    nrm = _fro_norms(e)
    if not nrm.all():
        raise ArithmeticError("degenerate zero draw")
    return e * (scale / nrm)[:, None, None]


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
    draws = np.empty((len(seeds), 4 * m + (n if real else 2 * n)))
    stream = _Stream()
    for row, seed in zip(draws, seeds):
        stream.reset(seed).standard_normal(out=row)
    z = draws[:, :m] + 1j * draws[:, m : 2 * m]
    rest = draws[:, 2 * m :]
    if real:
        lam, rest = rest[:, :n], rest[:, n:]
    else:
        lam, rest = rest[:, :n] + 1j * rest[:, n : 2 * n], rest[:, 2 * n :]
    a = _normal_matrices(_haar_unitaries(z.reshape(-1, n, n)), lam)
    if real:
        a = (a + a.conj().transpose(0, 2, 1)) / 2.0
    e = (rest[:, :m] + 1j * rest[:, m:]).reshape(-1, n, n)
    return _make_cases(a, _perturbations(e, scale, trace_mode))


def _blocked_cases(n: int, seeds, scale: float, trace_mode: str) -> _Cases:
    # Build A + E = U T U* with T genuinely block upper triangular, then
    # recover A as U diag(mu) U* so that E = U (T - diag(mu)) U* has
    # Frobenius norm exactly perturbation_scale.  Only the draws run seed
    # by seed, in stream order: the Haar matrix, lambda, the block count
    # and cuts, nu, then the noise on the strictly upper positions inside
    # the blocks, sum b (b - 1) / 2 of them over the block sizes b.
    k, m = len(seeds), n * n
    z = np.empty((k, 2 * m))
    lam = np.empty((k, n), dtype=np.complex128)
    nu = np.empty((k, n), dtype=np.complex128)
    cut = np.zeros((k, n), dtype=int)
    draws, counts = [], []
    positions = np.arange(1, n)
    stream = _Stream()
    for i, seed in enumerate(seeds):
        rng = stream.reset(seed)
        rng.standard_normal(out=z[i])
        lam[i] = _complex_gaussian(rng, n)
        cuts = rng.choice(positions, size=int(rng.integers(2, n + 1)) - 1, replace=False)
        cut[i, cuts] = 1
        edges = [0, *sorted(cuts.tolist()), n]
        counts.append(sum((b - a) * (b - a - 1) // 2 for a, b in zip(edges, edges[1:])))
        nu[i] = _complex_gaussian(rng, n)
        draws.append(_complex_gaussian(rng, counts[-1]))
    lam = np.take_along_axis(lam, _descending_order(lam), axis=1)
    block_of = np.cumsum(cut, axis=1)
    # strictly upper positions inside blocks, matrix by matrix in row-major order
    inside = np.triu(block_of[:, :, None] == block_of[:, None, :], 1)
    if trace_mode == "zero":
        nu -= nu.mean(axis=1)[:, None]
    noise = np.concatenate(draws)
    noise_sq = np.abs(noise) ** 2
    # a sum whose length varies by seed stays one np.sum per seed, which
    # keeps its pairwise-summation bits
    ends = np.cumsum(counts).tolist()
    noise_total = [np.sum(noise_sq[end - count : end]) for count, end in zip(counts, ends)]
    total = np.sqrt(np.sum(np.abs(nu) ** 2, axis=1) + noise_total)
    if not total.all():
        raise ArithmeticError("degenerate zero draw")
    factor = scale / total
    nu *= factor[:, None]
    t = np.zeros((k, n, n), dtype=np.complex128)
    t[inside] = noise * np.repeat(factor, counts)
    diagonal = np.arange(n)
    t[:, diagonal, diagonal] = lam
    mu = lam - nu
    u = _haar_unitaries((z[:, :m] + 1j * z[:, m:]).reshape(-1, n, n))
    a = _normal_matrices(u, mu)
    a_tilde = u @ t @ u.conj().transpose(0, 2, 1)
    return _make_cases(a, a_tilde - a, u, t)


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
