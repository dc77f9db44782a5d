import numpy as np
import pytest

# acceptance-criteria results, printed as one line each at session end
_ATTEMPTED: dict[int, str] = {}
_PASSED: set[int] = set()


class AcceptanceRecorder:
    def start(self, number: int, description: str) -> None:
        _ATTEMPTED[number] = description

    def ok(self, number: int) -> None:
        _PASSED.add(number)


@pytest.fixture
def acceptance():
    return AcceptanceRecorder()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ATTEMPTED:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(_ATTEMPTED):
        status = "PASS" if k in _PASSED else "FAIL"
        terminalreporter.write_line(f"acceptance {k} {status}: {_ATTEMPTED[k]}")


def rng_for(seed: int) -> np.random.Generator:
    """Philox stream, same construction the library uses."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def random_complex(rng: np.random.Generator, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def case_stacks(a, e):
    """The buffer (5, k, n, n) that ``bounds._make_cases`` takes over: the
    stacks a and e (k, n, n) in its first two slots, the rest scratch."""
    stacks = np.empty((5, *np.shape(a)), dtype=np.complex128)
    stacks[0], stacks[1] = a, e
    return stacks


def unit_hermitian(rng: np.random.Generator, n: int):
    """Random Hermitian matrix (G + G*) / (2 sqrt(n)), whose spectrum is O(1)."""
    g = random_complex(rng, (n, n))
    return (g + g.conj().T) / (2.0 * np.sqrt(n))


def haar_rotated_diagonal(rng: np.random.Generator, n: int, real_spectrum: bool = False):
    """Random normal matrix: Haar-rotated random diagonal."""
    z = random_complex(rng, (n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r).copy()
    d[d == 0] = 1.0
    q = q * (d / np.abs(d))
    lam = rng.standard_normal(n) if real_spectrum else random_complex(rng, n)
    return (q * lam) @ q.conj().T


def schur_residuals(m, form):
    """Unitarity, triangularity and reconstruction residuals of a Schur
    form of m, as Frobenius norms."""
    n = m.shape[0]
    unitarity = np.linalg.norm(form.q.conj().T @ form.q - np.eye(n))
    triangularity = np.linalg.norm(np.tril(form.t, -1))
    reconstruction = np.linalg.norm(form.q @ form.t @ form.q.conj().T - m)
    return unitarity, triangularity, reconstruction


@pytest.fixture
def rng():
    return rng_for(20260816)
