"""How fast the host runs right now, from a fixed reference kernel.

The benchmark shares a few cores of a host whose speed changes by itself:
every operation, the package's and a fixed loop's alike, runs up to about
1.6 times slower for spells of ten seconds to several minutes, with CPU
time equal to wall time.  No statistic within a run of tens of seconds
averages that away.  So the benchmark times a reference kernel between
every two operations and reports each operation's time scaled to the
host's speed at that moment: ``elapsed * nominal / kernel``, with
``kernel`` the median of the kernel times taken within a second of the
operation and ``nominal`` a constant that fixes the unit.

A host slowdown does not slow every kind of work alike, so each workload
names the kernel that slowed like it did in long probes (README.md,
"Steadiness"): small complex LAPACK calls plus the making and freeing of
many small Python objects for the campaigns, a pure-Python loop for
``bounds`` (mostly JSON parsing).  The kernels do not
touch the package, so a change to the package cannot change them.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
import scipy.linalg

_RNG = np.random.Generator(np.random.PCG64(1))
_MATRICES = list(_RNG.standard_normal((20, 8, 8)) + 1j * _RNG.standard_normal((20, 8, 8)))


def _python_loop() -> None:
    total = 0.0
    table = {}
    for i in range(200_000):
        total += i * 0.5
        table[i & 255] = total


def _small_lapack() -> None:
    for _ in range(3):
        for m in _MATRICES:
            scipy.linalg.schur(m, output="complex")
            np.linalg.eigvals(m)


def _allocation() -> None:
    objects = [(i, str(i), [i]) for i in range(7_500)]
    del objects


def _small_lapack_and_allocation() -> None:
    # about 70% and 30% of the kernel's time
    _small_lapack()
    _allocation()


KERNELS = {"python": _python_loop, "lapack+alloc": _small_lapack_and_allocation}

# Each kernel's median time on the machine the benchmark was tuned on
# (2 vCPUs of a shared host, Python 3.11, OpenBLAS 0.3).  They only fix
# the scale: scaled times read as wall times on that machine at that speed.
NOMINAL_S = {"python": 0.030, "lapack+alloc": 0.014}


# Half-width of the time window whose kernel timings scale an operation;
# the host's spells last ten seconds or more.
WINDOW_S = 1.0


class HostSpeed:
    """Timings of one kernel, taken between the operations of a run."""

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self.nominal = NOMINAL_S[kernel]
        self.ends: list[float] = []
        self.kernels: list[float] = []
        self.tick()

    def tick(self) -> int:
        """Time the kernel once; return the index of this timing."""
        t0 = time.perf_counter()
        KERNELS[self.kernel]()
        self.ends.append(time.perf_counter())
        self.kernels.append(self.ends[-1] - t0)
        return len(self.kernels) - 1

    def scale(self, after: int) -> float:
        """The scale of the interval between timings ``after - 1`` and
        ``after``: the nominal time over the median of the timings that
        ended within ``WINDOW_S`` of it, the two around it always among them."""
        lo = bisect.bisect_left(self.ends, self.ends[after - 1] - WINDOW_S)
        hi = bisect.bisect_right(self.ends, self.ends[after] + WINDOW_S)
        return self.nominal / statistics.median(self.kernels[lo:hi])
