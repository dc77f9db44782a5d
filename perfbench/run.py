"""Benchmark of the spectra-perturb public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign-normal --seed 42 --seconds 30 --trace 0

One process and one caller in a closed loop, ``jobs=1``, BLAS pinned to
one thread.  ``--trace 0`` prints every end-to-end metric; ``--trace 1``
runs each operation untraced and then traced, and prints the per-layer
metrics.  Outputs are checked either way.  The last line of
standard output is the JSON result.  README.md in this directory says
why each workload exists and which layer should move which metric.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# BLAS reads its thread count once, when numpy loads it.
if "numpy" in sys.modules:
    raise SystemExit("perfbench: numpy was imported before the BLAS thread count was pinned")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
WORKLOADS = ("campaign-normal", "campaign-blocked", "bounds-large")

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import spectra_perturb\n"
    "print(time.perf_counter() - t0)\n"
)


@dataclass
class Pass:
    """The operations of one mode (untraced or traced) in a timed loop.

    Timings are kept as the clock read them and scaled to the host's
    reference speed (reference.py) only when reported."""

    # (seconds of the attempt, seconds of the API call or None if it
    # raised, index of the kernel timing taken right after)
    ops: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: object = field(default_factory=hashlib.sha256)

    def attempt(self, workload, index: int, speed: reference.HostSpeed) -> None:
        """Run operation ``index`` and gate it, then time the reference
        kernel; the digest covers the first ``workload.min_ops`` records."""
        t0 = time.perf_counter()
        elapsed = None
        try:
            elapsed, ok, record = workload.run_op(index)
        except Exception:
            traceback.print_exc()
            self.failed += 1
        else:
            self.failed += not ok
            if index < workload.min_ops:
                self.digest.update(json.dumps(record, sort_keys=True).encode())
        self.attempted += 1
        self.ops.append((time.perf_counter() - t0, elapsed, speed.tick()))

    def timings(self, speed: reference.HostSpeed | None) -> tuple[list, float]:
        """API-call latencies and the attempts' total seconds, scaled to
        the reference speed, or as the clock read them if ``speed`` is None."""
        scales = [speed.scale(k) if speed else 1.0 for _, _, k in self.ops]
        latencies = [e * c for (_, e, _), c in zip(self.ops, scales) if e is not None]
        seconds = sum(spent * c for (spent, _, _), c in zip(self.ops, scales))
        return latencies, seconds

    def cases_per_s(self, workload, speed: reference.HostSpeed | None) -> float:
        latencies, seconds = self.timings(speed)
        return len(latencies) * workload.cases_per_op / seconds


def measure(workload, seconds: float, tracer=None) -> tuple[list[Pass], reference.HostSpeed]:
    """Run operations back to back, with the reference kernel between
    every two, until ``seconds`` have passed and at least
    ``workload.min_ops`` are done.  With a tracer, each operation runs
    twice in a row, untraced and then traced, so that both passes see the
    same state of a shared machine."""
    plain, traced = Pass(), Pass()
    speed = reference.HostSpeed(workload.kernel)
    index = 0
    deadline = time.perf_counter() + seconds
    while index < workload.min_ops or time.perf_counter() < deadline:
        plain.attempt(workload, index, speed)
        if tracer is not None:
            tracer.op = index
            with tracer:
                traced.attempt(workload, index, speed)
        index += 1
    return ([plain] if tracer is None else [plain, traced]), speed


def tail(sorted_values: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile): the 11th-largest sample.  With fewer than 11
    samples, the largest."""
    n = len(sorted_values)
    if n < 11:
        return sorted_values[-1], 100.0
    return sorted_values[n - 11], 100.0 * (n - 10) / n


def import_seconds() -> float:
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": seed,
        "src_lines": src_lines,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, run: Pass, speed, setups: list, wall_setups: list) -> tuple[dict, str]:
    ms = sorted(1000.0 * s for s in run.timings(speed)[0])
    wall_ms = sorted(1000.0 * s for s in run.timings(None)[0])
    tail_ms, tail_pct = tail(ms)
    metrics = {
        "cases_per_s": _metric(run.cases_per_s(workload, speed), "1/s"),
        "call_p50_ms": _metric(statistics.median(ms), "ms"),
        "call_tail_ms": _metric(tail_ms, "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    note = (
        f"call_tail_ms is p{tail_pct:.1f} of {len(ms)} calls; a case is one {workload.case_unit}\n"
        f"  unscaled wall time: cases_per_s {run.cases_per_s(workload, None):.6g}, "
        f"call_p50_ms {statistics.median(wall_ms):.6g}, call_tail_ms {tail(wall_ms)[0]:.6g}, "
        f"setup_s {statistics.median(wall_setups):.6g}"
    )
    return metrics, note


def per_layer(workload, tracer, speed, plain: Pass, traced: Pass) -> dict:
    calls, self_ms = tracer.totals(np.array([speed.scale(k) for _, _, k in traced.ops]))
    latencies, seconds = traced.timings(speed)
    cases = len(latencies) * workload.cases_per_op
    metrics = {}
    for name, count, ms in zip(tracer.layers, calls, self_ms):
        metrics[f"{name}.self_ms"] = _metric(float(ms) / cases, "ms")
        metrics[f"{name}.calls"] = _metric(float(count) / cases, "count")
    metrics["trace.overhead_frac"] = _metric(
        1.0 - traced.cases_per_s(workload, speed) / plain.cases_per_s(workload, speed), "ratio"
    )
    metrics["trace.coverage_frac"] = _metric(float(self_ms.sum()) / (1000.0 * seconds), "ratio")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up, for the tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spectra_perturb" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'spectra_perturb'} not found; run from a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be nonnegative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # these import the package, so only after the check that it exists
    import spans
    import workloads

    workload = workloads.make(args.workload, args.seed, args.smoke, ROOT)
    try:
        setups, wall_setups = [], []
        for repetition in range(1 if args.smoke else SETUP_REPEATS):
            speed = reference.HostSpeed(workload.kernel)
            imported = import_seconds()
            t0 = time.perf_counter()
            workload.prepare(repetition)
            wall_setups.append(imported + time.perf_counter() - t0)
            setups.append(wall_setups[-1] * speed.scale(speed.tick()))
        tracer = spans.Tracer() if args.trace else None
        passes, speed = measure(workload, args.seconds, tracer)
        checks = workload.checks()
    finally:
        workload.close()

    attempted = sum(p.attempted for p in passes) + len(checks)
    failed = sum(p.failed for p in passes) + checks.count(False)
    digests = [p.digest.hexdigest() for p in passes]
    if tracer is not None:
        metrics = per_layer(workload, tracer, speed, *passes)
        results = ROOT / "perfbench" / "results"
        results.mkdir(exist_ok=True)
        trace_path = results / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(trace_path)
        note = f"spans written to {trace_path.relative_to(ROOT)}"
    else:
        metrics, note = end_to_end(workload, passes[0], speed, setups, wall_setups)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    print("digest " + " ".join(digests))
    kernel_ms = sorted(1000.0 * k for k in speed.kernels)
    print(
        f"host speed: {speed.kernel} reference kernel median {statistics.median(kernel_ms):.4g} ms, "
        f"range {kernel_ms[0]:.4g}-{kernel_ms[-1]:.4g} ms over {len(kernel_ms)} timings; "
        f"times below are scaled to {1000.0 * speed.nominal:.4g} ms"
    )
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<40} {failed / attempted:.6g} ({failed} of {attempted} operations and checks)")
    print(f"  {note}")
    correct = failed == 0 and len(set(digests)) == 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
