"""Tests of the benchmark itself.

Every test runs the benchmark in a fresh interpreter, because it pins the
BLAS thread count before numpy loads.  Run from the repository root:

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Runs the benchmark with every d2 that evaluate_all sees inflated by 1e-5.
CORRUPT_D2 = """
import dataclasses, sys
sys.path.insert(0, sys.argv[1])
import run
sys.path.insert(0, str(run.SRC))
from spectra_perturb import bounds
original = bounds.optimal_match
def corrupted(*args, **kwargs):
    match = original(*args, **kwargs)
    return dataclasses.replace(match, d2=match.d2 * (1.0 + 1e-5))
bounds.optimal_match = corrupted
sys.exit(run.main(sys.argv[2:]))
"""


def smoke_args(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]


def run(argv: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result(out: subprocess.CompletedProcess) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def digests(out: subprocess.CompletedProcess) -> list[str]:
    (line,) = [line for line in out.stdout.splitlines() if line.startswith("digest ")]
    return line.split()[1:]


@pytest.fixture(scope="module")
def smoke():
    cache: dict = {}

    def get(workload: str, trace: int) -> subprocess.CompletedProcess:
        if (workload, trace) not in cache:
            cache[workload, trace] = run([str(RUN), *smoke_args(workload, trace)])
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_prints_the_declared_metrics(smoke, workload, trace):
    res = result(smoke(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    printed = {name: m["unit"] for name, m in res["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_repeats_for_a_seed_and_ignores_tracing(smoke, workload):
    again = run([str(RUN), *smoke_args(workload, 0)])
    untraced, traced = digests(smoke(workload, 0)), digests(smoke(workload, 1))
    assert digests(again) == untraced
    assert traced == untraced * 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_d2_drives_failures_above_zero(tmp_path, workload):
    script = tmp_path / "corrupt.py"
    script.write_text(CORRUPT_D2)
    res = result(run([str(script), str(RUN.parent), *smoke_args(workload, 0)]))
    assert res["failed"] > 0 and not res["correct"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        RUN.parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", ".work-*")
    )
    out = run(["perfbench/run.py", *smoke_args("campaign-normal", 0)], cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_refuses_to_run_after_numpy_was_imported():
    code = f"import numpy, runpy; runpy.run_path({str(RUN)!r}, run_name='__main__')"
    out = run(["-c", code])
    assert out.returncode != 0
    assert "numpy was imported" in out.stderr


def test_host_speed_scales_by_the_median_kernel_time_near_the_interval():
    sys.path.insert(0, str(RUN.parent))
    import reference

    speed = reference.HostSpeed.__new__(reference.HostSpeed)
    speed.nominal = 0.01
    speed.ends = [0.0, 0.5, 1.0, 3.0, 3.2, 6.0]
    speed.kernels = [0.01, 0.02, 0.01, 0.02, 0.02, 0.04]
    # the interval 0.5..1.0 s sees the timings that ended at 0.0..2.0 s
    assert speed.scale(2) == pytest.approx(1.0)
    # the interval 1.0..3.0 s sees those that ended at 0.0..4.0 s
    assert speed.scale(3) == pytest.approx(0.5)
    # the interval 3.2..6.0 s sees those that ended at 2.2..7.0 s
    assert speed.scale(5) == pytest.approx(0.5)
