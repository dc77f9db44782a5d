"""The benchmark's workloads.

A workload makes its inputs from the seed, runs one operation at a time
through the package's public API, and checks what comes back.  An
operation is one call a user makes: ``run_campaign`` over a block of
trials, or one ``spectra-perturb bounds`` invocation through ``cli.main``.

Each workload provides:

- ``prepare(repetition)``: one full set-up (input generation and warm-up);
- ``run_op(index)``: ``(seconds, ok, record)`` for operation ``index``,
  timing only the API call; ``record`` is what the behaviour digest covers;
- ``checks()``: the slower correctness checks, run after the timed loop;
- ``min_ops``: operations every pass runs, and the ones the digest covers;
- ``cases_per_op``: matrix pairs evaluated by one operation;
- ``kernel``: the reference kernel (reference.py) whose time scales the
  workload's timings to the host's speed.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import time
from pathlib import Path

import jsonschema
import numpy as np
from scipy.optimize import linear_sum_assignment

from spectra_perturb import campaigns, cli, decomp, ensembles, matching

CAMPAIGN_KINDS = {"campaign-normal": "normal", "campaign-blocked": "normal-blocked"}

# Warm-up blocks draw from seeds the measured blocks never use.
_WARMUP_INDEX = 1 << 23

# Relative slack of the independent d2 check, on the scale the package
# uses for violations: 1 + ||A||_F + ||E||_F.
_D2_RTOL = 1e-8


def make(name: str, seed: int, smoke: bool, root: Path):
    if name in CAMPAIGN_KINDS:
        return CampaignWorkload(CAMPAIGN_KINDS[name], seed, smoke)
    return BoundsWorkload(seed, smoke, root)


class CampaignWorkload:
    """``run_campaign(kind, n = 2..12, trace_mode="generic", jobs=1)`` in
    blocks of trials; block ``i`` uses seed ``(seed << 32) | (i << 8)``,
    so no two trials of a run share an input."""

    case_unit = "trial"
    kernel = "lapack+alloc"

    def __init__(self, kind: str, seed: int, smoke: bool):
        self.kind = kind
        self.seed = seed
        # a multiple of 11, so every block covers each size n = 2..12 equally
        self.cases_per_op = 22 if smoke else 220
        self.min_ops = 2 if smoke else 4

    def _config(self, index: int) -> campaigns.CampaignConfig:
        return campaigns.CampaignConfig(
            trials=self.cases_per_op,
            n_min=2,
            n_max=12,
            kind=self.kind,
            trace_mode="generic",
            seed=(self.seed << 32) | (index << 8),
            jobs=1,
        )

    def prepare(self, repetition: int) -> None:
        campaigns.run_campaign(self._config(_WARMUP_INDEX + repetition))

    def run_op(self, index: int):
        config = self._config(index)
        t0 = time.perf_counter()
        summary = campaigns.run_campaign(config)
        elapsed = time.perf_counter() - t0
        trials = config.trials
        ok = summary.ok and summary.trials == trials and sum(summary.wins.values()) == trials
        return elapsed, ok, summary.as_dict()

    def checks(self) -> list[bool]:
        """Rebuild the trials with n = 2..8 of the first two blocks and
        compare the campaign's d2 with the exhaustive-search oracle."""
        results = []
        for index in range(2):
            config = self._config(index)
            for j in range(matching.BRUTE_FORCE_LIMIT - config.n_min + 1):
                record = campaigns.run_trial(config, j)
                spec = ensembles.EnsembleSpec(
                    n=record.n,
                    kind=config.kind,
                    perturbation_scale=config.perturbation_scale,
                    trace_mode=config.trace_mode,
                    seed=ensembles.derive_trial_seed(config.seed, j),
                )
                case = ensembles.random_case(spec)
                oracle = matching.brute_force_match(
                    decomp.eigenvalues(case.a), case.schur_tilde.eigenvalues
                )
                results.append(math.isclose(record.d2, oracle.d2, rel_tol=1e-12, abs_tol=1e-15))
        return results

    def close(self) -> None:
        pass


def _hermitian_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    # (G + G*) / 2 is Hermitian to the last bit; the scaling keeps the
    # spectrum O(1), like the package's ensembles, and ||E||_F = 1.
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = (g + g.conj().T) / (2.0 * math.sqrt(n))
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a, e / np.linalg.norm(e)


def _write_matrix(path: Path, m: np.ndarray) -> None:
    entries = np.stack([m.real, m.imag], axis=-1).reshape(-1, 2).tolist()
    path.write_text(json.dumps({"n": m.shape[0], "entries": entries}))


def _reference_d2(a: np.ndarray, e: np.ndarray) -> float:
    """d2 from numpy/scipy alone: Hermitian and general eigensolvers plus
    an assignment over squared distances."""
    lam = np.linalg.eigvalsh(a).astype(np.complex128)
    mu = np.linalg.eigvals(a + e)
    cost = np.abs(mu[None, :] - lam[:, None]) ** 2
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(float(cost[rows, cols].sum()))


class BoundsWorkload:
    """``spectra-perturb bounds --hermitian`` on a few Hermitian-base
    pairs written to JSON from the seed; the calls cycle over the pairs."""

    case_unit = "call"
    kernel = "python"
    cases_per_op = 1

    def __init__(self, seed: int, smoke: bool, root: Path):
        self.seed = seed
        self.n = 32 if smoke else 256
        self.pairs = 2 if smoke else 3
        self.min_ops = self.pairs
        self.dir = Path(tempfile.mkdtemp(prefix=".work-", dir=root / "perfbench"))
        self.report_path = self.dir / "report.json"
        self.validator = jsonschema.validators.validator_for(cli.REPORT_SCHEMA)(cli.REPORT_SCHEMA)
        self.matrices: list[tuple[np.ndarray, np.ndarray]] = []
        self.d2_by_pair: dict[int, list[float]] = {}

    def _argv(self, pair: int) -> list[str]:
        return [
            "bounds",
            "--a", str(self.dir / f"A{pair}.json"),
            "--e", str(self.dir / f"E{pair}.json"),
            "--hermitian",
            "--out", str(self.report_path),
        ]

    def prepare(self, repetition: int) -> None:
        self.matrices = []
        for pair in range(self.pairs):
            a, e = _hermitian_pair(np.random.Generator(np.random.PCG64([self.seed, pair])), self.n)
            _write_matrix(self.dir / f"A{pair}.json", a)
            _write_matrix(self.dir / f"E{pair}.json", e)
            self.matrices.append((a, e))
        cli.main(self._argv(0))

    def run_op(self, index: int):
        pair = index % self.pairs
        self.report_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        code = cli.main(self._argv(pair))
        elapsed = time.perf_counter() - t0
        report = json.loads(self.report_path.read_text())
        ok = code == 0 and self.validator.is_valid(report) and not report["violations"]
        self.d2_by_pair.setdefault(pair, []).append(report["d2"])
        # timings and the (temporary) input paths are not behaviour
        del report["timing_ms"]
        report["case"].pop("source", None)
        return elapsed, ok, report

    def checks(self) -> list[bool]:
        """One check per pair: every reported d2 agrees with numpy/scipy."""
        results = []
        for pair, (a, e) in enumerate(self.matrices):
            reference = _reference_d2(a, e)
            slack = _D2_RTOL * (1.0 + np.linalg.norm(a) + np.linalg.norm(e))
            reported = self.d2_by_pair.get(pair, [])
            results.append(bool(reported) and all(abs(d2 - reference) <= slack for d2 in reported))
        return results

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
