"""Randomized verification campaigns over the bound catalog.

A campaign runs seeded trials, evaluates every catalog entry on each,
and checks three things per trial: domination (no distance bound falls
below the true distance), the claimed orderings between sharpened and
baseline bounds, and the excess-estimate sandwich.  Hermitian campaigns
add the comparisons specific to Hermitian base matrices.  Results are
aggregated into a :class:`CampaignSummary`; per-trial rows can be dumped
as CSV with one fixed column per catalog id.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bounds import (
    CATALOG_IDS,
    D2_BOUND_IDS,
    VIOLATION_TOL_FACTOR,
    evaluate_all,
)
from .ensembles import (
    KINDS,
    TRACE_MODES,
    EnsembleSpec,
    derive_trial_seed,
    random_case,
)

__all__ = [
    "ORDERING_PAIRS",
    "CampaignConfig",
    "TrialRecord",
    "CampaignSummary",
    "run_trial",
    "run_campaign",
    "csv_header",
    "csv_row",
    "write_trials_csv",
]

# (sharp id, baseline id): the sharp value never exceeds the baseline,
# strictly so in almost every trial with tr(E) != 0.
ORDERING_PAIRS = (
    ("eq_3_5a", "eq_1_4"),
    ("eq_3_11a", "eq_1_5"),
    ("eq_3_5f", "eq_1_7"),
)

_SAMPLE_CAP = 20


@dataclass(frozen=True)
class CampaignConfig:
    """Flags of one campaign.  Trials cycle through sizes n_min..n_max
    round-robin so every size is exercised; trial i draws from seed XOR i."""

    trials: int
    n_min: int = 2
    n_max: int = 12
    kind: str = "normal"
    trace_mode: str = "generic"
    seed: int = 0
    perturbation_scale: float = 1.0
    tol_factor: float = VIOLATION_TOL_FACTOR
    jobs: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (2 <= self.n_min <= self.n_max):
            raise ValueError("need 2 <= n_min <= n_max")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.trace_mode not in TRACE_MODES:
            raise ValueError(f"trace_mode must be one of {TRACE_MODES}")
        if not (self.tol_factor > 0.0):
            raise ValueError("tol_factor must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def trial_size(self, index: int) -> int:
        return self.n_min + index % (self.n_max - self.n_min + 1)


@dataclass(frozen=True)
class TrialRecord:
    """Everything retained from one trial: the catalog values, the ids
    that violated domination, failed invariant checks (as messages), the
    winning bound, and strictness data for the ordering statistics."""

    trial: int
    n: int
    kind: str
    d2: float
    d_inf: float
    e_norm: float
    excess: float
    values: dict
    violation_ids: tuple
    check_failures: tuple
    winner: str
    trace_nonzero: bool
    strict_orderings: dict


def _check_orderings(values: dict, failures: list, strict: dict) -> None:
    for sharp_id, base_id in ORDERING_PAIRS:
        sharp, base = values[sharp_id], values[base_id]
        if sharp is None or base is None:
            continue
        tol = 1e-12 * max(1.0, abs(base))
        if sharp > base + tol:
            failures.append(
                f"ordering: {sharp_id}={sharp!r} exceeds {base_id}={base!r}"
            )
        strict[f"{sharp_id}<{base_id}"] = bool(sharp < base - tol)


def _check_sandwich(tilde_norm: float, values: dict, excess: float, failures: list) -> None:
    lower, upper = values["sun_3_7"], values["henrici_3_6"]
    slack = 1e-9 * max(1.0, tilde_norm)
    if lower > excess + slack:
        failures.append(f"sandwich: lower estimate {lower!r} exceeds excess {excess!r}")
    if upper < excess - slack:
        failures.append(f"sandwich: upper estimate {upper!r} is below excess {excess!r}")


def _check_hermitian(values: dict, e_norm: float, excess: float, failures: list) -> None:
    # tolerance matches the exact-arithmetic nature of these comparisons
    tol = 1e-12 * max(1.0, e_norm, excess)

    def at_most(small_id, large, label):
        small = values[small_id]
        if small is not None and large is not None and small > large + tol:
            failures.append(f"hermitian: {small_id}={small!r} exceeds {label}={large!r}")

    at_most("eq_4_6a", values["eq_1_6"], "eq_1_6")
    at_most("eq_4_6b", values["eq_1_8"], "eq_1_8")
    at_most("eq_4_6c", values["eq_1_9"], "eq_1_9")
    at_most("eq_4_6c", values["eq_1_6"], "eq_1_6")
    at_most("eq_4_6b", e_norm + excess, "triangle")
    at_most("eq_4_6c", e_norm + excess, "triangle")
    va, vb = values["thm_4_3_a"], values["thm_4_3_b"]
    if va is not None and va < excess - tol:
        failures.append(f"hermitian: thm_4_3_a={va!r} is below excess {excess!r}")
    if vb is not None and vb < excess - tol:
        failures.append(f"hermitian: thm_4_3_b={vb!r} is below excess {excess!r}")
    if va is not None and vb is not None and abs(va - vb) > tol:
        failures.append(f"hermitian: thm_4_3 variants differ: {va!r} vs {vb!r}")


def run_trial(config: CampaignConfig, index: int) -> TrialRecord:
    """Execute one seeded trial and run every per-trial check."""
    n = config.trial_size(index)
    spec = EnsembleSpec(
        n=n,
        kind=config.kind,
        perturbation_scale=config.perturbation_scale,
        trace_mode=config.trace_mode,
        seed=derive_trial_seed(config.seed, index),
    )
    case = random_case(spec)
    report = evaluate_all(case, tol_factor=config.tol_factor)
    values = {bv.id: bv.value for bv in report.bounds}

    st = report._stats
    e_norm, excess = st.e_norm, st.excess
    failures: list[str] = []
    strict: dict[str, bool] = {}

    if report.d_inf > report.d2 + 1e-12 * (1.0 + report.d2):
        failures.append(f"metric: d_inf={report.d_inf!r} exceeds d2={report.d2!r}")
    _check_orderings(values, failures, strict)
    _check_sandwich(st.tilde_norm, values, excess, failures)
    if case.a_is_hermitian:
        _check_hermitian(values, e_norm, excess, failures)

    applicable = [
        (values[bid], bid) for bid in D2_BOUND_IDS if values[bid] is not None
    ]
    winner = min(applicable)[1] if applicable else ""

    trace_nonzero = abs(complex(np.trace(case.e))) > 1e-12 * max(1.0, e_norm)
    return TrialRecord(
        trial=index,
        n=n,
        kind=config.kind,
        d2=report.d2,
        d_inf=report.d_inf,
        e_norm=e_norm,
        excess=excess,
        values=values,
        violation_ids=report.violations,
        check_failures=tuple(failures),
        winner=winner,
        trace_nonzero=trace_nonzero,
        strict_orderings=strict,
    )


@dataclass(frozen=True)
class CampaignSummary:
    """Aggregate of a campaign.  ``wins`` counts, per catalog id, the
    trials where that id attained the minimum over applicable distance
    bounds; the counts sum to ``trials``.  ``max_slack`` is the largest
    observed (bound - d2) per distance-bound id, None where the bound
    was never applicable.  ``violation_count`` must be zero for the
    catalog to stand."""

    trials: int
    n_min: int
    n_max: int
    kind: str
    trace_mode: str
    seed: int
    wins: dict
    max_slack: dict
    violation_count: int
    violation_samples: tuple
    check_failure_count: int
    check_failure_samples: tuple
    ordering: dict

    @property
    def ok(self) -> bool:
        return self.violation_count == 0 and self.check_failure_count == 0

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "kind": self.kind,
            "trace_mode": self.trace_mode,
            "seed": self.seed,
            "wins": dict(self.wins),
            "max_slack": dict(self.max_slack),
            "violation_count": self.violation_count,
            "violation_samples": list(self.violation_samples),
            "check_failure_count": self.check_failure_count,
            "check_failure_samples": list(self.check_failure_samples),
            "ordering": dict(self.ordering),
        }


def _summarize(config: CampaignConfig, records: Iterable[TrialRecord]) -> CampaignSummary:
    wins = {bid: 0 for bid in D2_BOUND_IDS}
    max_slack: dict = {bid: None for bid in D2_BOUND_IDS}
    violation_count = 0
    violation_samples: list = []
    failure_count = 0
    failure_samples: list = []
    strict_counts = {f"{a}<{b}": 0 for a, b in ORDERING_PAIRS}
    nonzero_trace = 0
    total = 0

    for rec in records:
        total += 1
        if rec.winner:
            wins[rec.winner] += 1
        for bid in D2_BOUND_IDS:
            v = rec.values[bid]
            if v is None:
                continue
            slack = v - rec.d2
            if max_slack[bid] is None or slack > max_slack[bid]:
                max_slack[bid] = slack
        violation_count += len(rec.violation_ids)
        for bid in rec.violation_ids:
            if len(violation_samples) < _SAMPLE_CAP:
                violation_samples.append({"trial": rec.trial, "id": bid, "d2": rec.d2})
        failure_count += len(rec.check_failures)
        for msg in rec.check_failures:
            if len(failure_samples) < _SAMPLE_CAP:
                failure_samples.append({"trial": rec.trial, "message": msg})
        if rec.trace_nonzero:
            nonzero_trace += 1
            for key, was_strict in rec.strict_orderings.items():
                if was_strict:
                    strict_counts[key] += 1

    if sum(wins.values()) != total:
        raise AssertionError("tightness wins do not sum to the trial count")
    ordering = {"nonzero_trace_trials": nonzero_trace}
    ordering.update(strict_counts)
    return CampaignSummary(
        trials=total,
        n_min=config.n_min,
        n_max=config.n_max,
        kind=config.kind,
        trace_mode=config.trace_mode,
        seed=config.seed,
        wins=wins,
        max_slack=max_slack,
        violation_count=violation_count,
        violation_samples=tuple(violation_samples),
        check_failure_count=failure_count,
        check_failure_samples=tuple(failure_samples),
        ordering=ordering,
    )


def _trial_worker(args) -> TrialRecord:
    config, index = args
    return run_trial(config, index)


def run_campaign(
    config: CampaignConfig, collect_records: bool = False
) -> CampaignSummary | tuple[CampaignSummary, list[TrialRecord]]:
    """Run all trials (in processes when jobs > 1) and aggregate.

    Per-trial seeds depend only on (seed, index), and aggregation walks
    records in index order, so the summary is identical for any jobs
    value.  ``collect_records=True`` also returns the per-trial rows,
    e.g. for CSV dumps.
    """
    indices = range(config.trials)
    if config.jobs == 1:
        records = [run_trial(config, i) for i in indices]
    else:
        chunk = max(1, config.trials // (config.jobs * 4))
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            records = list(
                pool.map(_trial_worker, ((config, i) for i in indices), chunksize=chunk)
            )
    summary = _summarize(config, records)
    if collect_records:
        return summary, records
    return summary


# ---------------------------------------------------------------------------
# CSV output


def csv_header() -> list[str]:
    return ["trial", "n", "kind", "d2", *CATALOG_IDS, "violation"]


def csv_row(rec: TrialRecord) -> list:
    row: list = [rec.trial, rec.n, rec.kind, repr(rec.d2)]
    for bid in CATALOG_IDS:
        v = rec.values[bid]
        row.append("" if v is None else repr(v))
    row.append(1 if rec.violation_ids else 0)
    return row


def write_trials_csv(path, records: Iterable[TrialRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(csv_header())
        for rec in records:
            writer.writerow(csv_row(rec))
