"""Randomized verification campaigns over the bound catalog.

A campaign runs seeded trials, evaluates every catalog entry on each,
and checks three things per trial: domination (no distance bound falls
below the true distance), the claimed orderings between sharpened and
baseline bounds, and the excess-estimate sandwich.  Hermitian campaigns
add the comparisons specific to Hermitian base matrices.  Results are
aggregated into a :class:`CampaignSummary`; per-trial rows can be dumped
as CSV with one fixed column per catalog id.

Trials run in chunks: the trials of one matrix size, a bounded number
of them, are drawn, evaluated and checked as stacked arrays (see
:mod:`spectra_perturb.bounds`).  A trial's record does not
depend on the chunk it ran in, so :func:`run_trial` (a chunk of one)
reproduces any record of a campaign, and summaries are byte-identical
for any ``jobs``.
"""

from __future__ import annotations

import csv
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bounds import (
    CATALOG_IDS,
    D2_BOUND_IDS,
    VIOLATION_TOL_FACTOR,
    NumericalConsistencyError,
    _check_tol_factor,
    _evaluate,
)
from .ensembles import KINDS, TRACE_MODES, _check_perturbation_scale, _draw_cases, derive_trial_seed

__all__ = [
    "ORDERING_PAIRS",
    "CampaignConfig",
    "TrialRecord",
    "CampaignSummary",
    "run_trial",
    "run_campaign",
    "csv_header",
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

# Most trials, and most matrix entries per stacked array, evaluated as
# one chunk: a campaign's array memory is bounded whatever its trial
# count, and at large n a chunk shrinks to a single trial.
_CHUNK_CAP = 128
_CHUNK_ENTRIES = 1 << 16

_COLUMN = {bid: col for col, bid in enumerate(CATALOG_IDS)}
# the distance bounds in alphabetical order of id, for the winner's ties
_WINNER_IDS = tuple(sorted(D2_BOUND_IDS))
_WINNER_COLUMNS = [_COLUMN[bid] for bid in _WINNER_IDS]


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
        _check_perturbation_scale(self.perturbation_scale)
        _check_tol_factor(self.tol_factor)
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


def _failures_where(failures: list, flags: np.ndarray, message) -> None:
    """Append ``message(i)`` to the failure list of every trial i of a
    chunk whose flag is set, so each trial keeps the order of checks."""
    for i in np.flatnonzero(flags):
        failures[i].append(message(i))


def _run_chunk(config: CampaignConfig, indices: range) -> list[TrialRecord]:
    """Execute trials of one size as one stack and run every per-trial
    check on the whole chunk."""
    n = config.trial_size(indices[0])
    seeds = [derive_trial_seed(config.seed, i) for i in indices]
    cases = _draw_cases(config.kind, n, seeds, config.perturbation_scale, config.trace_mode)
    try:
        ev = _evaluate(cases, cases.hermitian, config.tol_factor)
    except NumericalConsistencyError as exc:
        raise NumericalConsistencyError(f"trial {indices[exc.entry]}: {exc}") from exc
    st = ev.stats
    values = ev.values
    # Python floats, so that messages and records hold plain numbers
    pick = {bid: values[:, col].tolist() for col, bid in enumerate(CATALOG_IDS)}
    d2, d_inf = ev.d2.tolist(), ev.d_inf.tolist()
    e_norm, excess = st.e_norm.tolist(), st.excess.tolist()
    failures: list[list[str]] = [[] for _ in indices]
    strict: list[dict[str, bool]] = [{} for _ in indices]

    _failures_where(
        failures,
        ev.d_inf > ev.d2 + 1e-12 * (1.0 + ev.d2),
        lambda i: f"metric: d_inf={d_inf[i]!r} exceeds d2={d2[i]!r}",
    )
    for sharp_id, base_id in ORDERING_PAIRS:
        sharp, base = values[:, _COLUMN[sharp_id]], values[:, _COLUMN[base_id]]
        present = ev.applicable[:, _COLUMN[sharp_id]] & ev.applicable[:, _COLUMN[base_id]]
        tol = 1e-12 * np.maximum(1.0, np.abs(base))
        _failures_where(
            failures,
            present & (sharp > base + tol),
            lambda i: f"ordering: {sharp_id}={pick[sharp_id][i]!r} exceeds {base_id}={pick[base_id][i]!r}",
        )
        for i, was_strict in zip(np.flatnonzero(present), (sharp < base - tol)[present].tolist()):
            strict[i][f"{sharp_id}<{base_id}"] = was_strict

    lower, upper = pick["sun_3_7"], pick["henrici_3_6"]
    slack = 1e-9 * np.maximum(1.0, st.tilde_norm)
    _failures_where(
        failures,
        values[:, _COLUMN["sun_3_7"]] > st.excess + slack,
        lambda i: f"sandwich: lower estimate {lower[i]!r} exceeds excess {excess[i]!r}",
    )
    _failures_where(
        failures,
        values[:, _COLUMN["henrici_3_6"]] < st.excess - slack,
        lambda i: f"sandwich: upper estimate {upper[i]!r} is below excess {excess[i]!r}",
    )
    if cases.hermitian.any():
        _check_hermitian(ev, cases.hermitian, pick, failures)

    # the winner is min((value, id)) over applicable distance bounds:
    # the smallest value, ties to the alphabetically first id
    ranked = np.where(ev.applicable[:, _WINNER_COLUMNS], values[:, _WINNER_COLUMNS], np.inf)
    best = np.argmin(ranked, axis=1)
    has_winner = np.isfinite(ranked[np.arange(len(best)), best])
    winners = [_WINNER_IDS[j] if ok else "" for j, ok in zip(best.tolist(), has_winner.tolist())]

    trace_nonzero = (st.e_trace > 1e-12 * np.maximum(1.0, st.e_norm)).tolist()
    rows = values.astype(object)
    rows[~ev.applicable] = None
    violations = [()] * len(indices)
    for i in np.flatnonzero(ev.violated.any(axis=1)):
        violations[i] = tuple(CATALOG_IDS[j] for j in np.flatnonzero(ev.violated[i]))
    records = []
    for i, trial in enumerate(indices):
        records.append(
            TrialRecord(
                trial=trial,
                n=n,
                kind=config.kind,
                d2=d2[i],
                d_inf=d_inf[i],
                e_norm=e_norm[i],
                excess=excess[i],
                values=dict(zip(CATALOG_IDS, rows[i].tolist())),
                violation_ids=violations[i],
                check_failures=tuple(failures[i]),
                winner=winners[i],
                trace_nonzero=trace_nonzero[i],
                strict_orderings=strict[i],
            )
        )
    return records


def _check_hermitian(ev, hermitian: np.ndarray, pick: dict, failures: list) -> None:
    """The comparisons specific to a Hermitian base, on the trials of a
    chunk whose A is Hermitian."""
    st = ev.stats
    # tolerance matches the exact-arithmetic nature of these comparisons
    tol = 1e-12 * np.maximum(np.maximum(1.0, st.e_norm), st.excess)
    excess = st.excess.tolist()

    def entry(bid):
        # (values, where checked, values as Python floats, label)
        col = _COLUMN[bid]
        return ev.values[:, col], hermitian & ev.applicable[:, col], pick[bid], bid

    def at_most(small, large):
        (v, on, shown, label), (w, w_on, w_shown, w_label) = small, large
        _failures_where(
            failures,
            on & w_on & (v > w + tol),
            lambda i: f"hermitian: {label}={shown[i]!r} exceeds {w_label}={w_shown[i]!r}",
        )

    sum_bound = st.e_norm + st.excess
    triangle = (sum_bound, hermitian, sum_bound.tolist(), "triangle")
    at_most(entry("eq_4_6a"), entry("eq_1_6"))
    at_most(entry("eq_4_6b"), entry("eq_1_8"))
    at_most(entry("eq_4_6c"), entry("eq_1_9"))
    at_most(entry("eq_4_6c"), entry("eq_1_6"))
    at_most(entry("eq_4_6b"), triangle)
    at_most(entry("eq_4_6c"), triangle)
    skew = entry("thm_4_3_a"), entry("thm_4_3_b")
    for v, on, shown, label in skew:
        _failures_where(
            failures,
            on & (v < st.excess - tol),
            lambda i: f"hermitian: {label}={shown[i]!r} is below excess {excess[i]!r}",
        )
    (va, a_on, a_shown, _), (vb, b_on, b_shown, _) = skew
    _failures_where(
        failures,
        a_on & b_on & (np.abs(va - vb) > tol),
        lambda i: f"hermitian: thm_4_3 variants differ: {a_shown[i]!r} vs {b_shown[i]!r}",
    )


def run_trial(config: CampaignConfig, index: int) -> TrialRecord:
    """Execute one seeded trial and run every per-trial check."""
    return _run_chunk(config, range(index, index + 1))[0]


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


def _chunks(config: CampaignConfig) -> list[range]:
    """The trial indices grouped by size (trial i has size n_min + i mod
    the number of sizes) and cut into chunks of at most _CHUNK_CAP
    trials and _CHUNK_ENTRIES entries per matrix stack."""
    sizes = config.n_max - config.n_min + 1
    chunks = []
    for first in range(min(sizes, config.trials)):
        n = config.trial_size(first)
        cap = max(1, min(_CHUNK_CAP, _CHUNK_ENTRIES // (n * n)))
        same_size = range(first, config.trials, sizes)
        chunks.extend(same_size[k : k + cap] for k in range(0, len(same_size), cap))
    return chunks


def run_campaign(
    config: CampaignConfig, collect_records: bool = False
) -> CampaignSummary | tuple[CampaignSummary, list[TrialRecord]]:
    """Run all trials (in processes when jobs > 1) and aggregate.

    Trials of one size are evaluated together as stacked arrays, in
    chunks of a fixed maximum size; with jobs > 1 the chunks are shared
    among the worker processes.  Per-trial seeds depend only on (seed,
    index), a trial's results do not depend on the chunk it ran in, and
    aggregation walks records in index order, so the summary is
    identical for any jobs value.  ``collect_records=True`` also returns
    the per-trial rows in index order, e.g. for CSV dumps.
    """
    chunks = _chunks(config)
    if config.jobs == 1:
        results = map(_run_chunk, itertools.repeat(config), chunks)
        records = _in_index_order(config.trials, results)
    else:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = pool.map(_run_chunk, itertools.repeat(config), chunks)
            records = _in_index_order(config.trials, results)
    summary = _summarize(config, records)
    if collect_records:
        return summary, records
    return summary


def _in_index_order(trials: int, results: Iterable[list[TrialRecord]]) -> list[TrialRecord]:
    records: list = [None] * trials
    for chunk in results:
        for rec in chunk:
            records[rec.trial] = rec
    return records


# ---------------------------------------------------------------------------
# CSV output


def csv_header() -> list[str]:
    return ["trial", "n", "kind", "d2", *CATALOG_IDS, "violation"]


def write_trials_csv(path, records: Iterable[TrialRecord]) -> None:
    """One row per trial: trial, n, kind, d2, each catalog value (empty
    where not applicable) and a 0/1 violation flag."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(csv_header())
        for rec in records:
            values = (rec.values[bid] for bid in CATALOG_IDS)
            cells = ("" if v is None else repr(v) for v in values)
            flag = 1 if rec.violation_ids else 0
            writer.writerow([rec.trial, rec.n, rec.kind, repr(rec.d2), *cells, flag])
