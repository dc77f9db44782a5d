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
:mod:`spectra_perturb.bounds`), and the summary is folded from each
chunk's arrays; per-trial records are built only when asked for.  Per
trial there remain only the random draws (seed by seed, in stream
order), the LAPACK calls of the Schur decomposition and its reorder,
and the assignment solver for ``d2``.  A
trial's results do not depend on the chunk it ran in, so
:func:`run_trial` (a chunk of one) reproduces any record of a campaign,
and summaries are byte-identical for any ``jobs``.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
from concurrent.futures import ProcessPoolExecutor
import dataclasses
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
from .ensembles import _check_draw, _check_integer, _draw_cases, derive_trial_seed

__all__ = [
    "ORDERING_PAIRS",
    "CampaignConfig",
    "TrialRecord",
    "CampaignSummary",
    "run_trial",
    "run_campaign",
    "write_trials_csv",
]

# (sharp id, baseline id): the sharp value never exceeds the baseline,
# strictly so in almost every trial with tr(E) != 0.
ORDERING_PAIRS = (
    ("eq_3_5a", "eq_1_4"),
    ("eq_3_11a", "eq_1_5"),
    ("eq_3_5f", "eq_1_7"),
)

# (smaller, larger): the comparisons of a Hermitian base; "triangle" is
# ||E||_F + excess
_HERMITIAN_AT_MOST = (
    ("eq_4_6a", "eq_1_6"),
    ("eq_4_6b", "eq_1_8"),
    ("eq_4_6c", "eq_1_9"),
    ("eq_4_6c", "eq_1_6"),
    ("eq_4_6b", "triangle"),
    ("eq_4_6c", "triangle"),
)

_SAMPLE_CAP = 20

# Most trials, and most matrix entries per stacked array, evaluated as
# one chunk: a campaign's array memory is bounded whatever its trial
# count, and at large n a chunk shrinks to a single trial.
_CHUNK_CAP = 128
_CHUNK_ENTRIES = 1 << 16

_COLUMN = {bid: col for col, bid in enumerate(CATALOG_IDS)}
_D2_COLUMNS = [_COLUMN[bid] for bid in D2_BOUND_IDS]
# the distance bounds in alphabetical order of id, for the winner's ties
_WINNER_COLUMNS = np.array([_COLUMN[bid] for bid in sorted(D2_BOUND_IDS)])


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
        _check_integer("trials", self.trials, 1)
        _check_integer("n_min", self.n_min, 2)
        _check_integer("n_max", self.n_max, self.n_min)
        _check_draw(self.kind, self.perturbation_scale, self.trace_mode, self.seed)
        _check_tol_factor(self.tol_factor)
        _check_integer("jobs", self.jobs, 1)

    def trial_size(self, index: int) -> int:
        return self.n_min + index % (self.n_max - self.n_min + 1)


@dataclass(frozen=True)
class TrialRecord:
    """Everything kept of one trial, built only when asked for: the
    catalog values (None where not applicable), the ids that violated
    domination, failed invariant checks (as messages) and the winning
    bound.  The summary reads the chunk arrays instead, so the former
    ``strict_orderings`` and ``trace_nonzero`` fields are gone."""

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


@dataclass(frozen=True)
class _Chunk:
    """The per-trial rows of one chunk (row i is trial ``trials[i]``),
    small enough to send back from a worker.  ``winner`` is a catalog
    column (-1 where no distance bound applied), ``strict`` flags the
    ordering pairs that held strictly, and ``failures`` lists
    ``(row, message)`` in trial-then-check order."""

    kind: str
    n: int
    trials: range
    values: np.ndarray
    applicable: np.ndarray
    violated: np.ndarray
    d2: np.ndarray
    d_inf: np.ndarray
    e_norm: np.ndarray
    excess: np.ndarray
    winner: np.ndarray
    strict: np.ndarray
    trace_nonzero: np.ndarray
    failures: list


def _run_chunk(config: CampaignConfig, indices: range) -> _Chunk:
    """Execute trials of one size as one stack and run every per-trial
    check on the whole chunk."""
    n = config.trial_size(indices[0])
    seeds = [derive_trial_seed(config.seed, i) for i in indices]
    cases = _draw_cases(config.kind, n, seeds, config.perturbation_scale, config.trace_mode)
    try:
        ev = _evaluate(cases, config.tol_factor)
    except NumericalConsistencyError as exc:
        raise NumericalConsistencyError(f"trial {indices[exc.entry]}: {exc}") from exc
    st, values = ev.stats, ev.values

    # (flags, message, operands) per check, in the order a trial reports
    # them; the message shows each operand's value with %r
    checks = [(ev.d_inf > ev.d2 + 1e-12 * (1.0 + ev.d2), "metric: d_inf=%r exceeds d2=%r", (ev.d_inf, ev.d2))]
    strict = np.empty((len(indices), len(ORDERING_PAIRS)), dtype=bool)
    for p, (sharp_id, base_id) in enumerate(ORDERING_PAIRS):
        sharp, base = values[:, _COLUMN[sharp_id]], values[:, _COLUMN[base_id]]
        present = ev.applicable[:, _COLUMN[sharp_id]] & ev.applicable[:, _COLUMN[base_id]]
        tol = 1e-12 * np.maximum(1.0, np.abs(base))
        message = f"ordering: {sharp_id}=%r exceeds {base_id}=%r"
        checks.append((present & (sharp > base + tol), message, (sharp, base)))
        strict[:, p] = present & (sharp < base - tol)
    lower, upper, excess = values[:, _COLUMN["sun_3_7"]], values[:, _COLUMN["henrici_3_6"]], st.excess
    slack = 1e-9 * np.maximum(1.0, st.tilde_norm)
    checks += [
        (lower > excess + slack, "sandwich: lower estimate %r exceeds excess %r", (lower, excess)),
        (upper < excess - slack, "sandwich: upper estimate %r is below excess %r", (upper, excess)),
        *_hermitian_checks(ev, cases.hermitian),
    ]
    failures = []
    for i, c in np.argwhere(np.stack([flags for flags, _, _ in checks], axis=1)).tolist():
        _, message, operands = checks[c]
        failures.append((i, message % tuple(float(x[i]) for x in operands)))

    # the winner is min((value, id)) over applicable distance bounds:
    # the smallest value, ties to the alphabetically first id
    ranked = np.where(ev.applicable[:, _WINNER_COLUMNS], values[:, _WINNER_COLUMNS], np.inf)
    winner = np.where(np.isfinite(ranked.min(axis=1)), _WINNER_COLUMNS[np.argmin(ranked, axis=1)], -1)
    return _Chunk(
        kind=config.kind,
        n=n,
        trials=indices,
        values=values,
        applicable=ev.applicable,
        violated=ev.violated,
        d2=ev.d2,
        d_inf=ev.d_inf,
        e_norm=st.e_norm,
        excess=st.excess,
        winner=winner,
        strict=strict,
        trace_nonzero=st.e_trace > 1e-12 * np.maximum(1.0, st.e_norm),
        failures=failures,
    )


def _hermitian_checks(ev, hermitian: np.ndarray) -> list:
    """The comparisons specific to a Hermitian base, flagged only on the
    trials of a chunk whose A is Hermitian."""
    e_norm, excess = ev.stats.e_norm, ev.stats.excess
    # tolerance matches the exact-arithmetic nature of these comparisons
    tol = 1e-12 * np.maximum(np.maximum(1.0, e_norm), excess)

    def entry(label):
        # (values, where checked)
        if label == "triangle":
            return e_norm + excess, hermitian
        col = _COLUMN[label]
        return ev.values[:, col], hermitian & ev.applicable[:, col]

    checks = []
    for small, large in _HERMITIAN_AT_MOST:
        (v, on), (w, w_on) = entry(small), entry(large)
        checks.append((on & w_on & (v > w + tol), f"hermitian: {small}=%r exceeds {large}=%r", (v, w)))
    (va, a_on), (vb, b_on) = skew = entry("thm_4_3_a"), entry("thm_4_3_b")
    for label, (v, on) in zip(("thm_4_3_a", "thm_4_3_b"), skew):
        checks.append((on & (v < excess - tol), f"hermitian: {label}=%r is below excess %r", (v, excess)))
    differ = a_on & b_on & (np.abs(va - vb) > tol)
    checks.append((differ, "hermitian: thm_4_3 variants differ: %r vs %r", (va, vb)))
    return checks


def _records(chunk: _Chunk) -> list[TrialRecord]:
    """One record per trial of a chunk, in trial order."""
    rows = chunk.values.astype(object)
    rows[~chunk.applicable] = None
    failures: list[list[str]] = [[] for _ in chunk.trials]
    for i, message in chunk.failures:
        failures[i].append(message)
    columns = (chunk.d2, chunk.d_inf, chunk.e_norm, chunk.excess, chunk.winner, chunk.violated, rows)
    d2, d_inf, e_norm, excess, winner, violated, rows = (a.tolist() for a in columns)
    return [
        TrialRecord(
            trial=trial,
            n=chunk.n,
            kind=chunk.kind,
            d2=d2[i],
            d_inf=d_inf[i],
            e_norm=e_norm[i],
            excess=excess[i],
            values=dict(zip(CATALOG_IDS, rows[i])),
            violation_ids=tuple(itertools.compress(CATALOG_IDS, violated[i])),
            check_failures=tuple(failures[i]),
            winner=CATALOG_IDS[winner[i]] if winner[i] >= 0 else "",
        )
        for i, trial in enumerate(chunk.trials)
    ]


def run_trial(config: CampaignConfig, index: int) -> TrialRecord:
    """Execute one seeded trial and run every per-trial check."""
    return _records(_run_chunk(config, range(index, index + 1)))[0]


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
        """The fields as a fresh dict, the sample tuples as lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in dataclasses.asdict(self).items()}


def _merge_samples(samples: list, chunk: _Chunk, rows: Iterable[tuple[int, dict]]) -> list:
    """The first _SAMPLE_CAP samples by trial, of ``samples`` and of the
    ``(row, sample)`` pairs of a chunk; the stable sort keeps the order
    of a trial's own samples."""
    new = [{"trial": chunk.trials[i], **sample} for i, sample in itertools.islice(rows, _SAMPLE_CAP)]
    return sorted(samples + new, key=lambda s: s["trial"])[:_SAMPLE_CAP]


def _fold(config: CampaignConfig, chunks: Iterable[_Chunk], records: list | None) -> CampaignSummary:
    """Fold the chunks, in any order, into the campaign summary, and
    append each chunk's records to ``records`` unless it is None."""
    trials = 0
    wins = np.zeros(len(CATALOG_IDS), dtype=np.int64)
    max_slack = np.full(len(_D2_COLUMNS), -np.inf)
    violation_count = failure_count = nonzero_trace = 0
    violation_samples: list = []
    failure_samples: list = []
    strict = np.zeros(len(ORDERING_PAIRS), dtype=np.int64)

    for chunk in chunks:
        trials += len(chunk.trials)
        wins += np.bincount(chunk.winner[chunk.winner >= 0], minlength=len(CATALOG_IDS))
        slack = chunk.values[:, _D2_COLUMNS] - chunk.d2[:, None]
        slack = np.where(chunk.applicable[:, _D2_COLUMNS], slack, -np.inf)
        max_slack = np.maximum(max_slack, slack.max(axis=0))
        violated = np.argwhere(chunk.violated).tolist()
        violation_count += len(violated)
        violation_samples = _merge_samples(
            violation_samples, chunk, ((i, {"id": CATALOG_IDS[j], "d2": float(chunk.d2[i])}) for i, j in violated)
        )
        failure_count += len(chunk.failures)
        failure_samples = _merge_samples(failure_samples, chunk, ((i, {"message": m}) for i, m in chunk.failures))
        nonzero_trace += int(chunk.trace_nonzero.sum())
        strict += chunk.strict[chunk.trace_nonzero].sum(axis=0)
        if records is not None:
            records.extend(_records(chunk))

    if wins.sum() != trials:
        raise AssertionError("tightness wins do not sum to the trial count")
    ordering = {"nonzero_trace_trials": nonzero_trace}
    ordering.update((f"{a}<{b}", int(count)) for (a, b), count in zip(ORDERING_PAIRS, strict))
    return CampaignSummary(
        trials=trials,
        n_min=config.n_min,
        n_max=config.n_max,
        kind=config.kind,
        trace_mode=config.trace_mode,
        seed=config.seed,
        wins={bid: int(wins[col]) for bid, col in zip(D2_BOUND_IDS, _D2_COLUMNS)},
        max_slack={bid: None if s == -np.inf else float(s) for bid, s in zip(D2_BOUND_IDS, max_slack)},
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
    chunks of a fixed maximum size, shared among the worker processes
    when jobs > 1.  Each chunk is folded into the summary as it arrives,
    in any order, and then dropped, so memory does not grow with the
    trial count, and the summary is identical for any jobs value.
    ``collect_records=True`` also returns every per-trial record, in
    index order, e.g. for CSV dumps; these do grow with the trial count.
    """
    records: list[TrialRecord] | None = [] if collect_records else None
    with ProcessPoolExecutor(config.jobs) if config.jobs > 1 else contextlib.nullcontext() as pool:
        chunks = (pool.map if pool else map)(_run_chunk, itertools.repeat(config), _chunks(config))
        summary = _fold(config, chunks, records)
    if records is None:
        return summary
    records.sort(key=lambda rec: rec.trial)
    return summary, records


# ---------------------------------------------------------------------------
# CSV output


def write_trials_csv(path, records: Iterable[TrialRecord]) -> None:
    """One row per trial: trial, n, kind, d2, each catalog value (empty
    where not applicable) and a 0/1 violation flag."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "n", "kind", "d2", *CATALOG_IDS, "violation"])
        for rec in records:
            values = (rec.values[bid] for bid in CATALOG_IDS)
            cells = ("" if v is None else repr(v) for v in values)
            flag = 1 if rec.violation_ids else 0
            writer.writerow([rec.trial, rec.n, rec.kind, repr(rec.d2), *cells, flag])
