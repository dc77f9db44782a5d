"""Randomized verification campaigns over the bound catalog.

A campaign runs seeded trials, evaluates every catalog entry on each,
flags domination (no distance bound falls below the true distance) and
runs the rows of ``_CHECKS`` per trial: d_inf <= d2, the claimed
orderings between sharpened and baseline bounds, the excess-estimate
sandwich and, on a Hermitian base, the comparisons specific to it.
Results are aggregated into a :class:`CampaignSummary`; per-trial rows
can be dumped as CSV with one fixed column per catalog id.

Trials run in chunks: a chunk is a run of consecutive trials, which
cycles through every matrix size with a bounded number of trials of
each.  The trials of one size are drawn and taken through the matrix
work as one stacked array (Schur form, reorder, blocks, spectrum of A,
matching; see :mod:`spectra_perturb.bounds`), one size after the other;
the catalog, the checks and the fold into the summary then run once on
the per-trial numbers of the whole chunk, and so does the writer of the
per-trial CSV.  Per trial there remain only the random draws (seed by
seed, in stream order), the LAPACK calls of the Schur decomposition and
its reorder, and the assignment solver for ``d2``.  A trial's results
do not depend on the chunk it ran in, so :func:`run_trial` (a chunk of
one) reproduces any row of a campaign, and summaries and CSVs are
byte-identical for any ``jobs``.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .bounds import CATALOG_IDS, D2_BOUND_IDS, NumericalConsistencyError, _as_dict, _evaluate_block, _Stats
from .ensembles import _check_draw, _check_integer, _draw_cases, derive_trial_seed
from .matrices import _TOLERANCES

__all__ = [
    "CampaignConfig",
    "TrialRecord",
    "CampaignSummary",
    "run_trial",
    "run_campaign",
]

# (sharp id, baseline id): the sharp value never exceeds the baseline,
# strictly so in almost every trial with tr(E) != 0.
_ORDERING_PAIRS = (
    ("eq_3_5a", "eq_1_4"),
    ("eq_3_11a", "eq_1_5"),
    ("eq_3_5f", "eq_1_7"),
)

# a check's failure test on its operands x and y and its tolerance
_FAILS = {
    "exceeds": lambda x, y, tol: x > y + tol,
    "below": lambda x, y, tol: x < y - tol,
    "differs": lambda x, y, tol: np.abs(x - y) > tol,
}

# The per-trial checks as (message, x, test, y, tolerance, Hermitian A
# only), in the order a trial reports them.  A trial fails a check where
# it reports both operands and ``_FAILS[test](x, y, tol)`` holds, tol the
# ``_TOLERANCES`` row named first in ``tolerance`` at the operands named
# after it; the message shows x and y in caller units with %r.  An
# operand is a catalog id, reported where that entry applies, a ``_Stats``
# column, or "triangle", ||E||_F + excess (see ``_operand``).
_SANDWICH_TOL = ("sandwich", "tilde_norm")
_HERMITIAN_TOL = ("hermitian_checks", "e_norm", "excess")
_CHECKS = (
    ("metric: d_inf=%r exceeds d2=%r", "d_inf", "exceeds", "d2", ("metric", "d2"), False),
    *((f"ordering: {sharp}=%r exceeds {base}=%r", sharp, "exceeds", base, ("ordering", base), False)
      for sharp, base in _ORDERING_PAIRS),
    ("sandwich: lower estimate %r exceeds excess %r", "sun_3_7", "exceeds", "excess", _SANDWICH_TOL, False),
    ("sandwich: upper estimate %r is below excess %r", "henrici_3_6", "below", "excess", _SANDWICH_TOL, False),
    ("hermitian: eq_4_6a=%r exceeds eq_1_6=%r", "eq_4_6a", "exceeds", "eq_1_6", _HERMITIAN_TOL, True),
    ("hermitian: eq_4_6b=%r exceeds eq_1_8=%r", "eq_4_6b", "exceeds", "eq_1_8", _HERMITIAN_TOL, True),
    ("hermitian: eq_4_6c=%r exceeds eq_1_9=%r", "eq_4_6c", "exceeds", "eq_1_9", _HERMITIAN_TOL, True),
    ("hermitian: eq_4_6c=%r exceeds eq_1_6=%r", "eq_4_6c", "exceeds", "eq_1_6", _HERMITIAN_TOL, True),
    ("hermitian: eq_4_6b=%r exceeds triangle=%r", "eq_4_6b", "exceeds", "triangle", _HERMITIAN_TOL, True),
    ("hermitian: eq_4_6c=%r exceeds triangle=%r", "eq_4_6c", "exceeds", "triangle", _HERMITIAN_TOL, True),
    ("hermitian: thm_4_3_a=%r is below excess %r", "thm_4_3_a", "below", "excess", _HERMITIAN_TOL, True),
    ("hermitian: thm_4_3_b=%r is below excess %r", "thm_4_3_b", "below", "excess", _HERMITIAN_TOL, True),
    ("hermitian: thm_4_3 variants differ: %r vs %r", "thm_4_3_a", "differs", "thm_4_3_b", _HERMITIAN_TOL, True),
)

_SAMPLE_CAP = 20

# Most trials of one size in a chunk, and most matrix entries per
# stacked array: a campaign's array memory is bounded whatever its trial
# count, and at large n a chunk holds a single trial of each size.
_CHUNK_CAP = 128
_CHUNK_ENTRIES = 1 << 16

# The columns of a chunk that _fold, the CSV writer and run_trial read;
# _run_chunk drops the others, so a worker sends back no more than these.
_CHUNK_COLUMNS = frozenset({
    "trials", "n", "d2", "d_inf", "e_norm", "excess", "values",
    "applicable", "violated", "winner", "strict", "trace_nonzero", "failures",
})

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
    jobs: int = 1

    def __post_init__(self):
        _check_integer("trials", self.trials, 1)
        _check_integer("n_min", self.n_min, 2)
        _check_integer("n_max", self.n_max, self.n_min)
        _check_draw(self.kind, self.perturbation_scale, self.trace_mode, self.seed)
        _check_integer("jobs", self.jobs, 1)

    def trial_size(self, index: int) -> int:
        return self.n_min + index % (self.n_max - self.n_min + 1)


@dataclass(frozen=True)
class TrialRecord:
    """Everything kept of one trial, as :func:`run_trial` returns it: the
    catalog values (None where not applicable), the ids that violated
    domination, failed invariant checks (as messages) and the winning
    bound."""

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


def _run_chunk(config: CampaignConfig, indices: range) -> _Stats:
    """Execute a chunk of consecutive trials and run every per-trial
    check on it, at each trial's unit scale.  The chunk's stats come back
    in caller units (row i is trial ``trials[i]``) with only the
    ``_CHUNK_COLUMNS``, small enough to send back from a worker:
    ``winner`` is a catalog column (-1 where no distance bound applied),
    ``strict`` flags the ordering pairs that held strictly,
    ``trace_nonzero`` the trials with tr(E) nonzero, and ``failures``
    lists ``(row, message)`` in trial-then-check order."""
    sizes = min(config.n_max - config.n_min + 1, len(indices))

    def stacks():
        for j in range(sizes):
            trials = indices[j::sizes]
            seeds = [derive_trial_seed(config.seed, i) for i in trials]
            n = config.trial_size(trials[0])
            yield slice(j, None, sizes), _draw_cases(
                config.kind, n, seeds, config.perturbation_scale, config.trace_mode
            )

    try:
        st = _evaluate_block(len(indices), stacks())
    except NumericalConsistencyError as exc:
        raise NumericalConsistencyError(f"trial {indices[exc.entry]}: {exc}") from exc

    # the ordering rows also flag the trials where the sharp value is
    # strictly below its baseline; a tolerance shared by rows is taken once
    tolerances = {(row, *labels): _TOLERANCES[row](*(_operand(st, label)[0] for label in labels))
                  for row, *labels in {tolerance for _, _, _, _, tolerance, _ in _CHECKS}}
    flags, operands, strict = [], [], []
    for _, x_label, test, y_label, tolerance, hermitian_only in _CHECKS:
        (x, x_on), (y, y_on) = _operand(st, x_label), _operand(st, y_label)
        tol = tolerances[tolerance]
        on = x_on & y_on & (st.hermitian if hermitian_only else True)
        flags.append(on & _FAILS[test](x, y, tol))
        operands.append((x, y))
        if tolerance[0] == "ordering":
            strict.append(on & _FAILS["below"](x, y, tol))
    failures = []
    for i, c in np.argwhere(np.stack(flags, axis=1)).tolist():
        caller = (float(np.ldexp(v[i], st.exponent[i])) for v in operands[c])
        failures.append((i, _CHECKS[c][0] % tuple(caller)))

    # the winner is min((value, id)) over applicable distance bounds:
    # the smallest value, ties to the alphabetically first id
    ranked = np.where(st.applicable[:, _WINNER_COLUMNS], st.values[:, _WINNER_COLUMNS], np.inf)
    winner = np.where(np.isfinite(ranked.min(axis=1)), _WINNER_COLUMNS[np.argmin(ranked, axis=1)], -1)
    st.trials, st.winner, st.strict, st.failures = indices, winner, np.stack(strict, axis=1), failures
    st.trace_nonzero = st.e_trace > _TOLERANCES["trace_nonzero"](st.e_norm)
    st.to_caller_units()
    for name in vars(st).keys() - _CHUNK_COLUMNS:
        delattr(st, name)
    return st


def _operand(st: _Stats, label: str) -> tuple:
    """The values of a check's operand on a chunk, and where its trials
    report it (True: on every trial)."""
    if label == "triangle":
        return st.e_norm + st.excess, True
    if label in _COLUMN:
        return st.values[:, _COLUMN[label]], st.applicable[:, _COLUMN[label]]
    return getattr(st, label), True


def run_trial(config: CampaignConfig, index: int) -> TrialRecord:
    """Execute one seeded trial and run every per-trial check."""
    st = _run_chunk(config, range(index, index + 1))
    columns = (st.n, st.d2, st.d_inf, st.e_norm, st.excess, st.winner)
    n, d2, d_inf, e_norm, excess, winner = (a.item() for a in columns)
    return TrialRecord(
        trial=index,
        n=n,
        kind=config.kind,
        d2=d2,
        d_inf=d_inf,
        e_norm=e_norm,
        excess=excess,
        values=dict(zip(CATALOG_IDS, np.where(st.applicable, st.values, None)[0].tolist())),
        violation_ids=tuple(itertools.compress(CATALOG_IDS, st.violated[0].tolist())),
        check_failures=tuple(message for _, message in st.failures),
        winner=CATALOG_IDS[winner] if winner >= 0 else "",
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
        """The fields as a fresh dict, the sample tuples as lists."""
        return _as_dict(self)


def _add_samples(samples: list, chunk: _Stats, rows: Iterable[tuple[int, dict]]) -> None:
    """Append the ``(row, sample)`` pairs of a chunk to ``samples``, each
    tagged with its trial, until there are _SAMPLE_CAP: chunks come in
    trial order, and the pairs of a chunk in row order."""
    room = max(0, _SAMPLE_CAP - len(samples))
    samples.extend({"trial": chunk.trials[i], **sample} for i, sample in itertools.islice(rows, room))


def _fold(
    config: CampaignConfig, chunks: Iterable[_Stats], sink: Callable[[_Stats], None] | None
) -> CampaignSummary:
    """Fold the chunks, in trial order, into the campaign summary, and
    hand each chunk to ``sink`` unless it is None.  Every verdict is
    already in the chunks; the fold only counts."""
    trials = 0
    wins = np.zeros(len(CATALOG_IDS), dtype=np.int64)
    max_slack = np.full(len(_D2_COLUMNS), -np.inf)
    violation_count = failure_count = nonzero_trace = 0
    violation_samples: list = []
    failure_samples: list = []
    strict = np.zeros(len(_ORDERING_PAIRS), dtype=np.int64)

    for chunk in chunks:
        trials += len(chunk.trials)
        wins += np.bincount(chunk.winner[chunk.winner >= 0], minlength=len(CATALOG_IDS))
        slack = chunk.values[:, _D2_COLUMNS] - chunk.d2[:, None]
        slack = np.where(chunk.applicable[:, _D2_COLUMNS], slack, -np.inf)
        max_slack = np.maximum(max_slack, slack.max(axis=0))
        violated = np.argwhere(chunk.violated).tolist()
        violation_count += len(violated)
        _add_samples(
            violation_samples, chunk, ((i, {"id": CATALOG_IDS[j], "d2": float(chunk.d2[i])}) for i, j in violated)
        )
        failure_count += len(chunk.failures)
        _add_samples(failure_samples, chunk, ((i, {"message": m}) for i, m in chunk.failures))
        nonzero_trace += int(chunk.trace_nonzero.sum())
        strict += chunk.strict[chunk.trace_nonzero].sum(axis=0)
        if sink is not None:
            sink(chunk)

    if wins.sum() != trials:
        raise AssertionError("tightness wins do not sum to the trial count")
    ordering = {"nonzero_trace_trials": nonzero_trace}
    ordering.update((f"{a}<{b}", int(count)) for (a, b), count in zip(_ORDERING_PAIRS, strict))
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
    """The trial indices cut into consecutive chunks of ``sizes * cap``
    trials, so that a chunk cycles through every size (trial i has size
    n_min + i mod the number of sizes) with ``cap`` trials of each: at
    most _CHUNK_CAP, and at most _CHUNK_ENTRIES entries per matrix stack
    of the largest size.  With jobs > 1, ``cap`` is also at most what
    gives each worker one chunk, so that small campaigns still spread
    over the workers."""
    sizes = config.n_max - config.n_min + 1
    per_worker = -(-config.trials // (sizes * config.jobs))
    cap = max(1, min(_CHUNK_CAP, _CHUNK_ENTRIES // (config.n_max * config.n_max), per_worker))
    length = sizes * cap
    return [range(i, min(i + length, config.trials)) for i in range(0, config.trials, length)]


def run_campaign(config: CampaignConfig) -> CampaignSummary:
    """Run all trials (in processes when jobs > 1) and aggregate.

    Trials are evaluated in chunks of consecutive trials, of a fixed
    maximum length, shared among at most one worker process per chunk
    when jobs > 1.  Each chunk is folded into the summary as it arrives,
    in trial order, and then dropped, so memory does not grow with the
    trial count, and the summary is identical for any jobs value.
    :func:`run_trial` gives the record of any one trial.
    """
    return _run_campaign(config)


def _run_campaign(config: CampaignConfig, sink: Callable[[_Stats], None] | None = None) -> CampaignSummary:
    """:func:`run_campaign`, handing each chunk, in trial order, to
    ``sink`` (unless it is None) as the chunk is folded."""
    chunks = _chunks(config)
    workers = min(config.jobs, len(chunks))
    if workers <= 1:
        return _fold(config, map(_run_chunk, itertools.repeat(config), chunks), sink)
    # imported here, not at the top: it adds about 15 ms to every import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers) as pool:
        return _fold(config, pool.map(_run_chunk, itertools.repeat(config), chunks), sink)


# ---------------------------------------------------------------------------
# CSV output


def _trials_csv(fh, kind: str) -> Callable[[_Stats], None]:
    """Write the per-trial CSV header to ``fh`` and return the function
    that writes the rows of a chunk: one row per trial with trial, n,
    kind, d2, each catalog value (empty where not applicable) and a 0/1
    violation flag."""
    writer = csv.writer(fh)
    writer.writerow(["trial", "n", "kind", "d2", *CATALOG_IDS, "violation"])

    def write(chunk: _Stats) -> None:
        values = np.where(chunk.applicable, chunk.values, None).tolist()
        rows = zip(chunk.trials, chunk.n.tolist(), chunk.d2.tolist(), values, chunk.violated.any(axis=1).tolist())
        for trial, n, d2, row, flag in rows:
            cells = ("" if v is None else repr(v) for v in row)
            writer.writerow([trial, n, kind, repr(d2), *cells, int(flag)])

    return write
