import dataclasses
import tracemalloc

import pytest

from spectra_perturb import (
    KINDS,
    TRACE_MODES,
    CampaignConfig,
    EnsembleSpec,
    run_campaign,
    run_trial,
)
from spectra_perturb import bounds, campaigns
from spectra_perturb.bounds import D2_BOUND_IDS


@pytest.mark.parametrize("kind", KINDS)
def test_jobs_give_identical_summaries(kind):
    # per-trial seeds depend only on (seed, index), so worker processes
    # must reproduce the single-process summary byte for byte
    config = dict(trials=66, n_min=2, n_max=12, kind=kind, seed=42)
    serial = run_campaign(CampaignConfig(**config, jobs=1))
    parallel = run_campaign(CampaignConfig(**config, jobs=2))
    assert parallel.as_dict() == serial.as_dict()


@pytest.mark.parametrize("scale", [-1.0, 0.0, float("nan"), float("inf")])
def test_perturbation_scale_must_be_finite_and_positive(scale):
    # a campaign accepts exactly the scales random_case can reproduce
    with pytest.raises(ValueError, match="perturbation_scale must be finite and positive"):
        CampaignConfig(trials=1, n_min=3, n_max=3, perturbation_scale=scale)
    with pytest.raises(ValueError, match="perturbation_scale must be finite and positive"):
        EnsembleSpec(n=3, perturbation_scale=scale)


@pytest.mark.parametrize(
    "field, value",
    [("trials", 2.5), ("n_min", 2.5), ("n_max", 3.5), ("seed", 1.5), ("jobs", 1.5), ("trials", True)],
)
def test_campaign_integers_must_be_integers(field, value):
    # a float that compares like an integer would otherwise fail deep
    # inside the run, or (jobs) pass unnoticed
    config = dict(trials=3, n_min=3, n_max=4, seed=0, jobs=1) | {field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        CampaignConfig(**config)


@pytest.mark.parametrize("field, value", [("n", 3.0), ("seed", 1.5)])
def test_ensemble_integers_must_be_integers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        EnsembleSpec(**{"n": 3, field: value})


def _fields(record) -> dict:
    # floats by repr, so that equal-comparing values such as 0.0 and
    # -0.0 still count as different
    return {
        name: repr(value) if isinstance(value, float) else value
        for name, value in dataclasses.asdict(record).items()
    } | {"values": {bid: repr(v) for bid, v in record.values.items()}}


@pytest.mark.parametrize("trace_mode", TRACE_MODES)
@pytest.mark.parametrize("kind", KINDS)
def test_records_do_not_depend_on_batching(kind, trace_mode):
    # three sizes with one more trial each than a chunk holds, so every
    # size is cut into a full chunk and a short one; each record must
    # equal the trial run on its own
    sizes = 3
    config = CampaignConfig(
        trials=sizes * (campaigns._CHUNK_CAP + 1),
        n_min=2,
        n_max=1 + sizes,
        kind=kind,
        trace_mode=trace_mode,
        seed=7,
    )
    cap = campaigns._CHUNK_CAP
    assert sorted(map(len, campaigns._chunks(config))) == [1] * sizes + [cap] * sizes
    _, records = run_campaign(config, collect_records=True)
    assert [rec.trial for rec in records] == list(range(config.trials))
    for i, rec in enumerate(records):
        assert _fields(rec) == _fields(run_trial(config, i))


def test_chunks_cover_every_trial_once_and_shrink_at_large_n():
    config = CampaignConfig(trials=1000, n_min=2, n_max=12)
    chunks = campaigns._chunks(config)
    assert sorted(i for chunk in chunks for i in chunk) == list(range(1000))
    assert all(len({config.trial_size(i) for i in chunk}) == 1 for chunk in chunks)
    # a stack of 256 x 256 matrices would hold more entries than a chunk
    # allows, so each such trial is a chunk of its own
    large = campaigns._chunks(CampaignConfig(trials=3, n_min=256, n_max=256))
    assert list(map(list, large)) == [[0], [1], [2]]


# Integer outcomes of 220-trial campaigns at seed 42, recorded before the
# reorder moved to LAPACK ztrexc and A's spectrum to one eigensolve.  They
# must survive last-bit changes in the pipeline; max_slack is not pinned.
GOLDEN_COUNTS = {
    "normal": (
        {"eq_3_3c": 79, "eq_3_4b": 19, "eq_3_11b": 113, "eq_3_11c": 9},
        {"eq_3_5a<eq_1_4": 220, "eq_3_11a<eq_1_5": 220, "eq_3_5f<eq_1_7": 220},
    ),
    "hermitian": (
        {"eq_3_4b": 18, "eq_3_11c": 2, "eq_4_6b": 4, "eq_4_6c": 167, "eq_4_6e": 29},
        {"eq_3_5a<eq_1_4": 220, "eq_3_11a<eq_1_5": 220, "eq_3_5f<eq_1_7": 220},
    ),
    "normal-blocked": (
        {"eq_1_5": 54, "eq_3_3d": 166},
        {"eq_3_5a<eq_1_4": 220, "eq_3_11a<eq_1_5": 166, "eq_3_5f<eq_1_7": 166},
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_COUNTS))
def test_campaign_counts_match_golden_values(kind):
    wins, ordering = GOLDEN_COUNTS[kind]
    summary = run_campaign(CampaignConfig(trials=220, kind=kind, seed=42))
    assert {bid: c for bid, c in summary.wins.items() if c} == wins
    assert summary.ordering == {"nonzero_trace_trials": 220, **ordering}
    assert summary.violation_count == 0
    assert summary.check_failure_count == 0


def _fold_records(records) -> dict:
    """The summary keys a record-by-record walk can rebuild: the oracle
    for the campaign's fold of the chunk arrays."""
    wins = {bid: 0 for bid in D2_BOUND_IDS}
    max_slack: dict = {bid: None for bid in D2_BOUND_IDS}
    violation_count = failure_count = 0
    violation_samples: list = []
    failure_samples: list = []
    for rec in records:
        if rec.winner:
            wins[rec.winner] += 1
        for bid in D2_BOUND_IDS:
            v = rec.values[bid]
            if v is not None and (max_slack[bid] is None or v - rec.d2 > max_slack[bid]):
                max_slack[bid] = v - rec.d2
        violation_count += len(rec.violation_ids)
        for bid in rec.violation_ids:
            if len(violation_samples) < campaigns._SAMPLE_CAP:
                violation_samples.append({"trial": rec.trial, "id": bid, "d2": rec.d2})
        failure_count += len(rec.check_failures)
        for msg in rec.check_failures:
            if len(failure_samples) < campaigns._SAMPLE_CAP:
                failure_samples.append({"trial": rec.trial, "message": msg})
    return {
        "trials": len(records),
        "wins": wins,
        "max_slack": max_slack,
        "violation_count": violation_count,
        "violation_samples": violation_samples,
        "check_failure_count": failure_count,
        "check_failure_samples": failure_samples,
    }


@pytest.mark.parametrize("d2_factor", [1.0, 1.5, 0.5])
@pytest.mark.parametrize("kind", KINDS)
def test_summary_equals_a_record_by_record_fold(kind, d2_factor, monkeypatch):
    # d2 scaled by 1.5 makes bounds fall below it (violations); by 0.5,
    # d_inf exceeds it (check failures).  Chunks of 3 trials cut every
    # size into 8 chunks, which arrive in size order, not trial order, so
    # the capped samples must be merged across chunks by trial.
    original = bounds.optimal_match

    def scaled(*args, **kwargs):
        match = original(*args, **kwargs)
        return dataclasses.replace(match, d2=match.d2 * d2_factor)

    monkeypatch.setattr(bounds, "optimal_match", scaled)
    monkeypatch.setattr(campaigns, "_CHUNK_CAP", 3)
    config = CampaignConfig(trials=11 * 24, n_min=2, n_max=12, kind=kind, seed=5)
    assert all(len(chunk) == 3 for chunk in campaigns._chunks(config))
    summary = run_campaign(config)
    collected, records = run_campaign(config, collect_records=True)
    assert repr(collected) == repr(summary)
    folded = {key: summary.as_dict()[key] for key in _fold_records([])}
    assert repr(folded) == repr(_fold_records(records))
    if d2_factor == 1.5:
        assert summary.violation_count > campaigns._SAMPLE_CAP
    if d2_factor == 0.5:
        assert summary.check_failure_count > campaigns._SAMPLE_CAP


def _peak_bytes(trials: int) -> int:
    tracemalloc.start()
    try:
        run_campaign(CampaignConfig(trials=trials, n_min=2, n_max=4, seed=3))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_trial_count():
    # both counts cut every size into full 128-trial chunks; a campaign
    # that kept a record per trial would peak about 6x higher at 6,144
    assert campaigns._CHUNK_CAP == 128
    run_campaign(CampaignConfig(trials=3, n_min=2, n_max=4))
    small, large = _peak_bytes(768), _peak_bytes(6144)
    assert large <= 1.25 * small, (small, large)
