import dataclasses

import pytest

from spectra_perturb import (
    KINDS,
    TRACE_MODES,
    CampaignConfig,
    EnsembleSpec,
    run_campaign,
    run_trial,
)
from spectra_perturb import campaigns


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
