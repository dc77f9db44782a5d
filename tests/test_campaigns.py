import concurrent.futures
import csv
import dataclasses
import io
import itertools
import math
import pickle
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spectra_perturb import (
    CATALOG_IDS,
    KINDS,
    TRACE_MODES,
    CampaignConfig,
    EnsembleSpec,
    TrialRecord,
    derive_trial_seed,
    evaluate_all,
    frobenius_norm,
    make_case,
    random_case,
    run_campaign,
    run_trial,
)
from spectra_perturb import bounds, campaigns
from spectra_perturb.bounds import D2_BOUND_IDS
from spectra_perturb.cli import main
from spectra_perturb.matrices import _scaled

from conftest import case_stacks


@pytest.mark.parametrize("kind", KINDS)
def test_jobs_give_identical_summaries(kind):
    # per-trial seeds depend only on (seed, index), so worker processes
    # must reproduce the single-process summary byte for byte
    config = dict(trials=66, n_min=2, n_max=12, kind=kind, seed=42)
    serial = run_campaign(CampaignConfig(**config, jobs=1))
    parallel = run_campaign(CampaignConfig(**config, jobs=2))
    assert parallel.as_dict() == serial.as_dict()


@pytest.mark.parametrize(
    "scale",
    [-1.0, 0.0, float("nan"), float("inf"), "2", None, True, 1j]
    + [pytest.param(t(np.inf), id=f"{t.__name__}-inf") for t in (np.float16, np.float32)],
)
def test_perturbation_scale_must_be_finite_and_positive(scale):
    # a campaign accepts exactly the scales random_case can reproduce; a
    # bool or a value that is not a real number is refused like a bad one,
    # and a numpy scalar is compared without casting 2^990 to its precision
    with pytest.raises(ValueError, match="perturbation_scale must be finite and positive"):
        CampaignConfig(trials=1, n_min=3, n_max=3, perturbation_scale=scale)
    with pytest.raises(ValueError, match="perturbation_scale must be finite and positive"):
        EnsembleSpec(n=3, perturbation_scale=scale)


@pytest.mark.parametrize("scale", [np.float32(2), np.float16(2)], ids=["float32", "float16"])
def test_a_narrow_numpy_scale_is_accepted_as_its_value(scale):
    # 2^990 overflows float32 and float16: compared in the scalar's own
    # precision it raised an overflow RuntimeWarning, which the suite's
    # warning filter turns into an error
    EnsembleSpec(n=3, perturbation_scale=scale)
    config = dict(trials=66, seed=42)
    summary = run_campaign(CampaignConfig(**config, perturbation_scale=scale)).as_dict()
    assert summary == run_campaign(CampaignConfig(**config, perturbation_scale=2.0)).as_dict()


@pytest.mark.parametrize("kind", KINDS)
def test_a_fraction_scale_draws_as_its_float(kind):
    # a Fraction is a numbers.Real, so the draw parameters accept it; the
    # draw divided it by an ndarray of norms, which made an object array
    drawn, unit = (
        random_case(EnsembleSpec(n=5, kind=kind, perturbation_scale=scale, seed=1))._cases
        for scale in (Fraction(1, 2), 0.5)
    )
    for name, field in vars(unit).items():
        if field is not None:
            assert getattr(drawn, name).tobytes() == field.tobytes(), name
    config = dict(trials=33, kind=kind, seed=42)
    summary = run_campaign(CampaignConfig(**config, perturbation_scale=Fraction(1, 2))).as_dict()
    assert summary == run_campaign(CampaignConfig(**config, perturbation_scale=0.5)).as_dict()


@pytest.mark.parametrize("s", [1e80, 1e160])
def test_perturbation_scale_may_overflow_fourth_powers(s):
    # before pairs were scaled, at 1e80 henrici_3_6 and sun_3_7 were
    # non-finite in every trial (the campaign reported ok, since NaN passes
    # the sandwich check) and an overflow rule refused the scale; now each
    # value is s times that of the drawn pair divided by s
    config = CampaignConfig(trials=11, perturbation_scale=s)
    assert run_campaign(config).ok
    for i in range(config.trials):
        record = run_trial(config, i)
        spec = EnsembleSpec(n=config.trial_size(i), perturbation_scale=s, seed=derive_trial_seed(config.seed, i))
        drawn = random_case(spec)
        unit = evaluate_all(make_case(drawn.a / s, drawn.e / s))
        assert abs(record.d2 / s - unit.d2) <= 1e-12 * unit.d2
        for bv in unit.bounds:
            value = record.values[bv.id]
            assert (value is None) == (bv.value is None), bv.id
            if value is not None:
                assert abs(value / s - bv.value) <= 1e-12 * bv.value, bv.id


def test_the_sandwich_check_holds_on_a_blocked_trial_with_a_small_excess():
    # with sun_3_7 taken as a difference of squares, its cancellation left
    # the square root of one ulp of ||A + E||_F^2, above this trial's excess
    config = CampaignConfig(trials=2200, kind="normal-blocked", seed=1, perturbation_scale=1e-6)
    assert run_trial(config, 1585).check_failures == ()


def test_perturbation_scale_is_refused_at_the_entry_limit():
    limit = math.ldexp(1.0, 990)
    for make in (
        lambda scale: CampaignConfig(trials=11, perturbation_scale=scale),
        lambda scale: EnsembleSpec(n=3, perturbation_scale=scale),
    ):
        with pytest.raises(ValueError, match=r"^perturbation_scale must be finite and positive, below 2\^990, got "):
            make(limit)
    # just below it, a clean run with every value finite
    config = CampaignConfig(trials=11, perturbation_scale=math.nextafter(limit, 0.0))
    assert run_campaign(config).ok
    for i in range(config.trials):
        record = run_trial(config, i)
        values = [record.d2, *(v for v in record.values.values() if v is not None)]
        assert all(map(math.isfinite, values))


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


def _campaign_rows(config) -> tuple:
    """The summary of a campaign and the fields of each of its trials,
    read off the chunk arrays in the form _fields gives a record."""
    chunks: list = []
    summary = campaigns._run_campaign(config, chunks.append)
    rows = []
    for chunk in chunks:
        values = np.where(chunk.applicable, chunk.values, None).tolist()
        for i, trial in enumerate(chunk.trials):
            winner = int(chunk.winner[i])
            record = TrialRecord(
                trial=trial,
                n=int(chunk.n[i]),
                kind=config.kind,
                d2=float(chunk.d2[i]),
                d_inf=float(chunk.d_inf[i]),
                e_norm=float(chunk.e_norm[i]),
                excess=float(chunk.excess[i]),
                values=dict(zip(CATALOG_IDS, values[i])),
                violation_ids=tuple(itertools.compress(CATALOG_IDS, chunk.violated[i])),
                check_failures=tuple(message for row, message in chunk.failures if row == i),
                winner=CATALOG_IDS[winner] if winner >= 0 else "",
            )
            rows.append(_fields(record))
    return summary, rows


def _assert_rows_equal_single_trials(config, rows) -> None:
    assert [row["trial"] for row in rows] == list(range(config.trials))
    for i, row in enumerate(rows):
        assert row == _fields(run_trial(config, i))


@pytest.mark.parametrize("trace_mode", TRACE_MODES)
@pytest.mark.parametrize("kind", KINDS)
def test_records_do_not_depend_on_batching(kind, trace_mode):
    # three sizes with one more trial each than a chunk holds of a size,
    # so the campaign is cut into a full chunk and a short one; each
    # record must equal the trial run on its own
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
    assert list(map(len, campaigns._chunks(config))) == [sizes * cap, sizes]
    _, rows = _campaign_rows(config)
    _assert_rows_equal_single_trials(config, rows)


def test_chunks_give_every_worker_work():
    # 220 trials over n = 2..12 are one chunk, but with two workers they
    # are cut in two, so that --jobs 2 runs in parallel
    assert [len(c) for c in campaigns._chunks(CampaignConfig(trials=220))] == [220]
    assert [len(c) for c in campaigns._chunks(CampaignConfig(trials=220, jobs=2))] == [110, 110]
    assert [len(c) for c in campaigns._chunks(CampaignConfig(trials=2200, jobs=2))] == [1100, 1100]
    assert [len(c) for c in campaigns._chunks(CampaignConfig(trials=3, jobs=2))] == [3]


def test_chunks_cover_every_trial_once_and_shrink_at_large_n():
    config = CampaignConfig(trials=3000, n_min=2, n_max=12)
    chunks = campaigns._chunks(config)
    assert [i for chunk in chunks for i in chunk] == list(range(3000))
    # a chunk cycles through every size, with at most _CHUNK_CAP trials of each
    assert list(map(len, chunks)) == [11 * campaigns._CHUNK_CAP] * 2 + [3000 - 22 * campaigns._CHUNK_CAP]
    for chunk in chunks:
        counts = np.bincount([config.trial_size(i) for i in chunk])[2:]
        assert counts.max() - counts.min() <= 1 and counts.max() <= campaigns._CHUNK_CAP
    # a stack of 256 x 256 matrices would hold more entries than a chunk
    # allows, so each such trial is a chunk of its own
    large = campaigns._chunks(CampaignConfig(trials=3, n_min=256, n_max=256))
    assert list(map(list, large)) == [[0], [1], [2]]
    # with sizes up to 256, a chunk holds one trial of each size
    mixed = campaigns._chunks(CampaignConfig(trials=10, n_min=253, n_max=256))
    assert list(map(list, mixed)) == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]


@pytest.mark.parametrize("trace_mode", TRACE_MODES)
@pytest.mark.parametrize("kind", KINDS)
def test_records_across_a_chunk_boundary_equal_single_trials(kind, trace_mode):
    # n = 2..12 holds 11 * 128 = 1,408 trials in a chunk, so 1,500 trials
    # cross into a short second chunk; the rows come back in trial order
    # and each equals the trial run on its own
    config = CampaignConfig(trials=1500, kind=kind, trace_mode=trace_mode, seed=2718)
    assert list(map(len, campaigns._chunks(config))) == [1408, 92]
    _, rows = _campaign_rows(config)
    _assert_rows_equal_single_trials(config, rows)


def test_jobs_give_identical_records_across_chunks():
    # n = 2..4 holds 384 trials in a chunk, so 900 trials make three
    # chunks for the two workers; their rows come back in trial order
    config = dict(trials=900, n_min=2, n_max=4, seed=42)
    serial = _campaign_rows(CampaignConfig(**config, jobs=1))
    parallel = _campaign_rows(CampaignConfig(**config, jobs=2))
    assert len(campaigns._chunks(CampaignConfig(**config))) == 3
    assert repr(parallel) == repr(serial)
    _assert_rows_equal_single_trials(CampaignConfig(**config), serial[1])


@pytest.mark.parametrize("kind", KINDS)
def test_a_chunk_carries_only_the_columns_its_readers_use(kind, monkeypatch):
    # the block's stats before _run_chunk adds its own columns and drops
    # the unread ones, pickled as a worker would send them
    untrimmed = []
    evaluate_block = campaigns._evaluate_block

    def spy(k, stacks):
        st = evaluate_block(k, stacks)
        untrimmed.append(len(pickle.dumps(st)))
        return st

    monkeypatch.setattr(campaigns, "_evaluate_block", spy)
    chunk = campaigns._run_chunk(CampaignConfig(trials=220, kind=kind, seed=42), range(220))
    assert vars(chunk).keys() == {
        "trials", "n", "d2", "d_inf", "e_norm", "excess", "values",
        "applicable", "violated", "winner", "strict", "trace_nonzero", "failures",
    }
    assert chunk.trace_nonzero.dtype == bool
    assert len(pickle.dumps(chunk)) < untrimmed[0]


@pytest.mark.parametrize("trials, chunks, workers", [(3, 1, []), (220, 20, [20])])
def test_pool_has_at_most_one_worker_per_chunk(trials, chunks, workers, monkeypatch):
    # --jobs 64 on 3 trials is one chunk and needs no pool; on 220 trials
    # over n = 2..12 it is 20 chunks, one per worker.  The stand-in pool
    # records its worker count and maps in this process.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    config = CampaignConfig(trials=trials, jobs=64)
    assert len(campaigns._chunks(config)) == chunks
    summary = run_campaign(config)
    assert sizes == workers
    assert summary.as_dict() == run_campaign(dataclasses.replace(config, jobs=1)).as_dict()


def _csv_from_records(records) -> bytes:
    """The tightness CSV of some run_trial records, cell by cell."""
    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(["trial", "n", "kind", "d2", *CATALOG_IDS, "violation"])
    for rec in records:
        cells = ("" if rec.values[bid] is None else repr(rec.values[bid]) for bid in CATALOG_IDS)
        writer.writerow([rec.trial, rec.n, rec.kind, repr(rec.d2), *cells, 1 if rec.violation_ids else 0])
    return fh.getvalue().encode()


def test_tightness_csv_is_written_from_the_chunk_arrays(tmp_path, capsys, monkeypatch):
    # 1,500 trials over n = 2..12 cross a chunk boundary; the CSV is
    # written without building a single TrialRecord, serially and with
    # two workers, and equals the rows of the trials run on their own
    trials = 1500
    config = CampaignConfig(trials=trials, seed=31)
    assert len(campaigns._chunks(config)) == 2
    expected = _csv_from_records([run_trial(config, i) for i in range(trials)])

    def no_records(*args, **kwargs):
        raise AssertionError("a TrialRecord was built")

    monkeypatch.setattr(campaigns, "TrialRecord", no_records)
    for jobs in ("1", "2"):
        out = tmp_path / f"trials-{jobs}.csv"
        argv = ["tightness", "--trials", str(trials), "--seed", "31", "--jobs", jobs, "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert out.read_bytes() == expected


def test_numerical_consistency_error_names_its_trial(monkeypatch):
    # make sun_3_7 fail on one chosen trial only, row 14 of the second
    # chunk (n = 2..3 holds 256 trials in a chunk): the error must name
    # that trial, not its chunk row
    config = CampaignConfig(trials=300, n_min=2, n_max=3, kind="normal", seed=9)
    target = 270
    spec = EnsembleSpec(n=config.trial_size(target), seed=derive_trial_seed(config.seed, target))
    case = random_case(spec)
    # _sun takes ||A + E||_F at the case's unit scale
    target_norm = math.ldexp(frobenius_norm(case.a_tilde), -int(case._cases.exponent[0]))
    original = bounds._sun

    def failing(nrm, defect):
        bounds._safe_sqrt(np.where(nrm == target_norm, -1.0, 1.0), 0.0, "sun_3_7")
        return original(nrm, defect)

    monkeypatch.setattr(bounds, "_sun", failing)
    with pytest.raises(bounds.NumericalConsistencyError, match=f"^trial {target}: sun_3_7 \\(entry 14\\)"):
        run_campaign(config)


# Integer outcomes of 220-trial campaigns at seed 42, recorded before the
# reorder moved to LAPACK ztrexc and A's spectrum to one eigensolve, and
# unchanged since a non-Hermitian A's spectrum comes from the Hermitian
# pencil H + cK.  The normal-blocked row was re-recorded when a blocked
# draw's block count and cuts came to be read off its standard normals
# (same law, other draws).  They must survive last-bit changes in the
# pipeline; max_slack is not pinned.
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
        {"eq_1_5": 60, "eq_3_3d": 160},
        {"eq_3_5a<eq_1_4": 220, "eq_3_11a<eq_1_5": 160, "eq_3_5f<eq_1_7": 160},
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


def test_a_blocked_campaign_wins_alike_at_every_perturbation_scale():
    # a blocked draw's E keeps the rounding of ||E|| and its planted band
    # width 0, so the seed-42 win table does not move with the scale of E
    wins = {
        scale: run_campaign(CampaignConfig(trials=2200, kind="normal-blocked", seed=42, perturbation_scale=scale)).wins
        for scale in (1.0, 1e-3, 1e-6, 1e-9)
    }
    assert {bid: c for bid, c in wins[1.0].items() if c} == {"eq_1_5": 606, "eq_3_3d": 1594}
    for scale, table in wins.items():
        assert table == wins[1.0], scale


# Joint scales (A, E) -> 2^p (A, E): powers of 4, so a scaled pair has the
# bits of the drawn one at its unit scale, and every reported number of a
# trial is exactly 2^p times the drawn pair's
JOINT_SCALE_EXPONENTS = (-600, -40, 0, 600)
# check failures of 220-trial campaigns at seed 42 with d2 planted at half
# its value: d_inf then exceeds d2 (the metric check)
FAILURES_AT_HALF_D2 = {"normal": 188, "hermitian": 180, "normal-blocked": 188}
# a float as repr writes it, not a digit of a catalog id such as eq_3_5a
_REPR_FLOAT = r"(?<![\w.])-?\d+(?:\.\d+)?(?:e[-+]\d+)?(?![\w.])"


def _draw_jointly_scaled(monkeypatch, draw, p: int) -> None:
    """Have campaigns draw every stack through ``draw`` and rebuild it
    from its pair in caller units times 2^p, a planted Schur form and
    spectrum of A included."""

    def scaled(*args):
        cases = draw(*args)
        exponent = cases.exponent + p
        planted = {}
        if cases.spectrum is not None:
            planted = dict(q=cases.q, t=_scaled(cases.t, exponent), spectrum=_scaled(cases.spectrum, exponent))
        rebuilt = bounds._make_cases(case_stacks(_scaled(cases.a, exponent), _scaled(cases.e, exponent)), **planted)
        assert np.array_equal(rebuilt.exponent, exponent)
        for name in ("a", "e", "t", "hermitian"):
            assert np.array_equal(getattr(rebuilt, name), getattr(cases, name)), name
        return rebuilt

    monkeypatch.setattr(campaigns, "_draw_cases", scaled)


@pytest.mark.parametrize("kind", KINDS)
def test_every_campaign_verdict_is_the_same_at_every_joint_scale(kind, monkeypatch):
    # the violation verdict and the campaign checks run at each trial's unit
    # scale, so scaling every pair by 2^p moves no count, and max_slack and
    # every number of a failure message scale by exactly 2^p; with d2
    # planted at half its value, the metric check fails at every scale
    draw, match = campaigns._draw_cases, bounds.optimal_match

    def halved(*args):
        found = match(*args)
        return dataclasses.replace(found, d2=found.d2 / 2)

    config = CampaignConfig(trials=220, kind=kind, seed=42)
    summaries, messages = {}, {}
    for p in JOINT_SCALE_EXPONENTS:
        _draw_jointly_scaled(monkeypatch, draw, p)
        monkeypatch.setattr(bounds, "optimal_match", match)
        summaries[p] = run_campaign(config)
        monkeypatch.setattr(bounds, "optimal_match", halved)
        found = []
        planted = campaigns._run_campaign(config, lambda chunk: found.extend(m for _, m in chunk.failures))
        assert planted.check_failure_count == len(found) == FAILURES_AT_HALF_D2[kind], p
        messages[p] = found
    unit = summaries[0]
    assert unit.ordering["nonzero_trace_trials"] == 220
    for p, summary in summaries.items():
        assert summary.wins == unit.wins, p
        assert summary.ordering == unit.ordering, p
        assert summary.violation_count == unit.violation_count == 0, p
        assert summary.check_failure_count == unit.check_failure_count == 0, p
        for bid, slack in unit.max_slack.items():
            expected = None if slack is None else math.ldexp(slack, p)
            assert summary.max_slack[bid] == expected, (p, bid)
        for scaled, message in zip(messages[p], messages[0], strict=True):
            assert re.search(_REPR_FLOAT, message), message
            assert re.sub(_REPR_FLOAT, lambda x: repr(math.ldexp(float(x[0]), p)), message) == scaled, p


# Operands planted at each trial's unit scale so that every campaign check
# fails, all distinct, so that a swapped operand shows in a message
PLANTED_OPERANDS = {
    "d_inf": 3.0, "d2": 2.0, "excess": 1.0, "e_norm": 0.5,
    "eq_3_5a": 1.75, "eq_1_4": 1.5, "eq_3_11a": 1.375, "eq_1_5": 1.25, "eq_3_5f": 1.125, "eq_1_7": 1.0625,
    "sun_3_7": 2.5, "henrici_3_6": 0.75,
    "eq_4_6a": 3.5, "eq_4_6b": 3.25, "eq_4_6c": 3.125, "eq_1_6": 0.625, "eq_1_8": 0.5625, "eq_1_9": 0.53125,
    "thm_4_3_a": 0.25, "thm_4_3_b": 0.375,
}
# every check as (message, operands), in the order a trial reports them:
# the first six run on every trial, the others on a Hermitian A only;
# "triangle" is e_norm + excess
CHECK_MESSAGES = (
    ("metric: d_inf={} exceeds d2={}", "d_inf", "d2"),
    ("ordering: eq_3_5a={} exceeds eq_1_4={}", "eq_3_5a", "eq_1_4"),
    ("ordering: eq_3_11a={} exceeds eq_1_5={}", "eq_3_11a", "eq_1_5"),
    ("ordering: eq_3_5f={} exceeds eq_1_7={}", "eq_3_5f", "eq_1_7"),
    ("sandwich: lower estimate {} exceeds excess {}", "sun_3_7", "excess"),
    ("sandwich: upper estimate {} is below excess {}", "henrici_3_6", "excess"),
    ("hermitian: eq_4_6a={} exceeds eq_1_6={}", "eq_4_6a", "eq_1_6"),
    ("hermitian: eq_4_6b={} exceeds eq_1_8={}", "eq_4_6b", "eq_1_8"),
    ("hermitian: eq_4_6c={} exceeds eq_1_9={}", "eq_4_6c", "eq_1_9"),
    ("hermitian: eq_4_6c={} exceeds eq_1_6={}", "eq_4_6c", "eq_1_6"),
    ("hermitian: eq_4_6b={} exceeds triangle={}", "eq_4_6b", "triangle"),
    ("hermitian: eq_4_6c={} exceeds triangle={}", "eq_4_6c", "triangle"),
    ("hermitian: thm_4_3_a={} is below excess {}", "thm_4_3_a", "excess"),
    ("hermitian: thm_4_3_b={} is below excess {}", "thm_4_3_b", "excess"),
    ("hermitian: thm_4_3 variants differ: {} vs {}", "thm_4_3_a", "thm_4_3_b"),
)


@pytest.mark.parametrize("kind, checks", [("hermitian", 15), ("normal", 6)])
def test_every_check_reports_its_operands_in_caller_units(kind, checks, monkeypatch):
    # each planted catalog value is marked applicable, on a normal A too:
    # the Hermitian-only checks must still run on a Hermitian A only
    evaluate_block = campaigns._evaluate_block
    exponents = []

    def planted(k, stacks):
        st = evaluate_block(k, stacks)
        for label, value in PLANTED_OPERANDS.items():
            if label in CATALOG_IDS:
                col = CATALOG_IDS.index(label)
                st.values[:, col], st.applicable[:, col] = value, True
            else:
                setattr(st, label, np.full(k, value))
        assert st.hermitian.all() == (kind == "hermitian") == st.hermitian.any()
        exponents.append(st.exponent.tolist())
        return st

    def expected(exponent: int) -> list:
        unit = PLANTED_OPERANDS | {"triangle": PLANTED_OPERANDS["e_norm"] + PLANTED_OPERANDS["excess"]}
        return [
            message.format(*(repr(math.ldexp(unit[label], exponent)) for label in operands))
            for message, *operands in CHECK_MESSAGES[:checks]
        ]

    monkeypatch.setattr(campaigns, "_evaluate_block", planted)
    # E dominates A, so each trial's unit scale is far from its caller's
    config = CampaignConfig(trials=2, kind=kind, seed=42, perturbation_scale=2.0**40)
    summary = run_campaign(config)
    [chunk_exponents] = exponents
    assert all(exponent > 30 for exponent in chunk_exponents)
    # trial by trial, then check by check
    reported = [{"trial": i, "message": m} for i, e in enumerate(chunk_exponents) for m in expected(e)]
    assert summary.check_failure_count == len(reported) == 2 * checks
    assert list(summary.check_failure_samples) == reported[: campaigns._SAMPLE_CAP]
    for i, exponent in enumerate(chunk_exponents):
        assert list(run_trial(config, i).check_failures) == expected(exponent)
        assert exponents[-1] == [exponent]


def _reported(d2, d_inf, values) -> tuple:
    """A trial's d2, d_inf and catalog values as their bits."""
    return repr(d2), repr(d_inf), {bid: repr(v) for bid, v in values.items()}


@pytest.mark.parametrize("kind", KINDS)
def test_a_replayed_pair_gives_the_campaign_values(kind, monkeypatch):
    # a drawn case carries what the campaign's draw carries, a planted
    # spectrum of A included, so evaluate_all on it equals the trial bit
    # for bit for every kind.  The spectrum of a normal or hermitian A is
    # a function of A alone, so bounds on such a drawn pair, through a
    # case of its own, equals the trial bit for bit too; seed 42's 220
    # normal trials include one whose pencil falls back to eigvals.  A
    # normal-blocked trial takes the planted spectrum, which make_case
    # computes instead (a few of these 440 replays by eigvals): they
    # agree within 1e-13 (1 + ||A||_F + ||E||_F), about 4e-15 here
    fallbacks = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: fallbacks.append(len(m)) or eigvals(m))
    blocked = kind == "normal-blocked"
    config = CampaignConfig(trials=440 if blocked else 220, kind=kind, seed=42)
    for i in range(config.trials):
        drawn = random_case(EnsembleSpec(n=config.trial_size(i), kind=kind, seed=derive_trial_seed(config.seed, i)))
        record = run_trial(config, i)
        trial = _reported(record.d2, record.d_inf, record.values)
        report = evaluate_all(drawn)
        assert _reported(report.d2, report.d_inf, {bv.id: bv.value for bv in report.bounds}) == trial
        replayed = evaluate_all(make_case(drawn.a, drawn.e))
        replayed_values = {bv.id: bv.value for bv in replayed.bounds}
        if not blocked:
            assert _reported(replayed.d2, replayed.d_inf, replayed_values) == trial
            continue
        tol = 1e-13 * (1.0 + frobenius_norm(drawn.a) + frobenius_norm(drawn.e))
        assert abs(replayed.d2 - record.d2) <= tol
        assert abs(replayed.d_inf - record.d_inf) <= tol
        for bid, value in record.values.items():
            assert (replayed_values[bid] is None) == (value is None), bid
            assert value is None or abs(replayed_values[bid] - value) <= tol, bid
    assert bool(fallbacks) == (kind != "hermitian")


def test_only_a_blocked_campaign_makes_no_eigensolve_of_a(monkeypatch):
    # a normal-blocked case carries the spectrum of A it was built from;
    # the normal and hermitian campaigns solve for it, and make_case never
    # carries one, not even on a blocked draw's matrices
    calls = dict.fromkeys(("pencil", "eigvalsh"), 0)

    def counted(name, f):
        def spy(*args):
            calls[name] += 1
            return f(*args)

        return spy

    monkeypatch.setattr(bounds, "_normal_spectra", counted("pencil", bounds._normal_spectra))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    seen = {}
    for kind in KINDS:
        calls.update(pencil=0, eigvalsh=0)
        run_campaign(CampaignConfig(trials=220, kind=kind, seed=42))
        seen[kind] = dict(calls)
    assert seen["normal-blocked"] == {"pencil": 0, "eigvalsh": 0}
    assert seen["normal"]["pencil"] > 0
    assert seen["hermitian"]["eigvalsh"] > 0
    drawn = random_case(EnsembleSpec(n=5, kind="normal-blocked", seed=42))
    assert drawn._cases.spectrum is not None
    assert make_case(drawn.a, drawn.e)._cases.spectrum is None


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
    # d_inf exceeds it (check failures).  Chunks of 3 trials of each size
    # cut the campaign into 8 chunks of 33, so the capped samples must be
    # carried across chunks.
    original = bounds.optimal_match

    def scaled(*args, **kwargs):
        match = original(*args, **kwargs)
        return dataclasses.replace(match, d2=match.d2 * d2_factor)

    monkeypatch.setattr(bounds, "optimal_match", scaled)
    monkeypatch.setattr(campaigns, "_CHUNK_CAP", 3)
    config = CampaignConfig(trials=11 * 24, n_min=2, n_max=12, kind=kind, seed=5)
    assert all(len(chunk) == 33 for chunk in campaigns._chunks(config))
    summary = run_campaign(config)
    collected, rows = _campaign_rows(config)
    assert repr(collected) == repr(summary)
    records = [run_trial(config, i) for i in range(config.trials)]
    assert rows == [_fields(rec) for rec in records]
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
