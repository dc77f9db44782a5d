from spectra_perturb import CampaignConfig, run_campaign


def test_jobs_give_identical_summaries():
    # per-trial seeds depend only on (seed, index), so worker processes
    # must reproduce the single-process summary byte for byte
    config = dict(trials=66, n_min=2, n_max=12, kind="hermitian", seed=42)
    serial = run_campaign(CampaignConfig(**config, jobs=1))
    parallel = run_campaign(CampaignConfig(**config, jobs=2))
    assert parallel.as_dict() == serial.as_dict()
