import csv
import dataclasses
import json
import math

import jsonschema
import numpy as np
import pytest

from spectra_perturb import CATALOG_IDS, bounds, cli, matrix_from_json, save_matrix
from spectra_perturb.cli import REPORT_SCHEMA, SEED_ENV_VAR, main


@pytest.fixture
def intro_paths(tmp_path):
    a_path = tmp_path / "A.json"
    e_path = tmp_path / "E.json"
    save_matrix(a_path, np.array([[0.0, 0.0], [0.0, 3.0]]))
    save_matrix(e_path, np.array([[-1.0, -1.0], [1.0, -2.0]]))
    return str(a_path), str(e_path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_json_report(intro_paths, capsys):
    a, e = intro_paths
    code, out, _ = run(["bounds", "--a", a, "--e", e], capsys)
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert abs(report["d2"] - 3.0) < 1e-9
    assert abs(report["d_inf"] - 3.0) < 1e-9
    assert report["violations"] == []
    assert len(report["bounds"]) == 31
    by_id = {item["id"]: item for item in report["bounds"]}
    assert by_id["hoffman_wielandt"]["value"] is None
    assert not by_id["hoffman_wielandt"]["applicable"]
    assert abs(by_id["eq_1_4"]["value"] - math.sqrt(14.0)) < 1e-12
    # A is Hermitian, so the Hermitian-only entries are on by default
    assert by_id["eq_4_6e"]["applicable"]
    assert report["case"]["a_is_hermitian"] is True
    assert report["case"]["include_hermitian"] is True


def test_bounds_csv_report(intro_paths, capsys):
    a, e = intro_paths
    code, out, _ = run(["bounds", "--a", a, "--e", e, "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(out.strip().splitlines()))
    assert rows[0] == ["id", "family", "value", "applicable"]
    assert rows[1][0] == "d2" and rows[1][1] == "metric"
    assert abs(float(rows[1][2]) - 3.0) < 1e-9
    assert rows[2][0] == "d_inf"
    assert len(rows) == 3 + 31
    hw = [r for r in rows if r[0] == "hoffman_wielandt"][0]
    assert hw[2] == "" and hw[3] == "False"


def test_bounds_out_file(intro_paths, capsys, tmp_path):
    a, e = intro_paths
    target = tmp_path / "report.json"
    code, out, _ = run(["bounds", "--a", a, "--e", e, "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)


def test_bounds_unwritable_out_is_exit_two(intro_paths, capsys, tmp_path):
    a, e = intro_paths
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(["bounds", "--a", a, "--e", e, "--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err


def test_bounds_unwritable_out_fails_before_loading(intro_paths, capsys, tmp_path, monkeypatch):
    def load(*args, **kwargs):
        raise AssertionError("the matrices were loaded")

    monkeypatch.setattr(cli, "load_matrix", load)
    a, e = intro_paths
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(["bounds", "--a", a, "--e", e, "--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: [Errno ") and str(target) in err


def test_bounds_zero_perturbation(tmp_path, capsys):
    a_path, e_path = tmp_path / "A.json", tmp_path / "E.json"
    save_matrix(a_path, np.diag([1.0, 2.0, -1.0]))
    save_matrix(e_path, np.zeros((3, 3)))
    code, out, _ = run(["bounds", "--a", str(a_path), "--e", str(e_path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["d2"] == 0.0
    assert report["violations"] == []


def test_bounds_dump_schur(intro_paths, capsys):
    a, e = intro_paths
    code, out, _ = run(["bounds", "--a", a, "--e", e, "--dump-schur"], capsys)
    assert code == 0
    report = json.loads(out)
    schur = report["schur"]
    q = matrix_from_json(schur["q"])
    t = matrix_from_json(schur["t"])
    a_tilde = np.array([[-1.0, -1.0], [1.0, 1.0]], dtype=complex)
    assert np.allclose(q @ t @ q.conj().T, a_tilde, atol=1e-12)
    assert np.allclose(np.tril(t, -1), 0.0, atol=1e-12)
    lam = [complex(re, im) for re, im in schur["eigenvalues"]]
    assert len(lam) == 2 and all(abs(z) < 1e-12 for z in lam)


def test_bounds_dump_schur_rejects_csv(intro_paths, capsys):
    a, e = intro_paths
    code, _, err = run(["bounds", "--a", a, "--e", e, "--dump-schur", "--format", "csv"], capsys)
    assert code == 2
    assert "error" in err


def test_bounds_corrupt_input(tmp_path, capsys):
    a_path, e_path = tmp_path / "A.json", tmp_path / "E.json"
    a_path.write_text("this is not json")
    save_matrix(e_path, np.zeros((2, 2)))
    code, _, err = run(["bounds", "--a", str(a_path), "--e", str(e_path)], capsys)
    assert code == 2
    assert "cannot load" in err


def test_bounds_integer_beyond_float_range_is_input_error(tmp_path, capsys):
    a_path, e_path = tmp_path / "A.json", tmp_path / "E.json"
    a_path.write_text('{"n": 1, "entries": [[1' + "0" * 400 + ', 0]]}')
    save_matrix(e_path, np.zeros((1, 1)))
    code, _, err = run(["bounds", "--a", str(a_path), "--e", str(e_path)], capsys)
    assert code == 2
    assert "error: cannot load matrices" in err
    assert "entry 0 is not finite" in err


def test_bounds_load_error_names_the_bad_file(tmp_path, capsys):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    save_matrix(good, np.eye(2))
    bad.write_text('{"n": 2, "entries": [[1, 0], [0, 0], [NaN, 0], [1, 0]]}')
    for argv, named, other in (
        (["--a", str(bad), "--e", str(good)], bad, good),
        (["--a", str(good), "--e", str(bad)], bad, good),
    ):
        code, _, err = run(["bounds", *argv], capsys)
        assert code == 2
        assert f"error: cannot load matrices: {named}: entry 2 is not finite" in err
        assert str(other) not in err


def test_bounds_oversized_integer_literal_names_its_file(tmp_path, capsys):
    # beyond Python's default int-string limit (4,300 digits), json.load
    # itself raises ValueError
    a_path, e_path = tmp_path / "A.json", tmp_path / "E.json"
    a_path.write_text('{"n": 1, "entries": [[1' + "0" * 5000 + ', 0]]}')
    save_matrix(e_path, np.zeros((1, 1)))
    code, _, err = run(["bounds", "--a", str(a_path), "--e", str(e_path)], capsys)
    assert code == 2
    assert f"error: cannot load matrices: {a_path}: " in err
    assert "Traceback" not in err


def test_bounds_missing_file(tmp_path, capsys):
    e_path = tmp_path / "E.json"
    save_matrix(e_path, np.zeros((2, 2)))
    code, _, err = run(["bounds", "--a", str(tmp_path / "nope.json"), "--e", str(e_path)], capsys)
    assert code == 2


def test_bounds_dimension_mismatch(tmp_path, capsys):
    a_path, e_path = tmp_path / "A.json", tmp_path / "E.json"
    save_matrix(a_path, np.eye(3))
    save_matrix(e_path, np.zeros((2, 2)))
    code, _, err = run(["bounds", "--a", str(a_path), "--e", str(e_path)], capsys)
    assert code == 2
    assert "mismatch" in err


def test_bounds_rejects_nonnormal_base(tmp_path, capsys):
    a_path, e_path = tmp_path / "A.json", tmp_path / "E.json"
    save_matrix(a_path, np.array([[0.0, 1.0], [0.0, 0.0]]))
    save_matrix(e_path, np.zeros((2, 2)))
    code, _, err = run(["bounds", "--a", str(a_path), "--e", str(e_path)], capsys)
    assert code == 2
    assert "not normal" in err


def test_bounds_hermitian_flag_requires_hermitian_base(tmp_path, capsys):
    a_path, e_path = tmp_path / "A.json", tmp_path / "E.json"
    save_matrix(a_path, np.diag([1.0j, 2.0]))  # normal but not Hermitian
    save_matrix(e_path, np.zeros((2, 2)))
    code, out, err = run(["bounds", "--a", str(a_path), "--e", str(e_path)], capsys)
    assert code == 0  # fine without the flag
    code, _, err = run(
        ["bounds", "--a", str(a_path), "--e", str(e_path), "--hermitian"], capsys
    )
    assert code == 2
    assert "Hermitian" in err


def test_bounds_hermitian_flag_leaves_the_report_unchanged(intro_paths, capsys):
    # on a Hermitian A the flag only checks A: the Hermitian-only entries run anyway
    a, e = intro_paths
    reports = []
    for flags in ([], ["--hermitian"]):
        code, out, _ = run(["bounds", "--a", a, "--e", e, "--dump-schur", *flags], capsys)
        assert code == 0
        report = json.loads(out)
        del report["timing_ms"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["case"]["include_hermitian"] is True


def test_bounds_reports_violations_with_exit_one(intro_paths, capsys, monkeypatch):
    # a d2 far above every bound, as an inconsistent oracle would report
    original = bounds.optimal_match

    def inflated(*args):
        match = original(*args)
        return dataclasses.replace(match, d2=10.0 * match.d2)

    monkeypatch.setattr(bounds, "optimal_match", inflated)
    a, e = intro_paths
    code, out, _ = run(["bounds", "--a", a, "--e", e], capsys)
    assert code == 1
    report = json.loads(out)
    assert len(report["violations"]) > 0
    assert "henrici_3_6" not in report["violations"]


def test_bounds_violations_still_write_the_out_file(intro_paths, capsys, tmp_path, monkeypatch):
    original = bounds.optimal_match

    def inflated(*args):
        match = original(*args)
        return dataclasses.replace(match, d2=10.0 * match.d2)

    monkeypatch.setattr(bounds, "optimal_match", inflated)
    a, e = intro_paths
    target = tmp_path / "report.json"
    code, out, _ = run(["bounds", "--a", a, "--e", e, "--out", str(target)], capsys)
    assert code == 1 and out == ""
    assert json.loads(target.read_text())["violations"]


def test_bounds_failure_leaves_no_out_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    target = tmp_path / "report.json"
    code, _, err = run(["bounds", "--a", missing, "--e", missing, "--out", str(target)], capsys)
    assert code == 2 and "cannot load matrices" in err
    assert not target.exists()
    # a file that was there before the run is left as it was
    target.write_text("earlier report")
    code, _, _ = run(["bounds", "--a", missing, "--e", missing, "--out", str(target)], capsys)
    assert code == 2 and target.read_text() == "earlier report"


def test_tightness_failed_campaign_leaves_no_csv(tmp_path, capsys, monkeypatch):
    def campaign(*args, **kwargs):
        raise ValueError("campaign failed")

    monkeypatch.setattr(cli, "run_campaign", campaign)
    target = tmp_path / "trials.csv"
    code, out, err = run(["tightness", "--trials", "4", "--out", str(target)], capsys)
    assert code == 2 and out == "" and "campaign failed" in err
    assert not target.exists()

    def inconsistent(*args, **kwargs):
        raise bounds.NumericalConsistencyError("inconsistent case")

    monkeypatch.setattr(cli, "run_campaign", inconsistent)
    with pytest.raises(bounds.NumericalConsistencyError):
        main(["tightness", "--trials", "4", "--out", str(target)])
    assert not target.exists()
    target.write_text("earlier trials")
    with pytest.raises(bounds.NumericalConsistencyError):
        main(["tightness", "--trials", "4", "--out", str(target)])
    assert target.read_text() == "earlier trials"


BAD_TOLERANCES = ["nan", "inf", "0", "-1"]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_bounds_rejects_invalid_tolerance(intro_paths, capsys, tmp_path, tol):
    a, e = intro_paths
    code, out, err = run(["bounds", "--a", a, "--e", e, "--tol", tol], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "finite and positive" in err
    # refused before any matrix is loaded
    missing = str(tmp_path / "missing.json")
    code, _, err = run(["bounds", "--a", missing, "--e", missing, "--tol", tol], capsys)
    assert code == 2 and "finite and positive" in err


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_verify_rejects_invalid_tolerance(capsys, tol):
    code, out, err = run(["verify", "--trials", "2", "--tol", tol], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "finite and positive" in err


def test_verify_smoke(capsys):
    code, out, _ = run(
        ["verify", "--trials", "5", "--n-min", "2", "--n-max", "4", "--seed", "7"], capsys
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["trials"] == 5
    assert summary["violation_count"] == 0
    assert summary["check_failure_count"] == 0
    assert summary["kind"] == "normal"


def test_verify_rejects_bad_tolerance(capsys):
    code, _, err = run(["verify", "--trials", "2", "--tol", "-1.0"], capsys)
    assert code == 2


def test_verify_rejects_bad_range(capsys):
    code, _, err = run(["verify", "--trials", "2", "--n-min", "5", "--n-max", "3"], capsys)
    assert code == 2


def test_verify_bad_kind_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", "2", "--kind", "unitary"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_tightness_csv_and_histogram(tmp_path, capsys):
    out_path = tmp_path / "trials.csv"
    code, out, _ = run(
        [
            "tightness", "--trials", "6", "--n-min", "3", "--n-max", "5",
            "--kind", "hermitian", "--seed", "11", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(out_path.read_text().strip().splitlines()))
    assert rows[0] == ["trial", "n", "kind", "d2", *CATALOG_IDS, "violation"]
    assert len(rows) == 1 + 6
    sizes = [int(r[1]) for r in rows[1:]]
    assert sizes == [3, 4, 5, 3, 4, 5]  # round-robin over the size range
    assert all(r[2] == "hermitian" for r in rows[1:])
    assert all(r[-1] == "0" for r in rows[1:])
    # inapplicable entries are empty fields, applicable ones parse as floats
    d2s = [float(r[3]) for r in rows[1:]]
    assert all(v > 0 for v in d2s)
    hist = list(csv.reader(out.strip().splitlines()))
    assert hist[0] == ["id", "wins", "max_slack"]
    assert sum(int(r[1]) for r in hist[1:]) == 6


def test_tightness_unwritable_out_fails_before_the_campaign(tmp_path, capsys, monkeypatch):
    def campaign(*args, **kwargs):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(cli, "run_campaign", campaign)
    target = tmp_path / "missing" / "trials.csv"
    code, out, err = run(["tightness", "--trials", "4", "--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err


def test_fixture_writes_files(tmp_path, capsys):
    code, _, _ = run(
        ["fixture", "--name", "intro_2x2", "--out-dir", str(tmp_path / "fx")], capsys
    )
    assert code == 0
    a = matrix_from_json(json.loads((tmp_path / "fx" / "A.json").read_text()))
    e = matrix_from_json(json.loads((tmp_path / "fx" / "E.json").read_text()))
    assert np.array_equal(a + e, np.array([[-1, -1], [1, 1]], dtype=complex))
    expected = json.loads((tmp_path / "fx" / "expected.json").read_text())
    assert expected["d2"] == 3.0

    # the written pair round-trips through the bounds subcommand
    code, out, _ = run(
        ["bounds", "--a", str(tmp_path / "fx" / "A.json"), "--e", str(tmp_path / "fx" / "E.json")],
        capsys,
    )
    assert code == 0
    assert abs(json.loads(out)["d2"] - expected["d2"]) < 1e-9


def test_fixture_out_dir_that_is_a_file_is_exit_two(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("")
    code, _, err = run(["fixture", "--name", "intro_2x2", "--out-dir", str(target)], capsys)
    assert code == 2
    assert err.startswith("error: ") and str(target) in err


def test_fixture_size_validation(tmp_path, capsys):
    code, _, err = run(
        ["fixture", "--name", "example_4_4", "--n", "2", "--out-dir", str(tmp_path)], capsys
    )
    assert code == 2


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "123")
    code, out_env, _ = run(["verify", "--trials", "3", "--n-max", "4"], capsys)
    assert code == 0
    monkeypatch.delenv(SEED_ENV_VAR)
    code, out_flag, _ = run(["verify", "--trials", "3", "--n-max", "4", "--seed", "123"], capsys)
    assert code == 0
    assert json.loads(out_env) == json.loads(out_flag)


def test_seed_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    code, _, err = run(["verify", "--trials", "2"], capsys)
    assert code == 2
    assert SEED_ENV_VAR in err
