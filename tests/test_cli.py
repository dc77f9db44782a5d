import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from spectra_perturb import CATALOG_IDS, bounds, campaigns, cli, matrix_from_json, save_matrix
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


def test_main_answers_every_call_of_a_process_as_a_fresh_process(intro_paths, capsys):
    # main builds one parser per process; every call, also one after a
    # usage error, gives a fresh interpreter's report and exit code
    a, e = intro_paths
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    commands = (["bounds", "--a", a, "--e", e, "--format", "csv"], ["verify", "--trials", "5", "--seed", "7"])
    for argv in commands:
        # bytes, so that the CSV's \r\n line ends are compared as written
        fresh = subprocess.run(
            [sys.executable, "-m", "spectra_perturb", *argv], env=env, capture_output=True, timeout=120
        )
        assert fresh.returncode == 0, fresh.stderr
        for _ in range(2):
            assert run(argv, capsys) == (fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode())
            with pytest.raises(SystemExit) as exc:
                main(["bounds", "--a", a])
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith("usage: spectra-perturb bounds")
    assert cli._build_parser() is cli._build_parser()


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


def test_bounds_file_nested_past_the_recursion_limit_is_an_input_error(tmp_path, capsys):
    a_path, e_path = tmp_path / "A.json", tmp_path / "E.json"
    a_path.write_text('{"n": 1, "entries": [[1, 0]], "note": NaN, "deep": ' + "[" * 3000 + "]" * 3000 + "}")
    save_matrix(e_path, np.zeros((1, 1)))
    code, _, err = run(["bounds", "--a", str(a_path), "--e", str(e_path)], capsys)
    assert code == 2
    assert f"error: cannot load matrices: {a_path}: not valid JSON" in err
    assert "Traceback" not in err


def test_bounds_file_nested_past_orjson_stack_is_an_input_error(tmp_path):
    a_path, e_path = tmp_path / "A.json", tmp_path / "E.json"
    a_path.write_text('{"n": 1, "entries": [[1, 0]], "deep": ' + "[" * 300_000 + "]" * 300_000 + "}")
    save_matrix(e_path, np.zeros((1, 1)))
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "spectra_perturb", "bounds", "--a", str(a_path), "--e", str(e_path)]
    # a shell that sets the child's core file limit to 0, so the crash leaves no core file
    done = subprocess.run(
        ["sh", "-c", 'ulimit -c 0 && exec "$@"', "sh", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2, done.returncode
    assert f"error: cannot load matrices: {a_path}: " in done.stderr


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


def _bounds_report(tmp_path, capsys, a, e, name):
    a_path, e_path = tmp_path / f"A-{name}.json", tmp_path / f"E-{name}.json"
    save_matrix(a_path, a)
    save_matrix(e_path, e)
    target = tmp_path / f"report-{name}.json"
    code, out, err = run(["bounds", "--a", str(a_path), "--e", str(e_path), "--out", str(target)], capsys)
    return code, out, err, target


@pytest.mark.parametrize("s", [1e80, 1e160])
def test_bounds_accepts_a_pair_whose_fourth_powers_overflow(tmp_path, capsys, s):
    # before pairs were scaled, 1e80 exited 3 with a false "radicand -inf"
    # of sun_3_7 and 1e160 exited 2 with the assignment solver's "cost
    # matrix is infeasible"; then an overflow rule refused both
    a, e = np.diag([1.0, 3.0]), np.array([[0.0, 1.0], [1.0, 0.0]]) / 10
    reports = []
    for factor, name in ((1.0, "unit"), (s, "scaled")):
        code, out, err, target = _bounds_report(tmp_path, capsys, factor * a, factor * e, name)
        assert (code, out, err) == (0, "", "")
        reports.append(json.loads(target.read_text()))
    unit, scaled = reports
    for key in ("d2", "d_inf"):
        assert abs(scaled[key] / s - unit[key]) <= 1e-12 * unit[key]
    for bv, ref in zip(scaled["bounds"], unit["bounds"]):
        assert bv["applicable"] == ref["applicable"]
        if ref["applicable"]:
            assert abs(bv["value"] / s - ref["value"]) <= 1e-12 * ref["value"], bv["id"]


def test_bounds_refuses_a_pair_at_the_entry_limit(tmp_path, capsys):
    limit = math.ldexp(1.0, 990)
    code, out, err, target = _bounds_report(tmp_path, capsys, np.diag([1.0, limit]), np.zeros((2, 2)), "limit")
    assert code == 2 and out == ""
    assert err.startswith("error: the largest real or imaginary entry of A and E is not below 2^990")
    assert not target.exists()


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

    monkeypatch.setattr(cli, "_run_campaign", campaign)
    target = tmp_path / "trials.csv"
    code, out, err = run(["tightness", "--trials", "4", "--out", str(target)], capsys)
    assert code == 2 and out == "" and "campaign failed" in err
    assert not target.exists()

    def inconsistent(*args, **kwargs):
        raise bounds.NumericalConsistencyError("inconsistent case")

    monkeypatch.setattr(cli, "_run_campaign", inconsistent)
    code, out, err = run(["tightness", "--trials", "4", "--out", str(target)], capsys)
    assert code == 3 and out == "" and err == "error: inconsistent case\n"
    assert not target.exists()
    target.write_text("earlier trials")
    code, _, _ = run(["tightness", "--trials", "4", "--out", str(target)], capsys)
    assert code == 3
    assert target.read_text() == "earlier trials"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trials.csv"]


def test_tightness_failing_after_its_first_chunk_leaves_the_earlier_csv(tmp_path, capsys, monkeypatch):
    # rows are streamed chunk by chunk, but only a completed campaign
    # replaces --out; the second chunk of n = 2..3 (256 trials each)
    # raises after the first was written
    original = campaigns._run_chunk

    def second_fails(config, indices):
        if indices[0] > 0:
            raise bounds.NumericalConsistencyError("inconsistent case")
        return original(config, indices)

    monkeypatch.setattr(campaigns, "_run_chunk", second_fails)
    target = tmp_path / "trials.csv"
    target.write_text("earlier trials")
    argv = ["tightness", "--trials", "300", "--n-min", "2", "--n-max", "3", "--out", str(target)]
    code, out, _ = run(argv, capsys)
    assert code == 3 and out == ""
    assert target.read_text() == "earlier trials"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trials.csv"]


def _inconsistent_sun(monkeypatch):
    # sun_3_7's radicand negative beyond round-off on every case
    def sun(nrm, defect):
        return bounds._safe_sqrt(-np.ones_like(nrm), 0.0, "sun_3_7")

    monkeypatch.setattr(bounds, "_sun", sun)


def test_bounds_inconsistent_case_is_exit_three(intro_paths, tmp_path, capsys, monkeypatch):
    _inconsistent_sun(monkeypatch)
    a, e = intro_paths
    target = tmp_path / "report.json"
    code, out, err = run(["bounds", "--a", a, "--e", e, "--out", str(target)], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: sun_3_7") and "negative beyond round-off" in err
    assert not target.exists()


def test_verify_inconsistent_case_is_exit_three(capsys, monkeypatch):
    _inconsistent_sun(monkeypatch)
    code, out, err = run(["verify", "--trials", "4", "--seed", "1"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: trial 0: sun_3_7 (entry 0)")


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


def _refused_as_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --tol" in captured.err


BAD_TOLERANCES = ["nan", "inf", "0", "-1", "-1.0"]
TOL_COMMANDS = {
    "bounds": ["bounds", "--a", "A.json", "--e", "E.json"],
    "verify": ["verify", "--trials", "2"],
    "tightness": ["tightness", "--trials", "2", "--out", "t.csv"],
}


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([*argv, "--tol", tol], id=command if tol == "1e-8" else f"{command}-{tol}")
        for command, argv in TOL_COMMANDS.items()
        for tol in ("1e-8", *BAD_TOLERANCES)
    ],
)
def test_tol_option_is_gone(argv, capsys):
    # the violation slack is a row of the tolerance table, not an option:
    # --tol is refused whatever its value, before any matrix is loaded
    _refused_as_usage_error(argv, capsys)


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


def test_tightness_writes_through_a_symlinked_out(tmp_path, capsys):
    target = tmp_path / "trials.csv"
    target.write_text("earlier trials")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    code, _, _ = run(["tightness", "--trials", "4", "--seed", "3", "--out", str(link)], capsys)
    assert code == 0
    assert link.is_symlink()
    assert target.read_text().startswith("trial,n,kind,d2,")
    assert len(target.read_text().splitlines()) == 1 + 4


def test_tightness_unwritable_out_fails_before_the_campaign(tmp_path, capsys, monkeypatch):
    def campaign(*args, **kwargs):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(cli, "_run_campaign", campaign)
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
