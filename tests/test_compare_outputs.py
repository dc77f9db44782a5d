"""tools/compare_outputs.py: its table of runs and its report lines, without making the runs."""

import importlib.util
import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _SCRIPT)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

# the files the merge-base comparison writes, in the order of its report
OUTPUTS = [
    "bounds-example_4_4.csv", "bounds-intro_2x2.csv", "bounds-intro_2x2_1e-170.csv", "bounds-intro_2x2_1e-8.csv",
    "bounds-intro_2x2_1e160.csv", "bounds-large_128.csv", "bounds-normal_4_1e-11.csv", "bounds-phi_example.csv",
    "bounds-rank_8_64.csv",
    "tightness-hermitian-jobs2.csv", "tightness-hermitian-n40.csv", "tightness-hermitian.csv",
    "tightness-normal-blocked-jobs2.csv", "tightness-normal-blocked-n40.csv", "tightness-normal-blocked-zero.csv",
    "tightness-normal-blocked.csv", "tightness-normal-jobs2.csv", "tightness-normal-n40.csv", "tightness-normal.csv",
    "verify-hermitian-d2-times-0.5.json", "verify-hermitian-d2-times-2.json",
    "verify-hermitian-n40.json", "verify-hermitian-scale-1e-12.json", "verify-hermitian-scale-1e-6.json",
    "verify-hermitian-zero.json", "verify-hermitian.json", "verify-normal-blocked-n40.json",
    "verify-normal-blocked-scale-1e-12.json", "verify-normal-blocked-scale-1e-6-seed-1.json",
    "verify-normal-blocked-scale-1e-6.json", "verify-normal-blocked-zero.json",
    "verify-normal-blocked.json", "verify-normal-n40.json", "verify-normal-scale-1e-12.json",
    "verify-normal-scale-1e-6.json", "verify-normal-zero.json", "verify-normal.json",
]


def test_the_table_makes_the_37_outputs():
    table = compare_outputs.runs(Path("fixtures"))
    assert [name for name, _ in table] == OUTPUTS
    for name, args in table:
        command = name.split("-")[0]
        if "-scale-" in name:
            seed = "" if args[4] == "42" else f"-seed-{args[4]}"
            assert args[0] == "-c" and name == f"verify-{args[2]}-scale-{args[3]}{seed}.json"
        elif "-d2-times-" in name:
            factor = name.removeprefix("verify-hermitian-d2-times-").removesuffix(".json")
            assert args == ("-c", compare_outputs.PLANTED_VERIFY, factor)
        else:
            assert args[:3] == ("-m", "spectra_perturb", command)
        if command == "bounds":
            fixture = Path("fixtures") / name.removeprefix("bounds-").removesuffix(".csv")
            assert args[3:] == ("--format", "csv", "--a", str(fixture / "A.json"), "--e", str(fixture / "E.json"))
        assert "--out" not in args  # given to a tightness run when it is made


def _verify(summary, status=0) -> str:
    body = summary if isinstance(summary, str) else json.dumps(summary, indent=2) + "\n"
    return body + f"exit {status}\n"


@pytest.mark.parametrize(
    "base, head, line",
    [
        (
            _verify({"counts": {"violation": 0, "trials": 10}, "max_slack": {"eq_1_4": 0.5, "eq_1_5": None}}),
            _verify({"counts": {"violation": 2, "trials": 10}, "max_slack": {"eq_1_4": 0.25, "eq_1_5": None}}),
            "keys that differ: `counts.violation`, `max_slack.eq_1_4`; largest relative difference: 1",
        ),
        (
            _verify({"a": 1, "old": 2}),
            _verify({"a": 1, "new": 3}),
            "keys that differ: `new`, `old`; largest relative difference: inf",
        ),
        (
            _verify({"a": 1}),
            _verify({"a": 1}, status=1),
            "keys that differ: `exit status 0 -> 1`; largest relative difference: 0",
        ),
        (
            _verify({"a": 1}),
            _verify("Traceback (most recent call last):\n", status=1),
            "keys that differ: `(not a JSON summary)`, `exit status 0 -> 1`; largest relative difference: inf",
        ),
        (
            _verify({"a": {"b": 0.1}, "c": 3}),
            _verify({"a": {"b": 0.1 + 2**-56}, "c": 3}),
            "keys that differ: `a.b`; largest relative difference: 1.39e-16",
        ),
        (
            _verify({"ok": True, "n": 5}),
            _verify({"ok": False, "n": 5}),
            "keys that differ: `ok`; largest relative difference: inf",
        ),
    ],
    ids=["nested", "added-and-removed", "exit-status", "not-json", "last-bit", "bool"],
)
def test_summary_line_names_the_keys_that_moved(tmp_path, base, head, line):
    (tmp_path / "base").write_text(base)
    (tmp_path / "head").write_text(head)
    assert compare_outputs.summary_line(tmp_path / "base", tmp_path / "head") == "  - " + line


@pytest.mark.parametrize(
    "base, head, line",
    [
        ("id,d2\n1,0.5\n2,0.25\nexit 0\n", "id,d2\n1,0.5\nexit 0\n", "row count 4 -> 3"),
        (
            "id,d2,kind\n1,0.5,normal\n2,0.25,normal\nexit 0\n",
            "id,d2,kind\n1,0.5000000000000001,normal\n2,0.25,normal\nexit 0\n",
            "rows that differ: 1; largest relative difference: 2.22e-16",
        ),
        (
            "id,d2,kind\n1,0.5,normal\n2,1e-300,normal\nexit 0\n",
            "id,d2,kind\n1,0.5000000000000001,normal\n2,2e-300,normal\nexit 0\n",
            "rows that differ: 2; largest relative difference: 0.5",
        ),
        (
            "id,d2,kind\n1,0.5,normal\nexit 0\n",
            "id,d2,kind\n1,0.5,hermitian\nexit 1\n",
            "rows that differ: 2; largest relative difference: inf",
        ),
        ("id,d2\n1,0.0\n", "id,d2\n1,-0.0\n", "rows that differ: 1; largest relative difference: 0"),
    ],
    ids=["row-count", "last-bit", "moved-cells", "text-cells", "signed-zero"],
)
def test_csv_line_counts_the_rows_that_moved(tmp_path, base, head, line):
    (tmp_path / "base").write_text(base)
    (tmp_path / "head").write_text(head)
    assert compare_outputs.csv_line(tmp_path / "base", tmp_path / "head") == "  - " + line


def test_source_size_splits_the_lines(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        '"""A module.\n\nIts docstring."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "\n"
        "def f():\n"
        '    """One line."""\n'
        "    return X\n"
    )
    (package / "b.py").write_text("Y = 2\n")
    (tmp_path / "src" / "notes.txt").write_text("not\ncounted\n")
    # 12 lines: 3 + 1 docstring lines (the blank one in a docstring too), 1 comment line, 3 blank, 4 code
    assert compare_outputs.source_size(tmp_path) == (12, 4, 5, 3)


def test_fresh_import_reports_the_median_and_the_first_run_modules(monkeypatch):
    seen = []
    outputs = iter(["0.25\nscipy scipy.linalg._flapack\n", "0.125\nscipy\n", "0.5\n\n", "1\n\n", "0.0625\n\n"])

    def run(args, env, **kwargs):
        seen.append((args[1:], env["PYTHONPATH"]))
        return SimpleNamespace(stdout=next(outputs))

    monkeypatch.setattr(compare_outputs.subprocess, "run", run)
    assert compare_outputs.fresh_import(Path("tree")) == (
        "### A fresh `import spectra_perturb`\n"
        "Median of 5: 250 ms.\n"
        "Its `scipy` and `concurrent.futures` modules: `scipy`, `scipy.linalg._flapack`"
    )
    assert seen == [(["-c", compare_outputs.FRESH_IMPORT], str(Path("tree") / "src"))] * 5


def test_fresh_import_runs_on_the_tree():
    title, median, modules = compare_outputs.fresh_import(_SCRIPT.parents[1]).split("\n")
    assert title == "### A fresh `import spectra_perturb`"
    assert re.fullmatch(r"Median of 5: \d+ ms\.", median)
    assert "`scipy.linalg._flapack`" in modules.removeprefix("Its `scipy` and `concurrent.futures` modules: ").split(", ")


def test_campaign_intercept_reports_each_kind_from_its_two_medians(monkeypatch):
    seen = []

    def run(args, env, **kwargs):
        seen.append((args[1:], env["PYTHONPATH"]))
        return SimpleNamespace(stdout=json.dumps({"normal": [6.0, 26.9], "normal-blocked": [5.0, 9.18]}))

    monkeypatch.setattr(compare_outputs.subprocess, "run", run)
    assert compare_outputs.campaign_intercept(Path("tree")).split("\n") == [
        "### In-process `run_campaign` calls (median of 20)",
        "- `normal`: 6.00 ms at 11 trials, 26.90 ms at 220; fixed 4.90 ms, 100.0 us per trial",
        "- `normal-blocked`: 5.00 ms at 11 trials, 9.18 ms at 220; fixed 4.78 ms, 20.0 us per trial",
    ]
    assert seen == [(["-c", compare_outputs.CAMPAIGN_TIMES], str(Path("tree") / "src"))]


def test_campaign_intercept_runs_on_the_tree():
    title, *kinds = compare_outputs.campaign_intercept(_SCRIPT.parents[1]).split("\n")
    assert title == "### In-process `run_campaign` calls (median of 20)"
    number = r"-?\d+\.\d+"
    assert [kind.split("`")[1] for kind in kinds] == ["normal", "normal-blocked"]
    for kind in kinds:
        assert re.fullmatch(
            rf"- `[a-z-]+`: {number} ms at 11 trials, {number} ms at 220; fixed {number} ms, {number} us per trial", kind
        ), kind
