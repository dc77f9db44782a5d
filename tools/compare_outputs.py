"""``python tools/compare_outputs.py BASE_TREE HEAD_TREE WORK_DIR``: make each output of :func:`runs`
with each tree's ``src/`` and report what differs (README, "Checking a behaviour change")."""

import ast
import csv
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

KINDS = ("normal", "hermitian", "normal-blocked")
CLI = ("-m", "spectra_perturb")
CAMPAIGN = ("--trials", "2200", "--seed", "42")
# sizes n = 2..40, ten trials each, for what is cached per size
SIZES = ("--n-min", "2", "--n-max", "40", "--trials", "390", "--seed", "7")
# the worked examples; a seeded Hermitian A with a unit-norm E at n = 128 (the load path at large n)
# and with E = -A + G1 G2 of rank 8 at n = 64 (the SVD's rank, not the Schur certificate's); intro_2x2
# times 1e-8 (A + E not normal) and the seed-1 normal draw at n = 4 times 1e-11 (A not Hermitian), whose
# structure must not depend on scale; intro_2x2 times 1e-170 and 1e160, which must not under- or overflow
FIXTURES = ("intro_2x2", "example_4_4", "phi_example", "large_128", "rank_8_64", "intro_2x2_1e-8",
            "normal_4_1e-11", "intro_2x2_1e-170", "intro_2x2_1e160")
MAKE_FIXTURES = """
import pathlib, sys
import numpy as np
from spectra_perturb import EnsembleSpec, fixture_matrices, random_case, save_matrix
def gauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
def hermitian(g):
    return (g + g.conj().T) / (2 * np.sqrt(len(g)))
pairs = {name: fixture_matrices(name) for name in ("intro_2x2", "example_4_4", "phi_example")}
rng = np.random.default_rng(128)
a, e = hermitian(gauss(rng, 128, 128)), gauss(rng, 128, 128)
pairs["large_128"] = a, e / np.linalg.norm(e)
rng = np.random.default_rng(64)
a = hermitian(gauss(rng, 64, 64))
pairs["rank_8_64"] = a, -a + gauss(rng, 64, 8) @ gauss(rng, 8, 64)
a, e = pairs["intro_2x2"]
for scale in ("1e-8", "1e-170", "1e160"):
    pairs[f"intro_2x2_{scale}"] = float(scale) * a, float(scale) * e
case = random_case(EnsembleSpec(n=4, kind="normal", seed=1))
pairs["normal_4_1e-11"] = 1e-11 * case.a, 1e-11 * case.e
for name, (a, e) in pairs.items():
    out = pathlib.Path(sys.argv[1]) / name
    out.mkdir(parents=True, exist_ok=True)
    save_matrix(out / "A.json", a)
    save_matrix(out / "E.json", e)
"""
# E scaled to 1e-6, where the rounding of a draw's E shows in its summary, and to 1e-12, where a
# tolerance floor that does not scale would show (the CLI has no scale flag); at seed 1 and 1e-6 a
# blocked trial's excess is below the ulp that a cancelling excess estimate leaves; argv: kind, scale, seed
SCALED_VERIFY = """
import json, sys
from spectra_perturb import CampaignConfig, run_campaign
config = CampaignConfig(trials=2200, seed=int(sys.argv[3]), kind=sys.argv[1], perturbation_scale=float(sys.argv[2]))
print(json.dumps(run_campaign(config).as_dict(), indent=2))
"""
# 2,200 Hermitian trials at seed 42 with d2 planted at a factor of its value, so that a moved verdict shows:
# times 2, distance bounds fall below it (violations); times 0.5, d_inf exceeds it (the metric check); argv: factor
PLANTED_VERIFY = """
import dataclasses, json, sys
from spectra_perturb import CampaignConfig, bounds, run_campaign
match, factor = bounds.optimal_match, float(sys.argv[1])
def planted(*args):
    found = match(*args)
    return dataclasses.replace(found, d2=found.d2 * factor)
bounds.optimal_match = planted
print(json.dumps(run_campaign(CampaignConfig(trials=2200, seed=42, kind="hermitian")).as_dict(), indent=2))
"""


def runs(fixtures: Path) -> list:
    """Each output as (file name, arguments to ``python``)."""
    table = [("tightness-normal-blocked-zero.csv",
              (*CLI, "tightness", *CAMPAIGN, "--kind", "normal-blocked", "--trace-mode", "zero"))]
    for kind in KINDS:
        table += [(f"verify-{kind}.json", (*CLI, "verify", *CAMPAIGN, "--kind", kind)),
                  (f"tightness-{kind}.csv", (*CLI, "tightness", *CAMPAIGN, "--kind", kind)),
                  (f"tightness-{kind}-jobs2.csv", (*CLI, "tightness", *CAMPAIGN, "--kind", kind, "--jobs", "2")),
                  # the generators' zero-trace branches
                  (f"verify-{kind}-zero.json", (*CLI, "verify", *CAMPAIGN, "--kind", kind, "--trace-mode", "zero")),
                  (f"verify-{kind}-n40.json", (*CLI, "verify", *SIZES, "--kind", kind)),
                  (f"tightness-{kind}-n40.csv", (*CLI, "tightness", *SIZES, "--kind", kind))]
        table += [(f"verify-{kind}-scale-{scale}.json", ("-c", SCALED_VERIFY, kind, scale, "42"))
                  for scale in ("1e-6", "1e-12")]
    table.append(("verify-normal-blocked-scale-1e-6-seed-1.json", ("-c", SCALED_VERIFY, "normal-blocked", "1e-6", "1")))
    table += [(f"verify-hermitian-d2-times-{factor}.json", ("-c", PLANTED_VERIFY, factor)) for factor in ("2", "0.5")]
    for name in FIXTURES:
        pair = ("--a", str(fixtures / name / "A.json"), "--e", str(fixtures / name / "E.json"))
        table.append((f"bounds-{name}.csv", (*CLI, "bounds", "--format", "csv", *pair)))
    return sorted(table)


def python(tree: Path, args, stdout) -> int:
    """Run ``python ARGS`` on ``tree``'s package; the exit status as a shell gives it."""
    status = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                            stdout=stdout).returncode
    return status if status >= 0 else 128 - status


def _relative(x, y) -> float:
    """|x - y| / max(|x|, |y|), 0 for two zeros, and inf unless both are numbers."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y)) if x or y else 0.0


def _summary(path: Path):
    body, _, status = path.read_text(encoding="utf-8").rpartition("exit ")
    try:
        return json.loads(body), status.strip()
    except ValueError:
        return body, status.strip()


def _moved(a, b, path=()):
    """(dotted key, base value, head value) for each value that differs, down to the sub-key."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from _moved(a.get(key), b.get(key), path + (key,))
    elif a != b:
        yield ".".join(path) or "(not a JSON summary)", a, b


def summary_line(base: Path, head: Path) -> str:
    """The report line on two differing verify outputs."""
    (base, base_status), (head, head_status) = _summary(base), _summary(head)
    changes = list(_moved(base, head))
    keys = [key for key, _, _ in changes]
    if base_status != head_status:
        keys.append(f"exit status {base_status} -> {head_status}")
    largest = max((_relative(x, y) for _, x, y in changes), default=0.0)
    return f"  - keys that differ: {', '.join(f'`{k}`' for k in keys)}; largest relative difference: {largest:.3g}"


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def csv_line(base: Path, head: Path) -> str:
    """The report line on two differing tightness CSVs."""
    with open(base, encoding="utf-8", newline="") as b, open(head, encoding="utf-8", newline="") as h:
        base, head = list(csv.reader(b)), list(csv.reader(h))
    if len(base) != len(head):
        return f"  - row count {len(base)} -> {len(head)}"
    moved = [(a, b) for a, b in zip(base, head) if a != b]
    largest = max((_relative(_cell(x), _cell(y)) for a, b in moved for x, y in zip(a, b) if x != y), default=0.0)
    return f"  - rows that differ: {len(moved)}; largest relative difference: {largest:.3g}"


def source_size(tree: Path) -> tuple:
    """(total, code, docstring and comment, blank) lines of the ``.py`` files under ``tree/src``, counted
    as ``wc -l`` does; a line in a docstring, or one that starts with ``#``, is a docstring or comment line."""
    total = notes = blank = 0
    for path in sorted((tree / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")[:text.count("\n")]
        commentary = {number for number, line in enumerate(lines, 1) if line.lstrip().startswith("#")}
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and ast.get_docstring(node, clean=False) is not None:
                commentary.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        total += len(lines)
        notes += sum(number in commentary for number in range(1, len(lines) + 1))
        blank += sum(not line.strip() and number not in commentary for number, line in enumerate(lines, 1))
    return total, total - notes - blank, notes, blank


# prints the seconds an import of the package takes, then the scipy and concurrent.futures modules it loaded
FRESH_IMPORT = (
    "import sys, time; t = time.perf_counter(); import spectra_perturb; print(time.perf_counter() - t); "
    "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')))"
)


def fresh_import(tree: Path) -> str:
    """The report lines on five fresh ``import spectra_perturb`` of ``tree/src``: their median time and
    the ``scipy`` and ``concurrent.futures`` modules the first one loaded."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    outputs = [subprocess.run([sys.executable, "-c", FRESH_IMPORT], env=env, capture_output=True, text=True,
                              check=True).stdout.split("\n") for _ in range(5)]
    median_ms = 1000 * statistics.median(float(out[0]) for out in outputs)
    return "\n".join([
        "### A fresh `import spectra_perturb`",
        f"Median of 5: {median_ms:.0f} ms.",
        "Its `scipy` and `concurrent.futures` modules: " + ", ".join(f"`{m}`" for m in outputs[0][1].split()),
    ])


# prints, as JSON, each kind's median time in ms of 20 in-process run_campaign calls at 11 and at 220 trials,
# each after one warm-up call: {kind: [ms at 11, ms at 220]}
CAMPAIGN_TIMES = """
import json, statistics, time
from spectra_perturb import CampaignConfig, run_campaign
medians = {}
for kind in ("normal", "normal-blocked"):
    for trials in (11, 220):
        times = []
        for i in range(21):
            config = CampaignConfig(trials=trials, kind=kind, seed=(42 << 32) | (i << 8))
            start = time.perf_counter()
            run_campaign(config)
            times.append(time.perf_counter() - start)
        medians.setdefault(kind, []).append(1000 * statistics.median(times[1:]))
print(json.dumps(medians))
"""


def campaign_intercept(tree: Path) -> str:
    """The report lines on in-process ``run_campaign`` calls of ``tree/src``, in one process: each kind's
    median call time at 11 and 220 trials (n = 2..12, one and twenty trials of each size), and the fixed
    cost of a call and the cost of a trial that the two give."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run([sys.executable, "-c", CAMPAIGN_TIMES], env=env, capture_output=True, text=True,
                         check=True).stdout
    lines = ["### In-process `run_campaign` calls (median of 20)"]
    for kind, (few, many) in json.loads(out).items():
        per_trial = (many - few) / (220 - 11)
        lines.append(f"- `{kind}`: {few:.2f} ms at 11 trials, {many:.2f} ms at 220; "
                     f"fixed {few - 11 * per_trial:.2f} ms, {1000 * per_trial:.1f} us per trial")
    return "\n".join(lines)


def main(base: Path, head: Path, work: Path) -> None:
    fixtures = work / "fixtures"
    if python(head, ("-c", MAKE_FIXTURES, str(fixtures)), sys.stderr):
        sys.exit("making the fixtures failed")
    for tree, out in ((base, work / "out-base"), (head, work / "out-head")):
        out.mkdir(parents=True, exist_ok=True)
        for name, args in runs(fixtures):
            tightness = name.startswith("tightness-")  # its CSV goes to --out, its stdout nowhere
            with open(os.devnull if tightness else out / name, "wb") as fh:
                status = python(tree, (*args, "--out", str(out / name)) if tightness else args, fh)
            with open(out / name, "a", encoding="utf-8") as fh:
                fh.write(f"exit {status}\n")
    print("### Lines in `src/`: total (code / docstrings and comments / blank)")
    for label, tree in (("merge base", base), ("HEAD", head)):
        print("- {}: {:,} ({:,} / {:,} / {:,})".format(label, *source_size(tree)))
    print("### `verify`, `tightness` (`--trials 2200 --seed 42`, and `--jobs 2`, and `--trace-mode zero`, and"
          " `--n-max 40 --trials 390 --seed 7`), `verify` summaries at `perturbation_scale` 1e-6 and 1e-12"
          " (and 1e-6 at seed 1), Hermitian `verify` summaries with `d2` planted at 2 and 0.5 times its value,"
          " and `bounds --format csv`: merge base vs HEAD")
    for name, _ in runs(fixtures):
        base_path, head_path = work / "out-base" / name, work / "out-head" / name
        same = base_path.read_bytes() == head_path.read_bytes()
        print(f"- `{name}`: {'identical' if same else 'differs'}")
        if not same and name.startswith("verify-"):
            print(summary_line(base_path, head_path))
        if not same and name.startswith("tightness-"):
            print(csv_line(base_path, head_path))


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: python tools/compare_outputs.py BASE_TREE HEAD_TREE WORK_DIR")
    main(*(Path(arg).resolve() for arg in sys.argv[1:]))
