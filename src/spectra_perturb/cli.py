"""Command-line interface.

Four subcommands: ``bounds`` evaluates the catalog on a matrix pair
loaded from JSON files, ``verify`` runs a randomized domination
campaign, ``fixture`` writes a worked example to disk, and ``tightness``
dumps per-trial bound values plus a win histogram.  Exit codes: 0 clean,
1 when any bound violation (or failed campaign check) was observed, 2 on
input errors and on output paths that cannot be written, 3 when a case's
numbers are inconsistent (a ``NumericalConsistencyError``: a quantity
that is nonnegative in exact arithmetic came out negative beyond
round-off).
``SPECTRA_PERTURB_SEED`` supplies the seed when ``--seed`` is absent.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import shutil
import sys
import tempfile
import time

from .bounds import NumericalConsistencyError, evaluate_all, make_case
from .campaigns import CampaignConfig, _run_campaign, _trials_csv, run_campaign
from .ensembles import FIXTURE_NAMES, KINDS, TRACE_MODES, fixture_expectations, fixture_matrices
from .matrices import load_matrix, matrix_to_json, save_matrix

__all__ = ["REPORT_SCHEMA", "main"]

SEED_ENV_VAR = "SPECTRA_PERTURB_SEED"

_BOUND_ITEM_SCHEMA = {
    "type": "object",
    "required": ["id", "family", "value", "applicable"],
    "properties": {
        "id": {"type": "string"},
        "family": {"type": "string"},
        "value": {"type": ["number", "null"]},
        "applicable": {"type": "boolean"},
        "requires_hermitian": {"type": "boolean"},
        "depends_on_schur_choice": {"type": "boolean"},
    },
}

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["case", "d2", "d_inf", "bounds", "violations", "timing_ms"],
    "properties": {
        "case": {
            "type": "object",
            "required": ["n", "a_is_normal", "a_is_hermitian", "include_hermitian"],
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "a_is_normal": {"type": "boolean"},
                "a_is_hermitian": {"type": "boolean"},
                "include_hermitian": {"type": "boolean"},
                "source": {"type": "object"},
            },
        },
        "d2": {"type": "number"},
        "d_inf": {"type": "number"},
        "bounds": {"type": "array", "items": _BOUND_ITEM_SCHEMA},
        "violations": {"type": "array", "items": {"type": "string"}},
        "timing_ms": {
            "type": "object",
            "required": ["load", "evaluate"],
            "properties": {
                "load": {"type": "number"},
                "evaluate": {"type": "number"},
            },
        },
        "schur": {"type": "object"},
    },
}


def _report_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["id", "family", "value", "applicable"])
    writer.writerow(["d2", "metric", repr(report["d2"]), True])
    writer.writerow(["d_inf", "metric", repr(report["d_inf"]), True])
    for item in report["bounds"]:
        value = "" if item["value"] is None else repr(item["value"])
        writer.writerow([item["id"], item["family"], value, item["applicable"]])
    return buf.getvalue()


@contextlib.contextmanager
def _claimed(path: str | None):
    """Check that the output ``path`` (if any) can be written before the
    command does its work, so that an unwritable path fails at once.  A
    file this creates is removed again when the command raises; a file
    that already existed is left as it was."""
    if path is None:
        yield
        return
    try:
        open(path, "x").close()
        created = True
    except FileExistsError:
        open(path, "a").close()
        created = False
    try:
        yield
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cmd_bounds(args) -> int:
    if args.dump_schur and args.format == "csv":
        raise ValueError("--dump-schur requires --format json")
    t0 = time.perf_counter()
    try:
        a = load_matrix(args.a)
        e = load_matrix(args.e)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load matrices: {exc}") from exc
    load_ms = (time.perf_counter() - t0) * 1000.0
    # make_case refuses mismatched shapes or a non-normal A; main reports its ValueError
    case = make_case(a, e)
    if args.hermitian and not case.a_is_hermitian:
        raise ValueError("--hermitian was given but matrix A is not Hermitian at tolerance")
    t0 = time.perf_counter()
    evaluation = evaluate_all(case)
    evaluate_ms = (time.perf_counter() - t0) * 1000.0
    report = {
        "case": {
            "n": case.n,
            "a_is_normal": case.a_is_normal,
            "a_is_hermitian": case.a_is_hermitian,
            "include_hermitian": case.a_is_hermitian,
            "source": {"a": args.a, "e": args.e},
        },
        **evaluation.as_dict(),
        "timing_ms": {"load": load_ms, "evaluate": evaluate_ms},
    }
    if args.dump_schur:
        form = case.schur_tilde
        report["schur"] = {
            "q": matrix_to_json(form.q),
            "t": matrix_to_json(form.t),
            "eigenvalues": [[z.real, z.imag] for z in form.eigenvalues],
        }
    if args.format == "json":
        _emit(json.dumps(report, indent=2), args.out)
    else:
        _emit(_report_csv(report), args.out)
    return 1 if report["violations"] else 0


def _campaign_config(args) -> CampaignConfig:
    return CampaignConfig(
        trials=args.trials,
        n_min=args.n_min,
        n_max=args.n_max,
        kind=args.kind,
        trace_mode=args.trace_mode,
        seed=args.seed,
        jobs=args.jobs,
    )


def _cmd_verify(args) -> int:
    summary = run_campaign(_campaign_config(args))
    sys.stdout.write(json.dumps(summary.as_dict(), indent=2) + "\n")
    return 0 if summary.ok else 1


def _cmd_tightness(args) -> int:
    # The rows of each chunk are spooled to a temporary file as it arrives
    # and copied to --out once the campaign is complete, so memory stays
    # flat and a failed campaign leaves --out as it was.
    with tempfile.TemporaryFile("w+", newline="") as rows:
        config = _campaign_config(args)
        summary = _run_campaign(config, _trials_csv(rows, config.kind))
        rows.seek(0)
        with open(args.out, "w", newline="") as fh:
            shutil.copyfileobj(rows, fh)
    writer = csv.writer(sys.stdout)
    writer.writerow(["id", "wins", "max_slack"])
    for bid, count in summary.wins.items():
        slack = summary.max_slack[bid]
        writer.writerow([bid, count, "" if slack is None else repr(slack)])
    return 0 if summary.ok else 1


def _cmd_fixture(args) -> int:
    a, e = fixture_matrices(args.name, args.n)
    expected = fixture_expectations(args.name, args.n)
    os.makedirs(args.out_dir, exist_ok=True)
    save_matrix(os.path.join(args.out_dir, "A.json"), a)
    save_matrix(os.path.join(args.out_dir, "E.json"), e)
    with open(os.path.join(args.out_dir, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=2)
        fh.write("\n")
    return 0


def _seed_default() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials", type=int, required=True, help="number of trials")
    parser.add_argument("--n-min", type=int, default=2, help="smallest matrix size (default 2)")
    parser.add_argument("--n-max", type=int, default=12, help="largest matrix size (default 12)")
    parser.add_argument(
        "--kind",
        choices=KINDS,
        default="normal",
        help="base-matrix ensemble (default normal)",
    )
    parser.add_argument(
        "--trace-mode",
        choices=TRACE_MODES,
        default="generic",
        help="whether perturbations are projected to zero trace (default generic)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"campaign seed (default: ${SEED_ENV_VAR} or 0)",
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")


# one per process: parsing does not change it, and each one left behind is cyclic garbage
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectra-perturb",
        description="Spectral distance bounds for perturbed normal matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="evaluate the bound catalog on a matrix pair")
    p_bounds.add_argument("--a", required=True, help="path to the base matrix JSON")
    p_bounds.add_argument("--e", required=True, help="path to the perturbation JSON")
    p_bounds.add_argument(
        "--hermitian",
        action="store_true",
        help="refuse an A that is not Hermitian (the Hermitian-only bounds run whenever A is)",
    )
    p_bounds.add_argument(
        "--dump-schur",
        action="store_true",
        help="include the ordered Schur factors of A + E in the JSON report",
    )
    p_bounds.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_bounds.add_argument("--format", choices=["json", "csv"], default="json")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_verify = sub.add_parser("verify", help="run a randomized domination campaign")
    _add_campaign_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_fixture = sub.add_parser("fixture", help="write a worked example to disk")
    p_fixture.add_argument("--name", required=True, choices=list(FIXTURE_NAMES))
    p_fixture.add_argument("--n", type=int, default=None, help="size for example_4_4 (default 5)")
    p_fixture.add_argument("--out-dir", required=True, help="directory for A.json, E.json, expected.json")
    p_fixture.set_defaults(func=_cmd_fixture)

    p_tight = sub.add_parser("tightness", help="dump per-trial bound values and the win histogram")
    _add_campaign_flags(p_tight)
    p_tight.add_argument("--out", required=True, help="per-trial CSV path")
    p_tight.set_defaults(func=_cmd_tightness)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", "absent") is None:
            args.seed = _seed_default()
        with _claimed(getattr(args, "out", None)):
            return args.func(args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalConsistencyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
