"""Command-line entry point: generate cohorts, run experiments, export artifacts.

Exit codes: 0 success, 2 for an `InputError` (a flag, path, config, cohort spec,
events.csv or students.csv that cannot be used), 1 for any other failure. Each
`cmd_*` raises; `main` alone maps the exception to its code.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import logging
import os
import sys

from .activity import VARIABLES, InputError
from .config import ExperimentConfig, load_config, write_json
from .dataio import load_records, write_events_csv, write_students_csv
from .evaluate import (
    REPORT_HEADER,
    EvalReport,
    cross_validate,
    embeddings_to_csv,
    export_embeddings,
    read_report,
    report_to_csv,
    rounds_to_csv,
)
from .params import load_params, save_params
from .synthgen import generate_cohort, load_cohort_spec

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INPUT = 2


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _require_file(what: str, path: str) -> None:
    """Raise `InputError` naming `path` when it is missing or not a regular file."""
    if not os.path.isfile(path):
        raise InputError(f"{what}: no such file: {path}")


def _require_dir(what: str, path: str) -> None:
    """Raise `InputError` naming the existing non-directory at or above `path` that keeps
    directory `path` from being made, if any."""
    blocker = os.path.abspath(path)
    while not os.path.lexists(blocker):
        blocker = os.path.dirname(blocker)
    if not os.path.isdir(blocker):
        raise InputError(f"{what}: not a directory: {blocker}")


def cmd_generate(spec_path: str, seed: int, out_dir: str) -> int:
    _require_file("cohort spec", spec_path)
    _require_dir(f"output directory {out_dir}", out_dir)
    records = generate_cohort(load_cohort_spec(spec_path), seed)
    os.makedirs(out_dir, exist_ok=True)
    events_path = os.path.join(out_dir, "events.csv")
    students_path = os.path.join(out_dir, "students.csv")
    write_events_csv(records, events_path)
    write_students_csv(records, students_path)
    print(f"wrote {events_path} and {students_path} ({len(records)} students, seed {seed})")
    return EXIT_OK


def _load_dataset(config: ExperimentConfig):
    if config.dataset.kind == "generated":
        spec = load_cohort_spec(config.dataset.spec_path)
        return generate_cohort(spec, config.dataset.seed)
    return load_records(
        config.dataset.events_path,
        config.dataset.students_path,
        n_videos=config.dataset.n_videos,
        max_sequence=config.dataset.max_sequence,
    )


def _write_manifest(config: ExperimentConfig, out_dir: str, artifacts: list[str]) -> None:
    manifest = {
        "config": config.raw,
        "seeds": list(config.plan.seeds),
        "artifacts": {os.path.basename(p): _sha256_file(p) for p in sorted(artifacts)},
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _print_report(report: EvalReport) -> None:
    print(f"{'strategy':<14} {'subgroup':<16} {'mean_auc':>9} {'std':>7} {'runs':>5}")
    for row in report.rows:
        print(f"{row.strategy:<14} {row.subgroup:<16} {row.mean_auc:>9.4f} "
              f"{row.std_auc:>7.4f} {row.n_runs:>5}")
    for warning in report.warnings:
        print(f"warning: {warning}")


def cmd_run(config_path: str, seed_override: int | None, jobs: int, out_override: str | None) -> int:
    if jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {jobs}")
    _require_file("config", config_path)
    config = load_config(config_path)
    if seed_override is not None:
        config.plan = dataclasses.replace(config.plan, seeds=(seed_override,))
    out_dir = out_override or config.output_dir
    models_dir = os.path.join(out_dir, "models")
    _require_dir(f"output directory {out_dir}", models_dir)
    records = _load_dataset(config)
    report = cross_validate(records, config.plan, jobs=jobs)
    os.makedirs(models_dir, exist_ok=True)
    artifacts = []
    report_path = os.path.join(out_dir, "report.csv")
    rounds_path = os.path.join(out_dir, "rounds.csv")
    report_to_csv(report, report_path)
    rounds_to_csv(report, rounds_path)
    artifacts.extend([report_path, rounds_path])
    for outcome in report.outcomes:
        for subgroup, model in sorted(outcome.eval_models.items()):
            tag = subgroup.replace(":", "_")
            path = os.path.join(
                models_dir,
                f"{outcome.strategy}_f{outcome.fold}_s{outcome.seed}_{tag}.params",
            )
            save_params(model, path)
            artifacts.append(path)
    _write_manifest(config, out_dir, artifacts)
    _print_report(report)
    print(f"report written to {report_path}")
    return EXIT_OK


def cmd_dump_embeddings(
    model_path: str,
    events_path: str,
    students_path: str,
    out_path: str,
    variable: str,
    include_unspecified: bool,
) -> int:
    if os.path.isdir(out_path) or not os.path.isdir(os.path.dirname(os.path.abspath(out_path))):
        raise InputError(f"output file {out_path}: must not be a directory and its directory must exist")
    _require_file("model", model_path)
    params = load_params(model_path)
    _require_file("events", events_path)
    _require_file("students", students_path)
    records = load_records(events_path, students_path, n_videos=params.input_dim - 7)
    dump = export_embeddings(params, records, variable, include_unspecified)
    embeddings_to_csv(dump, out_path)
    print(f"wrote {len(dump.rows)} embeddings to {out_path}")
    return EXIT_OK


def cmd_report(report_path: str) -> int:
    _require_file("report", report_path)
    rows = read_report(report_path)
    print(" | ".join(f"{h:<14}" for h in REPORT_HEADER))
    for row in rows:
        print(" | ".join(f"{cell:<14}" for cell in row))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedstudent",
        description="Federated personalization experiments on clickstream cohorts",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="enable info logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic cohort from a spec")
    p_gen.add_argument("--spec", required=True, help="cohort spec JSON path")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output directory")

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True, help="experiment config JSON path")
    p_run.add_argument("--seed", type=int, default=None, help="override the config's seed list")
    p_run.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="parallel runs, at least 1 (default: hardware threads)")
    p_run.add_argument("--out", default=None, help="override the config's output directory")

    p_dump = sub.add_parser("dump-embeddings", help="export pooled representations to CSV")
    p_dump.add_argument("--model", required=True, help="serialized model path")
    p_dump.add_argument("--events", required=True)
    p_dump.add_argument("--students", required=True)
    p_dump.add_argument("--out", required=True)
    p_dump.add_argument("--variable", default="G", choices=VARIABLES)
    p_dump.add_argument("--include-unspecified", action="store_true")

    p_rep = sub.add_parser("report", help="pretty-print an existing report.csv")
    p_rep.add_argument("--report", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "generate":
            return cmd_generate(args.spec, args.seed, args.out)
        if args.command == "run":
            return cmd_run(args.config, args.seed, args.jobs, args.out)
        if args.command == "dump-embeddings":
            return cmd_dump_embeddings(args.model, args.events, args.students, args.out,
                                       args.variable, args.include_unspecified)
        return cmd_report(args.report)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
