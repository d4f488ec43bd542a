"""Command-line entry point: generate cohorts, run experiments, export artifacts.

Exit codes: 0 success, 1 runtime failure, 2 configuration failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import math
import os
import sys

from .config import ConfigError, ExperimentConfig, load_config
from .dataio import IngestError, load_records, write_events_csv, write_students_csv
from .evaluate import (
    REPORT_HEADER,
    EvalReport,
    cross_validate,
    embeddings_to_csv,
    export_embeddings,
    report_to_csv,
    rounds_to_csv,
)
from .params import ParamFormatError, load_params, save_params
from .splits import SplitError
from .synthgen import CohortSpecError, generate_cohort, load_cohort_spec

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _not_a_file(what: str, path: str) -> bool:
    """True, after naming `path` on stderr, when it is missing or not a regular file."""
    if os.path.isfile(path):
        return False
    print(f"error: {what}: no such file: {path}", file=sys.stderr)
    return True


def _file_in_the_way(path: str) -> str | None:
    """The existing non-directory at or above `path` that keeps it from being made, if any."""
    path = os.path.abspath(path)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    return None if os.path.isdir(path) else path


def cmd_generate(spec_path: str, seed: int, out_dir: str) -> int:
    if _not_a_file("cohort spec", spec_path):
        return EXIT_CONFIG
    try:
        spec = load_cohort_spec(spec_path)
    except CohortSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        records = generate_cohort(spec, seed)
        os.makedirs(out_dir, exist_ok=True)
        events_path = os.path.join(out_dir, "events.csv")
        students_path = os.path.join(out_dir, "students.csv")
        write_events_csv(records, events_path)
        write_students_csv(records, students_path)
    except Exception as exc:
        print(f"error: generation failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
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
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_report(report: EvalReport) -> None:
    print(f"{'strategy':<14} {'subgroup':<16} {'mean_auc':>9} {'std':>7} {'runs':>5}")
    for row in report.rows:
        print(f"{row.strategy:<14} {row.subgroup:<16} {row.mean_auc:>9.4f} "
              f"{row.std_auc:>7.4f} {row.n_runs:>5}")
    for warning in report.warnings:
        print(f"warning: {warning}")


def cmd_run(config_path: str, seed_override: int | None, jobs: int, out_override: str | None) -> int:
    if jobs < 1:
        print(f"error: --jobs must be at least 1, got {jobs}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = load_config(config_path)
        if seed_override is not None:
            config.plan = dataclasses.replace(config.plan, seeds=(seed_override,))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = out_override or config.output_dir
    models_dir = os.path.join(out_dir, "models")
    blocker = _file_in_the_way(models_dir)
    if blocker is not None:
        print(f"error: output directory {out_dir}: not a directory: {blocker}", file=sys.stderr)
        return EXIT_CONFIG
    try:
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
    except (CohortSpecError, IngestError, SplitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"error: run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
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
    if _not_a_file("model", model_path):
        return EXIT_CONFIG
    try:
        params = load_params(model_path)
    except (ParamFormatError, OSError) as exc:
        print(f"error: cannot load model: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if _not_a_file("events", events_path) or _not_a_file("students", students_path):
        return EXIT_CONFIG
    try:
        n_videos = params.input_dim - 7
        records = load_records(events_path, students_path, n_videos=n_videos)
        dump = export_embeddings(params, records, variable, include_unspecified)
        embeddings_to_csv(dump, out_path)
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"error: embedding export failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {len(dump.rows)} embeddings to {out_path}")
    return EXIT_OK


def _check_report_row(row: list[str]) -> None:
    """Raise ValueError unless `row` holds finite AUC figures and a positive run count."""
    if len(row) != len(REPORT_HEADER):
        raise ValueError(f"expected {len(REPORT_HEADER)} fields")
    for name, cell in zip(REPORT_HEADER[3:5], row[3:5]):
        try:
            finite = math.isfinite(float(cell))
        except ValueError:
            finite = False
        if not finite:
            raise ValueError(f"{name} must be a finite number, got {cell!r}")
    if not (row[5].isdecimal() and int(row[5]) >= 1):
        raise ValueError(f"n_runs must be a positive integer, got {row[5]!r}")


def cmd_report(report_path: str) -> int:
    if _not_a_file("report", report_path):
        return EXIT_CONFIG
    try:
        with open(report_path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                print("error: report is empty", file=sys.stderr)
                return EXIT_RUNTIME
            if header != REPORT_HEADER:
                raise ValueError(f"expected header {REPORT_HEADER}, got {header}")
            rows = []
            for row in reader:
                if row:
                    _check_report_row(row)
                    rows.append(row)
    except csv.Error as exc:
        print(f"error: cannot parse report: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"error: {report_path}:{reader.line_num}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(" | ".join(f"{h:<14}" for h in header))
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
    p_dump.add_argument("--variable", default="G", choices=["G", "C", "Y"])
    p_dump.add_argument("--include-unspecified", action="store_true")

    p_rep = sub.add_parser("report", help="pretty-print an existing report.csv")
    p_rep.add_argument("--report", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.command == "generate":
        return cmd_generate(args.spec, args.seed, args.out)
    if args.command == "run":
        return cmd_run(args.config, args.seed, args.jobs, args.out)
    if args.command == "dump-embeddings":
        return cmd_dump_embeddings(args.model, args.events, args.students, args.out,
                                   args.variable, args.include_unspecified)
    if args.command == "report":
        return cmd_report(args.report)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
