"""Cross-validated multi-seed experiment execution and per-subgroup reporting.

Each fold's split comes from `splits.build_fold_split`, fixed by `fold_seed`
while the training/initialization seed varies per repeat. Every run executes
under an access monitor so train/test isolation can be audited.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .activity import N_KINDS, StudentRecord
from .config import check_plan
from .dataio import csv_rows, write_csv, write_vector_csv
from .federation import ExperimentPlan, FederationError, RoundRow, run_federation, scored_auc
from .metrics import UndefinedAUCError
from .network import score
from .params import ModelParams
from .pretrain import run_pretraining
from .splits import build_fold_split, build_subgroups, rng_for
from .tracking import AccessMonitor, track_records

REPORT_HEADER = ["strategy", "variable", "subgroup", "mean_auc", "std_auc", "n_runs"]
ROUNDS_HEADER = ["strategy", "fold", "seed", "round", "subgroup", "val_auc", "train_loss"]


@dataclass
class RunOutcome:
    """Plain result of one (strategy, fold, seed) execution."""

    strategy: str
    fold: int
    seed: int
    subgroup_auc: dict[str, float | None]
    rounds: list[RoundRow]
    final_params: ModelParams
    eval_models: dict[str, ModelParams]
    test_ids: dict[str, list[str]]
    access_counts: dict
    warnings: list[str]
    pretrain_losses: list[float] = field(default_factory=list)


@contextmanager
def _failure_named(task: str):
    """Re-raise a failure of the enclosed step as a FederationError naming the task it belongs to."""
    try:
        yield
    except (FederationError, ValueError) as exc:
        raise FederationError(f"{task}: {exc}") from exc


def _fold_setup(records: list[StudentRecord], plan: ExperimentPlan, fold_idx: int):
    """A fresh access monitor, the records tracked by it, and the fold's split."""
    monitor = AccessMonitor()
    tracked = track_records(records, monitor)
    split = build_fold_split({r.student_id: r for r in records}, plan, fold_idx)
    return monitor, tracked, split


def pretrain_for_fold(
    records: list[StudentRecord],
    plan: ExperimentPlan,
    fold_idx: int,
    seed: int,
) -> tuple[ModelParams, list[float], dict]:
    """Masked-activity pretraining on the fold's pooled training sequences.

    Depends only on (records, plan, fold, seed), never on the strategy, so one
    result serves every strategy of the same run. Returns the trained weights,
    per-epoch losses, and the instrumented access counts. A plan that a JSON
    config could not give raises `ConfigError` before any work.
    """
    check_plan(plan)
    monitor, tracked, split = _fold_setup(records, plan, fold_idx)
    with monitor.phase("pretrain"), _failure_named(f"pretraining fold {fold_idx} seed {seed}"):
        train_ids = sorted(split.all_train_ids())
        sequences = [tracked[sid].sequence for sid in train_ids]
        input_dim = sequences[0].shape[1]
        model0 = ModelParams.initialized(
            plan.settings.hidden_dim, input_dim, rng_for(seed, "pretrain-init")
        )
        pretrained, losses = run_pretraining(
            model0, sequences, plan.pretrain_epochs, plan.settings.make_opt(), seed,
            batch_size=plan.settings.batch_size,
        )
    return pretrained, losses, dict(monitor.counts)


def execute_run(
    records: list[StudentRecord],
    plan: ExperimentPlan,
    strategy: str,
    fold_idx: int,
    seed: int,
    pretrain_result: tuple | None = None,
) -> RunOutcome:
    """One federated run plus test evaluation, fully instrumented. With pretraining
    enabled, `pretrain_result` is `pretrain_for_fold`'s result for this fold and seed.
    A plan that a JSON config could not give raises `ConfigError` before any work."""
    check_plan(plan)
    monitor, tracked, split = _fold_setup(records, plan, fold_idx)
    pretrained = None
    pretrain_losses: list[float] = []
    if plan.pretrain_enabled:
        if pretrain_result is None:
            pretrain_result = pretrain_for_fold(records, plan, fold_idx, seed)
        pretrained, pretrain_losses, pretrain_counts = pretrain_result
        monitor.counts.update(pretrain_counts)

    task = f"{strategy} fold {fold_idx} seed {seed}"
    with _failure_named(task):
        result = run_federation(tracked, split, plan, strategy, seed, pretrained, monitor)
    warnings = list(result.warnings)

    subgroup_auc: dict[str, float | None] = {}
    test_ids: dict[str, list[str]] = {}
    eval_models: dict[str, ModelParams] = {}
    for key in split.subgroups():
        eval_models[str(key)] = model = result.eval_models[key]
        assignment = split.assignments[key]
        test_ids[str(key)] = list(assignment.test)
        with monitor.phase("evaluate"), _failure_named(task):
            try:
                subgroup_auc[str(key)] = scored_auc(model, assignment.test, tracked)
            except UndefinedAUCError as exc:
                subgroup_auc[str(key)] = None
                warnings.append(f"{task} subgroup {key}: {exc}")

    return RunOutcome(
        strategy=strategy,
        fold=fold_idx,
        seed=seed,
        subgroup_auc=subgroup_auc,
        rounds=result.rounds,
        final_params=result.final_params,
        eval_models=eval_models,
        test_ids=test_ids,
        access_counts=dict(monitor.counts),
        warnings=warnings,
        pretrain_losses=pretrain_losses,
    )


def count_test_reads(outcome: RunOutcome) -> int:
    """Reads of test sequences or labels during pretraining or training."""
    test = {sid for ids in outcome.test_ids.values() for sid in ids}
    return sum(
        count
        for (phase, sid, fieldname), count in outcome.access_counts.items()
        if phase in ("pretrain", "train") and sid in test and fieldname in ("sequence", "label")
    )


@dataclass
class ReportRow:
    strategy: str
    variable: str
    subgroup: str
    mean_auc: float
    std_auc: float
    n_runs: int


@dataclass
class EvalReport:
    rows: list[ReportRow]
    outcomes: list[RunOutcome]
    warnings: list[str]


_inputs: tuple = ()  # the (records, plan) that `_call` runs its tasks on


def _set_inputs(*inputs) -> None:
    global _inputs
    _inputs = inputs


def _call(task: tuple):
    """Run `task`, a tuple `(function, *args)`, as `function(records, plan, *args)`."""
    function, *args = task
    return function(*_inputs, *args)


def _process_pool(**kwargs):
    """A `concurrent.futures.ProcessPoolExecutor`, whose module (and with it
    `multiprocessing`, `socket` and `subprocess`) loads only with the first pool."""
    from concurrent.futures import ProcessPoolExecutor as pool_class

    return pool_class(**kwargs)


# The name `_task_mapper` opens its pool through, looked up at call time, so a
# benchmark tracer or a test can put its own pool class here.
ProcessPoolExecutor = _process_pool


@contextmanager
def _task_mapper(records: list[StudentRecord], plan: ExperimentPlan, workers: int):
    """A `map` for `_call` over task tuples: the builtin one in this process, or, for
    more than one worker, `pool.map` of one pool whose workers get (records, plan) once."""
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_set_inputs, initargs=(records, plan)
        ) as pool:
            yield pool.map
        return
    _set_inputs(records, plan)
    try:
        yield map
    finally:
        _set_inputs()


def cross_validate(records: list[StudentRecord], plan: ExperimentPlan, jobs: int = 1) -> EvalReport:
    """Run every (strategy, fold, seed) combination and aggregate per-subgroup AUC.

    Pretraining is computed once per (fold, seed) and travels with each run task
    of that fold and seed. Both stages go through one mapper, which runs at most
    `jobs` tasks at once, in a pool of at most one worker per run. Results come
    back in canonical task order, so the report does not depend on `jobs`.
    A plan that a JSON config could not give raises `ConfigError` before any task.
    """
    check_plan(plan)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    runs = [
        (strategy, fold_idx, seed)
        for strategy in plan.strategies
        for fold_idx in range(plan.folds)
        for seed in plan.seeds
    ]
    pre_tasks = [
        (pretrain_for_fold, fold_idx, seed) for fold_idx in range(plan.folds) for seed in plan.seeds
    ] if plan.pretrain_enabled else []
    with _task_mapper(records, plan, min(jobs, len(runs))) as mapper:
        pretrained = dict(zip([task[1:] for task in pre_tasks], mapper(_call, pre_tasks)))
        outcomes = list(mapper(_call, [
            (execute_run, strategy, fold_idx, seed, pretrained.get((fold_idx, seed)))
            for strategy, fold_idx, seed in runs
        ]))

    warnings = [warning for outcome in outcomes for warning in outcome.warnings]
    subgroups = sorted({subgroup for outcome in outcomes for subgroup in outcome.subgroup_auc})
    rows = []
    for strategy in plan.strategies:
        for subgroup in subgroups:
            values = [outcome.subgroup_auc[subgroup] for outcome in outcomes
                      if outcome.strategy == strategy and outcome.subgroup_auc.get(subgroup) is not None]
            if not values:
                warnings.append(f"{strategy} subgroup {subgroup}: no defined AUC in any run")
                continue
            rows.append(ReportRow(strategy, plan.variable, subgroup, float(np.mean(values)),
                                  float(np.std(values)), len(values)))
    return EvalReport(rows=rows, outcomes=outcomes, warnings=warnings)


def report_to_csv(report: EvalReport, path: str) -> None:
    write_csv(path, REPORT_HEADER, (
        [row.strategy, row.variable, row.subgroup, repr(row.mean_auc), repr(row.std_auc), row.n_runs]
        for row in report.rows
    ))


def _report_row_problem(row: list[str]) -> str | None:
    """How `row` lacks a field, finite AUC figures or a positive run count; None if it does not."""
    if len(row) != len(REPORT_HEADER):
        return f"expected {len(REPORT_HEADER)} fields"
    for name, cell in zip(REPORT_HEADER[3:5], row[3:5]):
        try:
            finite = math.isfinite(float(cell))
        except ValueError:
            finite = False
        if not finite:
            return f"{name} must be a finite number, got {cell!r}"
    if not (row[5].isdecimal() and int(row[5]) >= 1):
        return f"n_runs must be a positive integer, got {row[5]!r}"
    return None


def read_report(path: str) -> list[list[str]]:
    """The rows of a `report_to_csv` file. A fault raises `ValueError` naming `path`, and
    its line where it has one; not `InputError`, since this program wrote the file."""
    rows = []
    for line_no, row in csv_rows(path, REPORT_HEADER, ValueError):
        problem = _report_row_problem(row)
        if problem:
            raise ValueError(f"{path}:{line_no}: {problem}")
        rows.append(row)
    return rows


def rounds_to_csv(report: EvalReport, path: str) -> None:
    write_csv(path, ROUNDS_HEADER, (
        [
            outcome.strategy, outcome.fold, outcome.seed, row.round, row.subgroup,
            "" if row.val_auc is None else repr(row.val_auc),
            "" if row.train_loss is None else repr(row.train_loss),
        ]
        for outcome in report.outcomes for row in outcome.rounds
    ))


@dataclass
class EmbeddingDump:
    hidden_dim: int
    rows: list[tuple[str, str, np.ndarray]]


def encoded_videos(params: ModelParams, path: str) -> int:
    """The videos in the activity encoding that a model read from `path` takes as input. A model
    that fits none raises `ValueError`, not `InputError`, since this program wrote the file."""
    if params.hidden_dim < 1 or params.input_dim <= N_KINDS:
        raise ValueError(f"{path}: hidden_dim {params.hidden_dim} and input_dim {params.input_dim} "
                         f"fit no activity encoding (need hidden_dim >= 1 and input_dim > {N_KINDS})")
    return params.input_dim - N_KINDS


def export_embeddings(
    params: ModelParams,
    records: list[StudentRecord],
    variable: str,
    include_unspecified: bool,
) -> EmbeddingDump:
    """Pooled representation per student in record order, dropout disabled."""
    groups = build_subgroups(records, variable, include_unspecified)
    subgroup_of: dict[str, str] = {}
    for key, ids in groups.items():
        subgroup_of.update(dict.fromkeys(ids, str(key)))
    kept = [record for record in records if record.student_id in subgroup_of]
    _, pooled = score(params, [record.sequence for record in kept])
    rows = [(record.student_id, subgroup_of[record.student_id], vector)
            for record, vector in zip(kept, pooled)]
    return EmbeddingDump(hidden_dim=params.hidden_dim, rows=rows)


def embeddings_to_csv(dump: EmbeddingDump, path: str) -> None:
    write_vector_csv(path, ["student_id", "subgroup"] + [f"h_{i + 1}" for i in range(dump.hidden_dim)],
                     (((sid, subgroup), vector) for sid, subgroup, vector in dump.rows))

