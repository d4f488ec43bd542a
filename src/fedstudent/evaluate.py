"""Cross-validated multi-seed experiment execution and per-subgroup reporting.

Folds are stratified per subgroup and per label; the fold assignment is fixed
by `fold_seed` while the training/initialization seed varies per repeat. Every
run executes under an access monitor so train/test isolation can be audited.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .activity import StudentRecord, demographic_group, sequence_matrix
from .federation import (
    AttnAggConfig,
    FederationError,
    FederationSchedule,
    MetaConfig,
    TrainSettings,
    run_federation,
)
from .metrics import ScoredStudent, UndefinedAUCError, auc
from .network import forward_outcome
from .optim import OptState
from .params import ModelParams
from .pretrain import run_pretraining
from .splits import DatasetSplit, SplitAssignment, SplitError, SubgroupKey, build_subgroups, rng_for
from .tracking import AccessMonitor, track_records

REPORT_HEADER = ["strategy", "variable", "subgroup", "mean_auc", "std_auc", "n_runs"]
ROUNDS_HEADER = ["strategy", "fold", "seed", "round", "subgroup", "val_auc", "train_loss"]


@dataclass
class ExperimentPlan:
    """Everything a cross-validated experiment needs besides the records."""

    variable: str = "G"
    include_unspecified: bool = False
    strategies: tuple = ("PerFedAttn",)
    rounds: int = 10
    local_iters: int = 5
    settings: TrainSettings = field(default_factory=TrainSettings)
    meta: MetaConfig = field(default_factory=MetaConfig)
    attn: AttnAggConfig = field(default_factory=AttnAggConfig)
    pretrain_enabled: bool = False
    pretrain_epochs: int = 10
    folds: int = 1
    seeds: tuple = (0, 1, 2, 3, 4)
    fold_seed: int = 1234
    val_fraction: float = 0.2


def _stratified_chunks(ids: list[str], n_chunks: int, rng: np.random.Generator) -> list[list[str]]:
    order = rng.permutation(len(ids))
    chunks: list[list[str]] = [[] for _ in range(n_chunks)]
    for position, idx in enumerate(order):
        chunks[position % n_chunks].append(ids[idx])
    return chunks


def build_fold_split(
    records: dict[str, StudentRecord],
    plan: ExperimentPlan,
    fold_idx: int,
) -> DatasetSplit:
    """Stratified per-subgroup, per-label fold split with a validation carve-out."""
    groups = build_subgroups(list(records.values()), plan.variable, plan.include_unspecified)
    if not groups:
        raise SplitError(f"no subgroups found for variable {plan.variable}")
    assignments: dict[SubgroupKey, SplitAssignment] = {}
    for key in sorted(groups):
        ids = sorted(groups[key])
        by_label: dict[int, list[str]] = {0: [], 1: []}
        for sid in ids:
            by_label[records[sid].label].append(sid)
        test: list[str] = []
        pool: list[str] = []
        for label, members in sorted(by_label.items()):
            if not members:
                continue
            rng = rng_for(plan.fold_seed, "folds", str(key), label)
            if plan.folds >= 2:
                chunks = _stratified_chunks(members, plan.folds, rng)
                test.extend(chunks[fold_idx])
                for i, chunk in enumerate(chunks):
                    if i != fold_idx:
                        pool.extend(chunk)
            else:
                shuffled = [members[i] for i in rng.permutation(len(members))]
                n_test = max(1, int(len(shuffled) * 0.2)) if len(shuffled) > 1 else 0
                test.extend(shuffled[:n_test])
                pool.extend(shuffled[n_test:])
        if not pool or not test:
            raise SplitError(f"subgroup {key} too small for a {plan.folds}-fold split")
        val: list[str] = []
        train: list[str] = []
        pool_by_label: dict[int, list[str]] = {0: [], 1: []}
        for sid in pool:
            pool_by_label[records[sid].label].append(sid)
        for label, members in sorted(pool_by_label.items()):
            if not members:
                continue
            rng = rng_for(plan.fold_seed, "val", str(key), label, fold_idx)
            shuffled = [members[i] for i in rng.permutation(len(members))]
            n_val = int(len(shuffled) * plan.val_fraction)
            if n_val == 0 and len(shuffled) >= 2:
                n_val = 1
            val.extend(shuffled[:n_val])
            train.extend(shuffled[n_val:])
        if not train:
            raise SplitError(f"subgroup {key}: validation carve-out emptied the training set")
        assignments[key] = SplitAssignment(train=sorted(train), val=sorted(val), test=sorted(test))
    return DatasetSplit(assignments=assignments)


@dataclass
class RunOutcome:
    """Plain result of one (strategy, fold, seed) execution."""

    strategy: str
    fold: int
    seed: int
    subgroup_auc: dict[str, float | None]
    rounds: list[tuple]
    final_params: ModelParams
    eval_models: dict[str, ModelParams]
    test_ids: dict[str, list[str]]
    access_counts: dict
    warnings: list[str]
    pretrain_losses: list[float] = field(default_factory=list)


def pretrain_for_fold(
    records: list[StudentRecord],
    plan: ExperimentPlan,
    fold_idx: int,
    seed: int,
) -> tuple[ModelParams, list[float], dict]:
    """Masked-activity pretraining on the fold's pooled training sequences.

    Depends only on (records, plan, fold, seed), never on the strategy, so one
    result serves every strategy of the same run. Returns the trained weights,
    per-epoch losses, and the instrumented access counts.
    """
    monitor = AccessMonitor()
    record_index = {r.student_id: r for r in records}
    tracked = track_records(records, monitor)
    split = build_fold_split(record_index, plan, fold_idx)
    with monitor.phase("pretrain"):
        train_ids = sorted(split.all_train_ids())
        sequences = [sequence_matrix(tracked[sid].sequence) for sid in train_ids]
        input_dim = sequences[0].shape[1]
        model0 = ModelParams.initialized(
            plan.settings.hidden_dim, input_dim, rng_for(seed, "pretrain-init")
        )
        opt = OptState(kind=plan.settings.opt_kind, lr=plan.settings.lr, decay=plan.settings.decay)
        pretrained, losses = run_pretraining(
            model0, sequences, plan.pretrain_epochs, opt, seed,
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
    """One federated run plus test evaluation, fully instrumented."""
    monitor = AccessMonitor()
    record_index = {r.student_id: r for r in records}
    tracked = track_records(records, monitor)
    split = build_fold_split(record_index, plan, fold_idx)
    warnings: list[str] = []

    pretrained = None
    pretrain_losses: list[float] = []
    if plan.pretrain_enabled:
        if pretrain_result is None:
            pretrain_result = pretrain_for_fold(records, plan, fold_idx, seed)
        pretrained, pretrain_losses, pretrain_counts = pretrain_result
        for key, count in pretrain_counts.items():
            monitor.counts[key] += count

    schedule = FederationSchedule(strategy, rounds=plan.rounds, local_iters=plan.local_iters)
    try:
        result = run_federation(
            tracked, split, schedule, seed,
            settings=plan.settings, meta_cfg=plan.meta, attn_cfg=plan.attn,
            pretrained=pretrained, monitor=monitor,
        )
    except FederationError as exc:
        raise FederationError(f"{strategy} fold {fold_idx} seed {seed}: {exc}") from exc
    warnings.extend(result.warnings)

    subgroup_auc: dict[str, float | None] = {}
    test_ids: dict[str, list[str]] = {}
    eval_models: dict[str, ModelParams] = {}
    for key in split.subgroups():
        eval_models[str(key)] = model = result.eval_models[key]
        assignment = split.assignments[key]
        test_ids[str(key)] = list(assignment.test)
        with monitor.phase("evaluate"):
            scored = [
                ScoredStudent(
                    sid,
                    float(forward_outcome(model, sequence_matrix(tracked[sid].sequence)).probs[0]),
                    tracked[sid].label,
                    key,
                )
                for sid in assignment.test
            ]
        try:
            subgroup_auc[str(key)] = auc(scored)
        except UndefinedAUCError as exc:
            subgroup_auc[str(key)] = None
            warnings.append(f"{strategy} fold {fold_idx} seed {seed} subgroup {key}: {exc}")

    round_tuples = [
        (strategy, fold_idx, seed, row.round, row.subgroup, row.val_auc, row.train_loss)
        for row in result.rounds
    ]
    return RunOutcome(
        strategy=strategy,
        fold=fold_idx,
        seed=seed,
        subgroup_auc=subgroup_auc,
        rounds=round_tuples,
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
    metadata: dict

    def row_for(self, strategy: str, subgroup: str) -> ReportRow | None:
        for row in self.rows:
            if row.strategy == strategy and row.subgroup == subgroup:
                return row
        return None


_WORKER_STATE: dict = {}


def _init_worker(records, plan, pretrain_results=None):
    _WORKER_STATE["records"] = records
    _WORKER_STATE["plan"] = plan
    _WORKER_STATE["pretrain"] = pretrain_results or {}


def _worker_pretrain(task):
    fold_idx, seed = task
    return pretrain_for_fold(_WORKER_STATE["records"], _WORKER_STATE["plan"], fold_idx, seed)


def _worker_run(task):
    strategy, fold_idx, seed = task
    return execute_run(
        _WORKER_STATE["records"], _WORKER_STATE["plan"], strategy, fold_idx, seed,
        pretrain_result=_WORKER_STATE["pretrain"].get((fold_idx, seed)),
    )


def cross_validate(records: list[StudentRecord], plan: ExperimentPlan, jobs: int = 1) -> EvalReport:
    """Run every (strategy, fold, seed) combination and aggregate per-subgroup AUC.

    Pretraining is computed once per (fold, seed) and shared by every strategy.
    Runs are independent and may execute in parallel; assembly is in canonical
    task order so the report does not depend on the level of parallelism.
    """
    pretrain_results: dict = {}
    pre_tasks = [
        (fold_idx, seed) for fold_idx in range(plan.folds) for seed in plan.seeds
    ] if plan.pretrain_enabled else []
    tasks = [
        (strategy, fold_idx, seed)
        for strategy in plan.strategies
        for fold_idx in range(plan.folds)
        for seed in plan.seeds
    ]
    if jobs > 1 and (len(tasks) > 1 or len(pre_tasks) > 1):
        if pre_tasks:
            with ProcessPoolExecutor(
                max_workers=jobs, initializer=_init_worker, initargs=(records, plan)
            ) as pool:
                pretrain_results = dict(zip(pre_tasks, pool.map(_worker_pretrain, pre_tasks)))
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker,
            initargs=(records, plan, pretrain_results),
        ) as pool:
            outcomes = list(pool.map(_worker_run, tasks))
    else:
        pretrain_results = {t: pretrain_for_fold(records, plan, *t) for t in pre_tasks}
        outcomes = [
            execute_run(records, plan, *task,
                        pretrain_result=pretrain_results.get((task[1], task[2])))
            for task in tasks
        ]

    by_key: dict[tuple[str, str], list[float]] = {}
    subgroups_seen: list[str] = []
    warnings: list[str] = []
    for outcome in outcomes:
        warnings.extend(outcome.warnings)
        for subgroup, value in outcome.subgroup_auc.items():
            if subgroup not in subgroups_seen:
                subgroups_seen.append(subgroup)
            if value is not None:
                by_key.setdefault((outcome.strategy, subgroup), []).append(value)

    rows = []
    for strategy in plan.strategies:
        for subgroup in sorted(subgroups_seen):
            values = by_key.get((strategy, subgroup), [])
            if not values:
                warnings.append(f"{strategy} subgroup {subgroup}: no defined AUC in any run")
                continue
            rows.append(ReportRow(
                strategy=strategy,
                variable=plan.variable,
                subgroup=subgroup,
                mean_auc=float(np.mean(values)),
                std_auc=float(np.std(values)),
                n_runs=len(values),
            ))
    metadata = {
        "variable": plan.variable,
        "folds": plan.folds,
        "seeds": list(plan.seeds),
        "strategies": list(plan.strategies),
        "rounds": plan.rounds,
        "local_iters": plan.local_iters,
        "pretrain": plan.pretrain_enabled,
    }
    return EvalReport(rows=rows, outcomes=outcomes, warnings=warnings, metadata=metadata)


def report_to_csv(report: EvalReport, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        for row in report.rows:
            writer.writerow([row.strategy, row.variable, row.subgroup,
                             repr(row.mean_auc), repr(row.std_auc), row.n_runs])


def rounds_to_csv(report: EvalReport, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROUNDS_HEADER)
        for outcome in report.outcomes:
            for row in outcome.rounds:
                strategy, fold, seed, round_idx, subgroup, val_auc, loss = row
                writer.writerow([
                    strategy, fold, seed, round_idx, subgroup,
                    "" if val_auc is None else repr(val_auc),
                    "" if loss is None else repr(loss),
                ])


@dataclass
class EmbeddingDump:
    hidden_dim: int
    rows: list[tuple[str, str, np.ndarray]]


def export_embeddings(
    params: ModelParams,
    records: list[StudentRecord],
    variable: str = "G",
    include_unspecified: bool = True,
) -> EmbeddingDump:
    """Pooled representation per student, dropout disabled."""
    rows = []
    for record in records:
        tag = demographic_group(record.demographics, variable)
        if tag is None:
            if not include_unspecified:
                continue
            tag = "unspecified"
        X = sequence_matrix(record.sequence)
        if X.shape[1] != params.input_dim:
            raise ValueError(
                f"record width {X.shape[1]} does not match model input_dim {params.input_dim}"
            )
        trace = forward_outcome(params, X)
        rows.append((record.student_id, f"{variable}:{tag}", trace.pooled.copy()))
    return EmbeddingDump(hidden_dim=params.hidden_dim, rows=rows)


def embeddings_to_csv(dump: EmbeddingDump, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["student_id", "subgroup"] + [f"h_{i + 1}" for i in range(dump.hidden_dim)])
        for sid, subgroup, vector in dump.rows:
            writer.writerow([sid, subgroup] + [repr(float(v)) for v in vector])

