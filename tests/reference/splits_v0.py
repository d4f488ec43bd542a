"""The fold split as it was when each cut wrote its own size rule.

Kept as a test oracle. `build_fold_split` cut the `folds == 1` holdout and the
validation carve-out each with its own "floor, at least one" expression and
partitioned each subgroup by label twice. The package now routes every cut
through `splits.cut` and splits each label in one pass. It must produce the
same train/val/test lists in the same order, or raise a `SplitError` with the
same text.
"""

from __future__ import annotations

import numpy as np

from fedstudent.activity import StudentRecord
from fedstudent.config import ExperimentPlan
from fedstudent.splits import (
    DatasetSplit,
    SplitAssignment,
    SplitError,
    SubgroupKey,
    build_subgroups,
    rng_for,
)

VAL_FRACTION = 0.2  # share of each fold's training pool, per subgroup and label, kept for validation


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
            n_val = int(len(shuffled) * VAL_FRACTION)
            if n_val == 0 and len(shuffled) >= 2:
                n_val = 1
            val.extend(shuffled[:n_val])
            train.extend(shuffled[n_val:])
        if not train:
            raise SplitError(f"subgroup {key}: validation carve-out emptied the training set")
        assignments[key] = SplitAssignment(train=sorted(train), val=sorted(val), test=sorted(test))
    return DatasetSplit(assignments=assignments)
