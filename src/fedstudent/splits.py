"""Demographic subgroup construction and the one train/validation/test splitter.

`build_fold_split` decides which students of a subgroup train, validate and
test in each fold, stratified per label; `cut` sizes every share it cuts.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .activity import UNSPECIFIED, InputError, StudentRecord, demographic_variable

if TYPE_CHECKING:  # `federation` imports this module
    from .federation import ExperimentPlan

logger = logging.getLogger(__name__)

HOLDOUT_FRACTION = 0.2  # share of each subgroup's label held out for test when `folds` is 1
VAL_FRACTION = 0.2  # share of each fold's training pool, per subgroup and label, kept for validation


class SplitError(InputError):
    """Raised when a subgroup is too small to split into train and test."""


@dataclass(frozen=True, order=True)
class SubgroupKey:
    """A demographic variable plus one of its group tags (or 'unspecified')."""

    variable: str
    group: str

    def __str__(self) -> str:
        return f"{self.variable}:{self.group}"


def build_subgroups(
    records: list[StudentRecord],
    variable: str,
    include_unspecified: bool,
) -> dict[SubgroupKey, list[str]]:
    """Partition student ids by one demographic variable.

    Students without the variable go to the 'unspecified' group when
    include_unspecified is set, and are dropped otherwise. Empty groups are
    logged and omitted from the result.
    """
    row = demographic_variable(variable)
    keys: dict[str | None, SubgroupKey] = {t: SubgroupKey(variable, t) for t in row.tags}
    if include_unspecified:
        keys[None] = SubgroupKey(variable, UNSPECIFIED)
    groups: dict[SubgroupKey, list[str]] = {key: [] for key in keys.values()}
    for record in records:
        tag = row.group(record.demographics)
        if tag is not None or include_unspecified:
            groups[keys[tag]].append(record.student_id)
    empty = [str(k) for k, ids in groups.items() if not ids]
    if empty:
        logger.info("empty subgroups for variable %s: %s", variable, ", ".join(empty))
    return {k: ids for k, ids in groups.items() if ids}


@dataclass
class SplitAssignment:
    train: list[str] = field(default_factory=list)
    val: list[str] = field(default_factory=list)
    test: list[str] = field(default_factory=list)


@dataclass
class DatasetSplit:
    """Disjoint train/val/test id sets per subgroup."""

    assignments: dict[SubgroupKey, SplitAssignment]

    def subgroups(self) -> list[SubgroupKey]:
        return sorted(self.assignments)

    def all_train_ids(self) -> set[str]:
        return {sid for a in self.assignments.values() for sid in a.train}


def stable_seed(*parts) -> int:
    """Deterministic 128-bit seed derived from structured parts (ints/strings)."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def rng_for(*parts) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(stable_seed(*parts)))


def ids_digest(ids) -> str:
    """Stable digest of an id set, used to key batch-order streams to the data itself."""
    joined = "\x1f".join(sorted(ids))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def cut(items: list, fraction: float) -> tuple[list, list]:
    """`items` split after its first floor(n * fraction) entries: the one split-size rule.

    The head takes at least one item and at most n - 1, so both parts are
    non-empty once n >= 2; a single item goes to the tail.
    """
    k = min(max(1, int(len(items) * fraction)), len(items) - 1)
    return items[:k], items[k:]


def _by_label(ids: list[str], records: dict[str, StudentRecord]) -> dict[int, list[str]]:
    """`ids` by label, 0 then 1, each in the given order; a label with no student is left out."""
    by_label: dict[int, list[str]] = {0: [], 1: []}
    for sid in ids:
        by_label[records[sid].label].append(sid)
    return {label: members for label, members in by_label.items() if members}


def build_fold_split(
    records: dict[str, StudentRecord],
    plan: ExperimentPlan,
    fold_idx: int,
) -> DatasetSplit:
    """Stratified per-subgroup, per-label fold split with a validation carve-out.

    Each label of a subgroup is shuffled once under `fold_seed`. With two or
    more folds, fold f tests every `folds`-th student from position f; with one,
    `cut` holds out HOLDOUT_FRACTION. A second shuffle of the label's remaining
    students then cuts off its validation share, which leaves at least one of
    them for training.
    """
    groups = build_subgroups(list(records.values()), plan.variable, plan.include_unspecified)
    if not groups:
        raise SplitError(f"no subgroups found for variable {plan.variable}")
    assignments: dict[SubgroupKey, SplitAssignment] = {}
    for key in sorted(groups):
        test: list[str] = []
        val: list[str] = []
        train: list[str] = []
        for label, members in _by_label(sorted(groups[key]), records).items():
            rng = rng_for(plan.fold_seed, "folds", str(key), label)
            shuffled = [members[i] for i in rng.permutation(len(members))]
            if plan.folds >= 2:
                held = shuffled[fold_idx::plan.folds]
                # Chunk by chunk: the validation shuffle below permutes positions in this order.
                rest = [sid for f in range(plan.folds) if f != fold_idx for sid in shuffled[f::plan.folds]]
            else:
                held, rest = cut(shuffled, HOLDOUT_FRACTION)
            rng = rng_for(plan.fold_seed, "val", str(key), label, fold_idx)
            carved, kept = cut([rest[i] for i in rng.permutation(len(rest))], VAL_FRACTION)
            test.extend(held)
            val.extend(carved)
            train.extend(kept)
        if not train or not test:
            raise SplitError(f"subgroup {key} too small for a {plan.folds}-fold split")
        assignments[key] = SplitAssignment(train=sorted(train), val=sorted(val), test=sorted(test))
    return DatasetSplit(assignments=assignments)
