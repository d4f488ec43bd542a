"""Demographic subgroup construction and train/validation/test splitting."""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field

import numpy as np

from .activity import (
    CONTINENT_GROUPS,
    GENDER_GROUPS,
    UNSPECIFIED,
    VARIABLES,
    YEAR_BANDS,
    InputError,
    StudentRecord,
    demographic_group,
)

logger = logging.getLogger(__name__)


class SplitError(InputError):
    """Raised when a subgroup is too small to split into train and test."""


@dataclass(frozen=True, order=True)
class SubgroupKey:
    """A demographic variable plus one of its group tags (or 'unspecified')."""

    variable: str
    group: str

    def __str__(self) -> str:
        return f"{self.variable}:{self.group}"


def canonical_groups(variable: str) -> tuple[str, ...]:
    if variable == "G":
        return GENDER_GROUPS
    if variable == "C":
        return CONTINENT_GROUPS
    if variable == "Y":
        return YEAR_BANDS
    raise ValueError(f"unknown demographic variable {variable!r}, expected one of {VARIABLES}")


def build_subgroups(
    records: list[StudentRecord],
    variable: str,
    include_unspecified: bool = True,
) -> dict[SubgroupKey, list[str]]:
    """Partition student ids by one demographic variable.

    Students without the variable go to the 'unspecified' group when
    include_unspecified is set, and are dropped otherwise. Empty groups are
    logged and omitted from the result.
    """
    tags = canonical_groups(variable)
    groups: dict[SubgroupKey, list[str]] = {SubgroupKey(variable, t): [] for t in tags}
    if include_unspecified:
        groups[SubgroupKey(variable, UNSPECIFIED)] = []
    for record in records:
        tag = demographic_group(record.demographics, variable)
        if tag is None:
            if include_unspecified:
                groups[SubgroupKey(variable, UNSPECIFIED)].append(record.student_id)
        else:
            groups[SubgroupKey(variable, tag)].append(record.student_id)
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


def split_train_test(
    groups: dict[SubgroupKey, list[str]],
    seed: int,
    val_fraction: float = 0.2,
    train_fraction: float = 0.8,
) -> DatasetSplit:
    """Per-subgroup 4:1 train/test split with a validation share carved from train.

    Each subgroup is shuffled once; `cut` takes its training pool off the front
    and then the validation share off the front of that pool, so test keeps at
    least one student and so does train, and validation takes one once the pool
    holds two. Deterministic given the seed.
    """
    assignments: dict[SubgroupKey, SplitAssignment] = {}
    for key in sorted(groups):
        ids = groups[key]
        if len(ids) < 2:
            raise SplitError(f"subgroup {key} has {len(ids)} student(s); need at least 2 to split")
        rng = rng_for(seed, "split", key.variable, key.group)
        train_pool, test = cut([ids[i] for i in rng.permutation(len(ids))], train_fraction)
        val, train = cut(train_pool, val_fraction)
        assignments[key] = SplitAssignment(train=train, val=val, test=test)
    return DatasetSplit(assignments=assignments)
