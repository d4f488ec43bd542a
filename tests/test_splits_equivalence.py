"""`build_fold_split` against `reference.splits_v0`.

Every cut now goes through `splits.cut`, and each label is split in one pass.
On every input below the split must do what the oracle does: give the same
train/val/test lists per subgroup, in the same order, or raise a `SplitError`
with the same text. The inputs are generated: cohorts whose per-label subgroup
sizes run from 0 to 12 (some subgroups with one label only, one cohort with no
specified student), under each demographic variable, with and without the
unspecified group, at 1 to 6 folds and every fold index.
"""

import numpy as np
import pytest

from fedstudent.activity import UNSPECIFIED, VARIABLES, Demographics, StudentRecord, demographic_variable
from fedstudent.config import ExperimentPlan
from fedstudent.evaluate import build_fold_split
from fedstudent.splits import SplitError
from reference import splits_v0 as ref

SEQUENCE = np.ones((1, 11))
BIRTH_YEAR = {"le1980": 1975, "1981to1990": 1985, "gt1990": 1995}
# Upper bounds (exclusive) of the per-label sizes of successive cohorts: small
# cohorts reach the "too small" error, larger ones split.
SIZE_BOUNDS = (2, 4, 13, 7, 13, 3)
N_COHORTS = 18


def demographics(variable, tag):
    if tag == UNSPECIFIED:
        return Demographics()
    if variable == "G":
        return Demographics(gender=tag)
    if variable == "C":
        return Demographics(continent=tag)
    return Demographics(birth_year=BIRTH_YEAR[tag])


def cohort(variable, index):
    """Records keyed by id; per (subgroup, label) sizes drawn from 0 to 12, ids numbered
    in shuffled order so sorting them mixes labels and subgroups.

    Every other cohort has its first subgroup hold label 0 only; the last cohort
    has only unspecified students."""
    rng = np.random.default_rng([VARIABLES.index(variable), index])
    tags = (*demographic_variable(variable).tags, UNSPECIFIED)
    sizes = {(tag, label): int(rng.integers(0, SIZE_BOUNDS[index % len(SIZE_BOUNDS)]))
             for tag in tags for label in (0, 1)}
    if index % 2 == 0:
        sizes[tags[0], 1] = 0
    if index == N_COHORTS - 1:
        sizes = {(tag, label): 12 if tag == UNSPECIFIED else 0 for tag, label in sizes}
    members = [(tag, label) for (tag, label), n in sizes.items() for _ in range(n)]
    numbers = rng.permutation(len(members))
    records = [StudentRecord(f"s{number:03d}", demographics(variable, tag), sequence=SEQUENCE, label=label)
               for number, (tag, label) in zip(numbers, members)]
    return {record.student_id: record for record in records}


def outcome(split_fn, *args, **kwargs):
    """Each subgroup's (key, train, val, test) in the split's order, or the SplitError text."""
    try:
        split = split_fn(*args, **kwargs)
    except SplitError as exc:
        return f"SplitError: {exc}"
    return [(key, a.train, a.val, a.test) for key, a in split.assignments.items()]


@pytest.mark.parametrize("folds", range(1, 7))
@pytest.mark.parametrize("include_unspecified", [False, True])
@pytest.mark.parametrize("variable", VARIABLES)
def test_fold_split_matches_oracle(variable, include_unspecified, folds):
    plan = ExperimentPlan(variable=variable, include_unspecified=include_unspecified,
                          folds=folds, fold_seed=folds * 31 + 5)
    seen = []
    for index in range(N_COHORTS):
        records = cohort(variable, index)
        for fold_idx in range(folds):
            expected = outcome(ref.build_fold_split, records, plan, fold_idx)
            assert outcome(build_fold_split, records, plan, fold_idx) == expected, (index, fold_idx)
            seen.append(expected if isinstance(expected, str) else "split")
    # The grid reaches each outcome the oracle can give.
    assert "split" in seen
    assert any("too small" in text for text in seen)
    assert any(text.startswith("SplitError: no subgroups found") for text in seen) == (not include_unspecified)
