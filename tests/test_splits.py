import ast
import pathlib

import numpy as np
import pytest

from fedstudent.activity import KIND_SLOT, ActivityKind, Demographics, StudentRecord, event_columns
from fedstudent.splits import (
    SplitError,
    SubgroupKey,
    build_subgroups,
    split_train_test,
)


def make_record(sid, gender=None, continent=None, birth_year=None):
    sequence = np.zeros((1, 4 + 7))
    sequence[0, list(event_columns(KIND_SLOT[ActivityKind.FORUM_VIEW], None, None, 4))] = 1.0
    return StudentRecord(
        sid,
        Demographics(gender=gender, continent=continent, birth_year=birth_year),
        sequence=sequence,
        label=0,
    )


class TestBuildSubgroups:
    def test_gender_partition_with_unspecified(self):
        records = [make_record("a", gender="M"), make_record("b", gender="F"), make_record("c")]
        groups = build_subgroups(records, "G", include_unspecified=True)
        assert {k.group: len(v) for k, v in groups.items()} == {"M": 1, "F": 1, "unspecified": 1}

    def test_gender_partition_excluding_unspecified(self):
        records = [make_record("a", gender="M"), make_record("b", gender="F"), make_record("c")]
        groups = build_subgroups(records, "G", include_unspecified=False)
        assert {k.group for k in groups} == {"M", "F"}

    def test_continent_has_at_most_five_named_groups(self):
        records = [make_record(f"s{i}", continent=c) for i, c in enumerate(["AS", "AS", "EU"])]
        groups = build_subgroups(records, "C", include_unspecified=True)
        named = {k.group for k in groups} - {"unspecified"}
        assert named <= {"AS", "AF", "EU", "NA", "SA"}
        assert named == {"AS", "EU"}

    def test_union_reproduces_input_ids(self):
        records = [make_record(f"s{i}", gender="M" if i % 3 == 0 else None) for i in range(20)]
        groups = build_subgroups(records, "G", include_unspecified=True)
        union = {sid for ids in groups.values() for sid in ids}
        assert union == {r.student_id for r in records}

    def test_year_banding(self):
        records = [
            make_record("a", birth_year=1975),
            make_record("b", birth_year=1985),
            make_record("c", birth_year=1995),
        ]
        groups = build_subgroups(records, "Y", include_unspecified=False)
        assert {k.group for k in groups} == {"le1980", "1981to1990", "gt1990"}


class TestSplitTrainTest:
    def group(self, n, tag="M"):
        return {SubgroupKey("G", tag): [f"{tag}{i}" for i in range(n)]}

    def test_hundred_students(self):
        split = split_train_test(self.group(100), seed=3)
        a = split.assignments[SubgroupKey("G", "M")]
        assert len(a.train) == 64 and len(a.val) == 16 and len(a.test) == 20

    def test_ten_students(self):
        split = split_train_test(self.group(10), seed=3)
        a = split.assignments[SubgroupKey("G", "M")]
        assert len(a.train) == 7 and len(a.val) == 1 and len(a.test) == 2

    def test_determinism(self):
        s1 = split_train_test(self.group(37), seed=11)
        s2 = split_train_test(self.group(37), seed=11)
        a1 = s1.assignments[SubgroupKey("G", "M")]
        a2 = s2.assignments[SubgroupKey("G", "M")]
        assert a1.train == a2.train and a1.val == a2.val and a1.test == a2.test

    def test_partition_property(self):
        groups = {
            SubgroupKey("G", "M"): [f"m{i}" for i in range(23)],
            SubgroupKey("G", "F"): [f"f{i}" for i in range(9)],
        }
        split = split_train_test(groups, seed=5)
        for key, ids in groups.items():
            a = split.assignments[key]
            parts = set(a.train) | set(a.val) | set(a.test)
            assert parts == set(ids)
            assert len(a.train) + len(a.val) + len(a.test) == len(ids)
            assert not (set(a.train) & set(a.val))
            assert not (set(a.train) & set(a.test))
            assert not (set(a.val) & set(a.test))

    def test_singleton_group_rejected(self):
        with pytest.raises(SplitError, match="G:M"):
            split_train_test(self.group(1), seed=0)

    def test_two_students_split_without_validation(self):
        split = split_train_test(self.group(2), seed=0)
        a = split.assignments[SubgroupKey("G", "M")]
        assert len(a.train) == 1 and len(a.val) == 0 and len(a.test) == 1

    def test_full_validation_share_keeps_one_training_student(self):
        a = split_train_test(self.group(10), seed=3, val_fraction=1.0).assignments[SubgroupKey("G", "M")]
        assert (len(a.train), len(a.val), len(a.test)) == (1, 7, 2)

    def test_train_fraction_above_one_keeps_one_test_student(self):
        a = split_train_test(self.group(10), seed=3, train_fraction=1.5).assignments[SubgroupKey("G", "M")]
        assert (len(a.train), len(a.val), len(a.test)) == (8, 1, 1)


def test_one_place_sizes_a_split():
    """`splits.cut` computes every split size, so no second size rule comes back."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "fedstudent"
    sites = [(path.name, lineno) for path in sorted(package.rglob("*.py"))
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "int(len(" in line]
    tree = ast.parse((package / "splits.py").read_text(encoding="utf-8"))
    helper = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "cut")
    assert len(sites) == 1 and sites[0][0] == "splits.py"
    assert helper.lineno <= sites[0][1] <= helper.end_lineno
