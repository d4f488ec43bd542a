import ast
import pathlib

import numpy as np
import pytest

from fedstudent.activity import KIND_SLOT, ActivityKind, Demographics, StudentRecord, event_columns
from fedstudent.federation import ExperimentPlan
from fedstudent.splits import SplitError, SubgroupKey, build_fold_split, build_subgroups, cut


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


@pytest.mark.parametrize(("n", "fraction", "head"), [
    (0, 0.2, 0),
    (1, 0.2, 0),
    (1, 1.0, 0),
    (2, 0.2, 1),
    (3, 0.5, 1),
    (4, 0.5, 2),
    (5, 0.2, 1),
    (9, 0.2, 1),
    (10, 0.2, 2),
    (100, 0.2, 20),
    (10, 0.0, 1),
    (10, 1.0, 9),
    (10, 1.5, 9),
])
def test_cut_keeps_floor_share_of_at_least_one_and_leaves_a_tail(n, fraction, head):
    items = [f"s{i}" for i in range(n)]
    first, rest = cut(items, fraction)
    assert len(first) == head
    assert first + rest == items


def labelled(tag, n0, n1):
    """`n0` label-0 and `n1` label-1 students of gender `tag`, as (id, record) pairs."""
    return [(f"{tag}{i:03d}", StudentRecord(f"{tag}{i:03d}", Demographics(gender=tag), sequence=np.ones((1, 11)),
                                            label=int(i >= n0)))
            for i in range(n0 + n1)]


class TestHoldoutSplit:
    """`build_fold_split` with one fold: a per-label holdout, then a per-label validation cut."""

    def split(self, *pairs, seed=3):
        return build_fold_split(dict(pairs), ExperimentPlan(variable="G", include_unspecified=False,
                                                            folds=1, fold_seed=seed), 0)

    def sizes(self, split, tag="M"):
        a = split.assignments[SubgroupKey("G", tag)]
        return len(a.train), len(a.val), len(a.test)

    def test_hundred_students(self):
        assert self.sizes(self.split(*labelled("M", 50, 50))) == (64, 16, 20)

    def test_ten_students(self):
        assert self.sizes(self.split(*labelled("M", 10, 0))) == (7, 1, 2)

    def test_two_students_split_without_validation(self):
        assert self.sizes(self.split(*labelled("M", 2, 0))) == (1, 0, 1)

    def test_each_label_is_cut_on_its_own(self):
        records = dict(labelled("M", 30, 10))
        a = self.split(*records.items()).assignments[SubgroupKey("G", "M")]
        counts = [[sum(records[sid].label == label for sid in part) for label in (0, 1)]
                  for part in (a.train, a.val, a.test)]
        assert counts == [[20, 7], [4, 1], [6, 2]]

    def test_partition_property(self):
        split = self.split(*labelled("M", 13, 10), *labelled("F", 5, 4))
        for tag, n in (("M", 23), ("F", 9)):
            a = split.assignments[SubgroupKey("G", tag)]
            assert sorted(a.train + a.val + a.test) == [f"{tag}{i:03d}" for i in range(n)]
            assert all(part == sorted(part) for part in (a.train, a.val, a.test))

    def test_determinism(self):
        assert self.split(*labelled("M", 20, 17), seed=11) == self.split(*labelled("M", 20, 17), seed=11)

    def test_fold_seed_picks_the_holdout(self):
        a = self.split(*labelled("M", 50, 50), seed=11).assignments[SubgroupKey("G", "M")]
        b = self.split(*labelled("M", 50, 50), seed=12).assignments[SubgroupKey("G", "M")]
        assert a.test != b.test and a.val != b.val

    def test_record_order_does_not_move_a_student(self):
        pairs = labelled("M", 20, 17)
        assert self.split(*pairs) == self.split(*reversed(pairs))

    def test_singleton_group_rejected(self):
        with pytest.raises(SplitError, match="^subgroup G:M too small for a 1-fold split$"):
            self.split(*labelled("M", 1, 0), *labelled("F", 5, 5))


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


def test_one_module_splits_students():
    """Only `splits.py` calls `cut`, so the split rules stay in the one module that splits."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "fedstudent"
    callers = {
        path.name for path in package.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "cut"
    }
    assert callers == {"splits.py"}
