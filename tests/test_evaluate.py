import ast
import dataclasses
import inspect
import pathlib
import re
import textwrap

import numpy as np
import pytest

from fedstudent.evaluate import (
    ExperimentPlan,
    build_fold_split,
    count_test_reads,
    cross_validate,
    execute_run,
    export_embeddings,
)
from fedstudent import evaluate, federation, optim
from fedstudent.activity import Demographics, StudentRecord
from fedstudent.config import PLAN_KEYS, ConfigError, parse_config
from fedstudent.federation import FederationError, MetaConfig, TrainSettings
from fedstudent.optim import OptState
from fedstudent.params import ModelParams
from fedstudent.splits import SplitError, SubgroupKey
from fedstudent.synthgen import CohortSpec, SubgroupProfile, generate_cohort, kind_biased_transition

N_VIDEOS = 5


def small_cohort(pop=20, seed=0):
    profiles = []
    for name, watch_share in (("M", 0.8), ("F", 0.4)):
        profiles.append(SubgroupProfile(
            name=name,
            population=pop,
            transition=kind_biased_transition(watch_share),
            video_access=np.full(N_VIDEOS, 1.0 / N_VIDEOS),
            quiz_correct_prob=0.6,
            length_mean=6.0,
            pass_intercept=-1.5,
            pass_weight_correct=4.0,
        ))
    spec = CohortSpec(n_videos=N_VIDEOS, quiz_videos=set(range(N_VIDEOS)), profiles=profiles)
    return generate_cohort(spec, seed=seed)


def small_plan(**overrides):
    fields = dict(
        variable="G",
        include_unspecified=False,
        strategies=("FedAvg",),
        rounds=1,
        local_iters=1,
        settings=TrainSettings(hidden_dim=6, dropout=0.0, batch_size=4, lr=1e-3),
        meta=MetaConfig(inner_lr=0.05, outer_lr=0.01),
        folds=1,
        seeds=(0,),
        fold_seed=7,
    )
    fields.update(overrides)
    return ExperimentPlan(**fields)


def hand_records(*students):
    """Records keyed by id from (id, gender or None, label) triples."""
    return {sid: StudentRecord(sid, Demographics(gender=gender), sequence=np.ones((1, N_VIDEOS + 7)),
                               label=label)
            for sid, gender, label in students}


class TestBuildFoldSplit:
    def test_five_folds_cover_each_subgroup(self):
        records = {r.student_id: r for r in small_cohort(pop=25)}
        plan = small_plan(folds=5)
        all_test: dict[str, set] = {}
        for fold in range(5):
            split = build_fold_split(records, plan, fold)
            for key in split.subgroups():
                a = split.assignments[key]
                assert set(a.train) | set(a.val) | set(a.test) == {
                    sid for sid, r in records.items()
                    if r.demographics.gender == key.group
                }
                all_test.setdefault(str(key), set()).update(a.test)
                assert len(a.test) == pytest.approx(25 / 5, abs=2)
        for key, ids in all_test.items():
            assert len(ids) == 25  # folds partition every subgroup

    def test_folds_fixed_across_seeds(self):
        records = {r.student_id: r for r in small_cohort(pop=20)}
        plan = small_plan(folds=4)
        s1 = build_fold_split(records, plan, 1)
        s2 = build_fold_split(records, plan, 1)
        for key in s1.subgroups():
            assert s1.assignments[key].test == s2.assignments[key].test

    def test_single_fold_is_eighty_twenty(self):
        records = {r.student_id: r for r in small_cohort(pop=30)}
        split = build_fold_split(records, small_plan(folds=1), 0)
        for key in split.subgroups():
            a = split.assignments[key]
            total = len(a.train) + len(a.val) + len(a.test)
            assert total == 30
            assert 4 <= len(a.test) <= 8

    def test_stratification_keeps_both_labels_in_test(self):
        records = {r.student_id: r for r in small_cohort(pop=40, seed=3)}
        plan = small_plan(folds=4)
        for fold in range(4):
            split = build_fold_split(records, plan, fold)
            for key in split.subgroups():
                labels = {records[sid].label for sid in split.assignments[key].test}
                source_labels = {r.label for r in records.values()
                                 if r.demographics.gender == key.group}
                if len(source_labels) == 2:
                    assert labels == {0, 1}

    def test_fold_with_an_empty_test_chunk_is_too_small(self):
        # Three folds of F's two label-0 students leave fold 2's test chunk empty.
        records = hand_records(*[(f"m{i}", "M", i % 2) for i in range(6)], ("f0", "F", 0), ("f1", "F", 0))
        plan = small_plan(folds=3)
        assert len(build_fold_split(records, plan, 0).assignments) == 2
        with pytest.raises(SplitError, match="^subgroup G:F too small for a 3-fold split$"):
            build_fold_split(records, plan, 2)

    def test_holdout_of_one_student_per_label_is_too_small(self):
        records = hand_records(*[(f"m{i}", "M", i % 2) for i in range(6)], ("f0", "F", 0), ("f1", "F", 1))
        with pytest.raises(SplitError, match="^subgroup G:F too small for a 1-fold split$"):
            build_fold_split(records, small_plan(folds=1), 0)

    def test_no_subgroup_without_the_unspecified_group(self):
        records = hand_records(*[(f"u{i}", None, i % 2) for i in range(6)])
        with pytest.raises(SplitError, match="^no subgroups found for variable G$"):
            build_fold_split(records, small_plan(include_unspecified=False), 0)
        assert list(build_fold_split(records, small_plan(include_unspecified=True), 0).assignments) == [
            SubgroupKey("G", "unspecified")]


class TestExecuteRun:
    def test_outcome_shape(self):
        records = small_cohort()
        outcome = execute_run(records, small_plan(), "FedAvg", 0, 0)
        assert set(outcome.subgroup_auc) == {"G:M", "G:F"}
        assert outcome.final_params is not None
        assert set(outcome.eval_models) == {"G:M", "G:F"}

    def test_no_test_reads_during_training(self):
        records = small_cohort()
        for strategy in ("FedAvg", "PerFedAttn", "Local", "FedIRT"):
            outcome = execute_run(records, small_plan(), strategy, 0, 0)
            assert count_test_reads(outcome) == 0

    def test_test_reads_happen_in_evaluate_phase(self):
        records = small_cohort()
        outcome = execute_run(records, small_plan(), "FedAvg", 0, 0)
        test = {sid for ids in outcome.test_ids.values() for sid in ids}
        eval_reads = sum(
            c for (phase, sid, fieldname), c in outcome.access_counts.items()
            if phase == "evaluate" and sid in test
        )
        assert eval_reads > 0

    def test_pretraining_runs_before_training(self):
        records = small_cohort()
        plan = small_plan(pretrain_enabled=True, pretrain_epochs=1)
        outcome = execute_run(records, plan, "FedAvg", 0, 0)
        assert len(outcome.pretrain_losses) == 1
        assert count_test_reads(outcome) == 0

    def test_one_label_test_split_leaves_auc_undefined(self):
        records = [dataclasses.replace(r, label=0) if r.demographics.gender == "F" else r
                   for r in small_cohort()]
        outcome = execute_run(records, small_plan(), "FedAvg", 0, 3)
        assert outcome.subgroup_auc["G:F"] is None
        assert outcome.subgroup_auc["G:M"] is not None
        [warning] = [w for w in outcome.warnings if "G:F" in w]
        assert warning.startswith("FedAvg fold 0 seed 3 subgroup G:F: AUC undefined")
        report = cross_validate(records, small_plan(seeds=(3,)))
        assert [row.subgroup for row in report.rows] == ["G:M"]
        assert report.warnings[-1] == "FedAvg subgroup G:F: no defined AUC in any run"

    def test_pretraining_never_reads_labels(self):
        from fedstudent.evaluate import pretrain_for_fold

        records = small_cohort()
        plan = small_plan(pretrain_enabled=True, pretrain_epochs=1)
        _, _, counts = pretrain_for_fold(records, plan, 0, 0)
        label_reads = [key for key in counts if key[0] == "pretrain" and key[2] == "label"]
        assert label_reads == []
        sequence_reads = [key for key in counts if key[0] == "pretrain" and key[2] == "sequence"]
        assert sequence_reads  # it does read training sequences


class TestCrossValidate:
    def test_run_counts(self):
        records = small_cohort()
        plan = small_plan(strategies=("FedAvg", "Local"), folds=2, seeds=(0, 1))
        report = cross_validate(records, plan)
        assert len(report.outcomes) == 2 * 2 * 2
        for row in report.rows:
            assert row.n_runs == 4

    def test_single_run_zero_std(self):
        records = small_cohort()
        plan = small_plan(seeds=(7,), folds=1)
        report = cross_validate(records, plan)
        for row in report.rows:
            assert row.std_auc == 0.0
            assert row.n_runs == 1

    def test_determinism(self):
        records = small_cohort()
        plan = small_plan(strategies=("PerFedAttn",), seeds=(0, 1))
        r1 = cross_validate(records, plan)
        r2 = cross_validate(records, plan)
        assert [(x.strategy, x.subgroup, x.mean_auc, x.std_auc) for x in r1.rows] == \
               [(x.strategy, x.subgroup, x.mean_auc, x.std_auc) for x in r2.rows]

    def test_parallel_equals_sequential(self):
        records = small_cohort()
        plain = small_plan(strategies=("FedAvg",), seeds=(0, 1), folds=2)
        pretrained = small_plan(strategies=("FedAvg", "PerFedAttn"), seeds=(0, 1), folds=2,
                                pretrain_enabled=True, pretrain_epochs=1)
        for plan in (plain, pretrained):
            seq = cross_validate(records, plan, jobs=1)
            par = cross_validate(records, plan, jobs=2)
            assert [(x.strategy, x.subgroup, x.mean_auc) for x in seq.rows] == \
                   [(x.strategy, x.subgroup, x.mean_auc) for x in par.rows]
            assert len(seq.outcomes) == len(par.outcomes) == len(plan.strategies) * 4
            for o1, o2 in zip(seq.outcomes, par.outcomes):
                assert (o1.strategy, o1.fold, o1.seed) == (o2.strategy, o2.fold, o2.seed)
                assert o1.rounds == o2.rounds
                assert o1.pretrain_losses == o2.pretrain_losses
                assert o1.access_counts == o2.access_counts
                assert o1.eval_models.keys() == o2.eval_models.keys()
                models = [(o1.final_params, o2.final_params)] + [
                    (o1.eval_models[key], o2.eval_models[key]) for key in o1.eval_models]
                for m1, m2 in models:
                    for name in m1.names():
                        assert np.array_equal(m1[name], m2[name])
        assert all(len(o.pretrain_losses) == 1 for o in par.outcomes)

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match="jobs must be at least 1, got 0"):
            cross_validate(small_cohort(), small_plan(), jobs=0)


class TestPlanCheck:
    @pytest.mark.parametrize("overrides, name", [
        ({"folds": 0}, "folds"),
        ({"seeds": ()}, "seeds"),
        ({"settings": TrainSettings(dropout=1.5)}, "model.dropout"),
        ({"settings": TrainSettings(lr=-1.0)}, "optimizer.lr"),
        ({"settings": TrainSettings(batch_size=0)}, "model.batch_size"),
    ])
    def test_bad_code_built_plan_names_its_key(self, overrides, name):
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be"):
            cross_validate(small_cohort(), ExperimentPlan(**overrides))

    @pytest.mark.parametrize("task", ["execute_run", "pretrain_for_fold"])
    def test_bad_plan_handed_straight_to_a_task_names_its_key(self, task):
        """A run or pretraining task checks its plan as `cross_validate` does, before any work."""
        plan = small_plan(pretrain_enabled=True, settings=TrainSettings(hidden_dim=6, dropout=1.5))
        args = ("FedAvg", 0, 0) if task == "execute_run" else (0, 0)
        with pytest.raises(ConfigError, match=r"^model\.dropout must be"):
            getattr(evaluate, task)(small_cohort(), plan, *args)

    def test_plan_dataclasses_leave_bounds_to_the_key_table(self):
        """No plan dataclass checks its values in `__post_init__`; the `KEYS` rows bound
        them all. OptState keeps its kind check, which guards optimizer_step's dispatch."""
        plan = ExperimentPlan()
        classes = {ExperimentPlan, OptState} | {
            type(getattr(plan, key.attr.partition(".")[0])) for key in PLAN_KEYS if "." in key.attr}
        checks = {}
        for cls in classes:
            if "__post_init__" in vars(cls):
                tree = ast.parse(textwrap.dedent(inspect.getsource(cls.__post_init__)))
                checks[cls.__name__] = (
                    [ast.unparse(node.test) for node in ast.walk(tree) if isinstance(node, ast.If)],
                    sum(isinstance(node, ast.Raise) for node in ast.walk(tree)),
                )
        assert len(classes) == 5
        assert checks == {"OptState": (["self.kind not in OPTIMIZER_KINDS"], 1)}

    def test_default_meta_steps_at_the_training_lr_as_the_json_twin(self, monkeypatch):
        """A plan built in code with lr 5e-3 and the default meta config equals its JSON
        twin, which leaves meta.outer_lr out, and takes every outer SGD step at 5e-3."""
        settings = TrainSettings(hidden_dim=6, dropout=0.0, batch_size=4, lr=5e-3)
        plan = ExperimentPlan(strategies=("PerFedAvgAgg",), rounds=1, local_iters=1,
                              settings=settings, folds=1, seeds=(0,))
        twin = parse_config({
            "version": 1,
            "dataset": {"kind": "generated", "spec_path": "cohort.json"},
            "strategies": ["PerFedAvgAgg"], "rounds": 1, "local_iters": 1,
            "model": {"hidden_dim": 6, "dropout": 0.0, "batch_size": 4},
            "optimizer": {"lr": 5e-3}, "folds": 1, "seeds": [0],
        }, base_dir=str(pathlib.Path(__file__).parent.parent / "examples_config")).plan
        assert twin == plan
        rates = []

        def recording_step(params, grads, opt, step=optim.optimizer_step):
            rates.append((opt.kind, opt.lr))
            return step(params, grads, opt)

        monkeypatch.setattr(optim, "optimizer_step", recording_step)
        execute_run(small_cohort(), plan, "PerFedAvgAgg", 0, 0)
        assert rates and set(rates) == {("sgd", 5e-3)}


class TestTaskRunner:
    @staticmethod
    def fake_pools(monkeypatch) -> list[int]:
        """Replace the process pool with one that records its size and runs tasks here."""
        sizes: list[int] = []

        class FakePool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, function, tasks):
                return map(function, tasks)

        monkeypatch.setattr(evaluate, "ProcessPoolExecutor", FakePool)
        return sizes

    @pytest.mark.parametrize("jobs, pools", [(1, []), (3, [3]), (8, [8]), (64, [8])])
    def test_one_pool_of_at_most_one_worker_per_run(self, monkeypatch, jobs, pools):
        sizes = self.fake_pools(monkeypatch)
        pretrainings = []
        run_pretraining = evaluate.run_pretraining

        def counted_pretraining(*args, **kwargs):
            pretrainings.append(args[4])  # the seed
            return run_pretraining(*args, **kwargs)

        monkeypatch.setattr(evaluate, "run_pretraining", counted_pretraining)
        plan = small_plan(strategies=("FedAvg", "Local"), seeds=(0, 1), folds=2,
                          pretrain_enabled=True, pretrain_epochs=1)
        report = cross_validate(small_cohort(), plan, jobs=jobs)
        assert sizes == pools
        assert pretrainings == [0, 1, 0, 1]  # once per (fold, seed), shared by both strategies
        assert [(o.strategy, o.fold, o.seed) for o in report.outcomes] == [
            (strategy, fold, seed) for strategy in plan.strategies for fold in (0, 1) for seed in (0, 1)]
        assert all(len(o.pretrain_losses) == 1 for o in report.outcomes)

    def test_single_run_opens_no_pool(self, monkeypatch):
        sizes = self.fake_pools(monkeypatch)
        report = cross_validate(small_cohort(), small_plan(seeds=(0,), folds=1), jobs=8)
        assert sizes == [] and len(report.outcomes) == 1

    def test_one_place_opens_a_process_pool(self):
        """`cross_validate`'s one mapper opens the only pool, so no second path comes back."""
        package = pathlib.Path(__file__).resolve().parents[1] / "src" / "fedstudent"
        sites = [(path.name, lineno) for path in sorted(package.rglob("*.py"))
                 for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                 if "ProcessPoolExecutor(" in line]
        tree = ast.parse((package / "evaluate.py").read_text(encoding="utf-8"))
        mapper = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "_task_mapper")
        assert len(sites) == 1 and sites[0][0] == "evaluate.py"
        assert mapper.lineno <= sites[0][1] <= mapper.end_lineno


class TestFailedRunIsNamed:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_names_strategy_fold_and_seed(self, monkeypatch, jobs):
        def failing_meta_gradient(*args, **kwargs):
            raise FederationError("meta-gradient produced non-finite values")

        # Pool workers fork after the patch, so they inherit it.
        monkeypatch.setattr(federation, "meta_gradient", failing_meta_gradient)
        plan = small_plan(strategies=("FedAvg", "PerFedAvgAgg"), seeds=(3,), folds=2)
        named = r"^PerFedAvgAgg fold 0 seed 3: round 1 \(PerFedAvgAgg\): meta-gradient"
        with pytest.raises(FederationError, match=named):
            cross_validate(small_cohort(), plan, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_scoring_error_names_strategy_fold_and_seed(self, monkeypatch, jobs):
        def failing_score(*args, **kwargs):
            raise ValueError("scorer exploded")

        monkeypatch.setattr(evaluate, "scored_auc", failing_score)
        plan = small_plan(seeds=(3,), folds=2)
        with pytest.raises(FederationError, match="^FedAvg fold 0 seed 3: scorer exploded$"):
            cross_validate(small_cohort(), plan, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pretraining_error_names_fold_and_seed(self, monkeypatch, jobs):
        def failing_pretraining(*args, **kwargs):
            raise ValueError("pretraining exploded")

        monkeypatch.setattr(evaluate, "run_pretraining", failing_pretraining)
        plan = small_plan(seeds=(3,), folds=2, pretrain_enabled=True, pretrain_epochs=1)
        with pytest.raises(FederationError, match="^pretraining fold 0 seed 3: pretraining exploded$"):
            cross_validate(small_cohort(), plan, jobs=jobs)


class TestExportEmbeddings:
    def test_row_per_student_with_width(self):
        records = small_cohort()
        params = ModelParams.initialized(6, N_VIDEOS + 7, np.random.default_rng(0))
        dump = export_embeddings(params, records, "G", include_unspecified=False)
        assert len(dump.rows) == len(records)
        for _, subgroup, vec in dump.rows:
            assert vec.shape == (6,)
            assert subgroup in ("G:M", "G:F")

    def test_zero_model_zero_rows(self):
        records = small_cohort()
        params = ModelParams.zeros(6, N_VIDEOS + 7)
        dump = export_embeddings(params, records, "G", include_unspecified=True)
        for _, _, vec in dump.rows:
            assert np.all(vec == 0.0)

    def test_deterministic(self):
        records = small_cohort()
        params = ModelParams.initialized(6, N_VIDEOS + 7, np.random.default_rng(1))
        d1 = export_embeddings(params, records, "G", include_unspecified=True)
        d2 = export_embeddings(params, records, "G", include_unspecified=True)
        for (s1, g1, v1), (s2, g2, v2) in zip(d1.rows, d2.rows):
            assert s1 == s2 and g1 == g2 and np.array_equal(v1, v2)

    def test_width_mismatch_rejected(self):
        records = small_cohort()
        params = ModelParams.zeros(6, 9)
        with pytest.raises(ValueError, match="width"):
            export_embeddings(params, records, "G", include_unspecified=True)
