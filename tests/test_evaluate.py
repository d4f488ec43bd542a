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
from fedstudent import evaluate, federation
from fedstudent.federation import FederationError, MetaConfig, TrainSettings
from fedstudent.params import ModelParams
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


class TestExecuteRun:
    def test_outcome_shape(self):
        records = small_cohort()
        outcome = execute_run(records, small_plan(), "FedAvg", 0, 0)
        assert set(outcome.subgroup_auc) == {"G:M", "G:F"}
        assert outcome.final_params is not None
        assert set(outcome.eval_models) == {"G:M", "G:F"}

    def test_no_test_reads_during_training(self):
        records = small_cohort()
        for strategy in ("FedAvg", "PerFedAttn", "Local"):
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
        plan = small_plan(strategies=("FedAvg",), seeds=(0, 1), folds=2)
        seq = cross_validate(records, plan, jobs=1)
        par = cross_validate(records, plan, jobs=2)
        assert [(x.strategy, x.subgroup, x.mean_auc) for x in seq.rows] == \
               [(x.strategy, x.subgroup, x.mean_auc) for x in par.rows]
        for o1, o2 in zip(seq.outcomes, par.outcomes):
            for name in o1.final_params.names():
                assert np.array_equal(o1.final_params[name], o2.final_params[name])


class TestFailedRunIsNamed:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_names_strategy_fold_and_seed(self, monkeypatch, jobs):
        def failing_meta_gradient(*args, **kwargs):
            raise FederationError("meta-gradient produced non-finite values")

        # Pool workers fork after the patch, so they inherit it.
        monkeypatch.setattr(federation, "meta_gradient", failing_meta_gradient)
        plan = small_plan(strategies=("FedAvg", "PerFedAvgAgg"), seeds=(3,), folds=2)
        with pytest.raises(FederationError, match="PerFedAvgAgg fold 0 seed 3: .*meta-gradient"):
            cross_validate(small_cohort(), plan, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_scoring_error_names_strategy_fold_and_seed(self, monkeypatch, jobs):
        def failing_score(*args, **kwargs):
            raise ValueError("scorer exploded")

        monkeypatch.setattr(evaluate, "score", failing_score)
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
        dump = export_embeddings(params, records, "G")
        for _, _, vec in dump.rows:
            assert np.all(vec == 0.0)

    def test_deterministic(self):
        records = small_cohort()
        params = ModelParams.initialized(6, N_VIDEOS + 7, np.random.default_rng(1))
        d1 = export_embeddings(params, records, "G")
        d2 = export_embeddings(params, records, "G")
        for (s1, g1, v1), (s2, g2, v2) in zip(d1.rows, d2.rows):
            assert s1 == s2 and g1 == g2 and np.array_equal(v1, v2)

    def test_width_mismatch_rejected(self):
        records = small_cohort()
        params = ModelParams.zeros(6, 9)
        with pytest.raises(ValueError, match="width"):
            export_embeddings(params, records, "G")
