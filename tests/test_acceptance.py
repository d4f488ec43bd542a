"""Acceptance suite: one test per criterion, each printing a PASS line with timing.

Criteria 6 and 7 share one set of experiment executions through module-scoped
fixtures; run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import os
import time

import numpy as np
import pytest

from fedstudent.evaluate import (
    ExperimentPlan,
    count_test_reads,
    cross_validate,
)
from fedstudent.federation import (
    AttnAggConfig,
    MetaConfig,
    TrainSettings,
    fedatt_aggregate,
    fedavg_aggregate,
    meta_gradient,
    run_federation,
)
from fedstudent.irt import ResponseMatrix, fit_rasch
from fedstudent.metrics import ScoredStudent, auc
from fedstudent.network import loss_and_gradient
from fedstudent.params import ModelParams, layer_shapes, params_norm
from fedstudent.splits import build_fold_split
from fedstudent.synthgen import (
    CohortSpec,
    SubgroupProfile,
    generate_cohort,
    profile_divergence,
)
from fedstudent.cli import main as cli_main

JOBS = min(4, os.cpu_count() or 1)


def report_line(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_params(k, d, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    shapes = layer_shapes(k, d)
    return ModelParams(k, d, {n: scale * rng.normal(size=s) for n, s in shapes.items()})


def random_sequence(L, d, rng):
    n = d - 7
    X = np.zeros((L, d))
    for t in range(L):
        if rng.random() < 0.6:
            X[t, rng.integers(0, n)] = 1.0
            X[t, n + rng.integers(0, 4)] = 1.0
        else:
            X[t, n + 4 + rng.integers(0, 3)] = 1.0
    return X


class TestCriterion1GradientCorrectness:
    def test_gradients_match_finite_differences(self):
        start = time.perf_counter()
        k, d, L = 4, 10, 6
        step = 1e-5
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            params = random_params(k, d, seed)
            X = random_sequence(L, d, rng)
            label = seed % 2
            analytic = loss_and_gradient(params, "outcome", [X], [label])[1]

            for name in params.names():
                arr = params[name]
                flat = arr.ravel()
                g = analytic[name].ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    up = loss_and_gradient(params, "outcome", [X], [label])[0]
                    flat[i] = orig - step
                    down = loss_and_gradient(params, "outcome", [X], [label])[0]
                    flat[i] = orig
                    fd = (up - down) / (2 * step)
                    denom = max(abs(g[i]) + abs(fd), 1e-4)
                    worst = max(worst, abs(g[i] - fd) / denom)
        elapsed = time.perf_counter() - start
        report_line(
            1, worst <= 1e-4 and elapsed < 30,
            f"max relative gradient error {worst:.2e} over 20 models ({elapsed:.1f}s)",
        )


class QuadraticObjective:
    def __init__(self, curvature):
        self.a = curvature

    def loss_and_gradient(self, params):
        return 0.5 * self.a * params_norm(params) ** 2, params * self.a


class TestCriterion2MetaGradientOracle:
    def test_quadratic_closed_forms(self):
        start = time.perf_counter()
        a, inner = 2.0, 0.1
        theta = random_params(2, 9, 0, scale=1.0)
        _, fo = meta_gradient(theta, QuadraticObjective(a), MetaConfig(inner_lr=inner, mode="first_order"))
        expected_fo = theta * (a * (1 - inner * a))
        err_fo = max(
            float(np.max(np.abs(fo[n] - expected_fo[n]))) for n in theta.names()
        )
        _, hf = meta_gradient(
            theta, QuadraticObjective(a),
            MetaConfig(inner_lr=inner, mode="hessian_fd", hessian_step=1e-4),
        )
        expected_hf = theta * (a * (1 - inner * a) ** 2)
        err_hf = max(
            float(np.max(np.abs(hf[n] - expected_hf[n]))) for n in theta.names()
        )
        elapsed = time.perf_counter() - start
        report_line(
            2, err_fo <= 1e-10 and err_hf <= 1e-6 and elapsed < 1.0,
            f"first-order err {err_fo:.2e}, hessian_fd err {err_hf:.2e} ({elapsed:.2f}s)",
        )


def tiny_cohort(pop=20, n_videos=5, seed=0):
    from fedstudent.synthgen import kind_biased_transition

    profiles = [SubgroupProfile(
        name="M", population=pop, transition=kind_biased_transition(0.7),
        video_access=np.full(n_videos, 1.0 / n_videos), quiz_correct_prob=0.6,
        length_mean=6.0, pass_intercept=-1.0, pass_weight_correct=3.0,
    )]
    spec = CohortSpec(n_videos=n_videos, quiz_videos=set(range(n_videos)), profiles=profiles)
    return generate_cohort(spec, seed=seed)


class TestCriterion3AggregationOracles:
    def test_aggregation_identities(self):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        worst_avg = 0.0
        for trial in range(20):
            n = int(rng.integers(1, 6))
            items = [(random_params(3, 9, 50 * trial + i, scale=1.0), float(rng.integers(1, 30)))
                     for i in range(n)]
            total = sum(c for _, c in items)
            got = fedavg_aggregate(items)
            for name in got.names():
                expected = sum((c / total) * p[name] for p, c in items)
                worst_avg = max(worst_avg, float(np.max(np.abs(got[name] - expected))))

        g = random_params(3, 9, 999, scale=1.0)
        fixed = fedatt_aggregate(g, [g.copy(), g.copy(), g.copy()], AttnAggConfig(step=1.0))
        worst_fix = max(float(np.max(np.abs(fixed[n] - g[n]))) for n in g.names())

        records = tiny_cohort(pop=24)
        record_map = {r.student_id: r for r in records}
        split = build_fold_split(record_map, ExperimentPlan(folds=1, fold_seed=3), 0)
        settings = TrainSettings(hidden_dim=8, dropout=0.5, batch_size=4, lr=1e-3, decay=1e-3)
        plan = ExperimentPlan(rounds=3, local_iters=2, settings=settings)
        fed = run_federation(record_map, split, plan, "FedAvg", seed=11)
        cen = run_federation(record_map, split, plan, "Central", seed=11)
        worst_eq = max(
            float(np.max(np.abs(fed.final_params[n] - cen.final_params[n])))
            for n in fed.final_params.names()
        )
        elapsed = time.perf_counter() - start
        report_line(
            3, worst_avg <= 1e-12 and worst_fix <= 1e-12 and worst_eq <= 1e-12 and elapsed < 60,
            f"weighted-mean err {worst_avg:.2e}, fixed-point err {worst_fix:.2e}, "
            f"single-client-vs-central err {worst_eq:.2e} ({elapsed:.1f}s)",
        )


class TestCriterion4AucOracle:
    def test_rank_auc_equals_pair_counting(self):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        mismatches = 0
        for trial in range(200):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = (rng.integers(0, 6, size=n) / 5.0) if trial % 2 else rng.random(n)
            scored = [ScoredStudent(str(i), float(s), int(y)) for i, (s, y) in enumerate(zip(scores, labels))]
            got = auc(scored)
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
            expected = wins / (len(pos) * len(neg))
            if got != expected:
                mismatches += 1
        elapsed = time.perf_counter() - start
        report_line(
            4, mismatches == 0 and elapsed < 5,
            f"{mismatches} mismatches vs brute force over 200 instances ({elapsed:.1f}s)",
        )


class TestCriterion5RaschRecovery:
    def test_synthetic_recovery(self):
        start = time.perf_counter()
        rng = np.random.default_rng(17)
        theta_true = rng.normal(0.0, 1.0, size=200)
        b_true = rng.normal(0.0, 1.0, size=20)
        b_true = b_true - b_true.mean()
        p = 1.0 / (1.0 + np.exp(-(theta_true[:, None] - b_true[None, :])))
        responses = (rng.random((200, 20)) < p).astype(float)
        matrix = ResponseMatrix(
            student_ids=[f"s{i}" for i in range(200)],
            item_ids=list(range(20)),
            responses=responses,
        )
        fit = fit_rasch(matrix, max_iters=200, tol=1e-7)
        b_hat = np.array([fit.difficulties[i] for i in range(20)])
        corr = float(np.corrcoef(b_hat, b_true)[0, 1])
        rmse = float(np.sqrt(np.mean((b_hat - b_true) ** 2)))
        monotone = bool(np.all(np.diff(np.array(fit.objective_history)) >= -1e-9))
        elapsed = time.perf_counter() - start
        report_line(
            5, corr >= 0.9 and rmse <= 0.3 and monotone and elapsed < 30,
            f"difficulty corr {corr:.3f}, RMSE {rmse:.3f}, monotone ascent {monotone} ({elapsed:.1f}s)",
        )


# ---------------------------------------------------------------------------
# Criteria 6 and 7: heterogeneity ordering and pretraining non-regression.
# One heterogeneous cohort of 2 subgroups x 400 students. The two subgroups
# watch disjoint video catalogues with different watch/forum mixes, share the
# sign of the quiz-correctness effect on passing, and have opposite-signed
# forum effects, so a single averaged model cannot serve both.
# ---------------------------------------------------------------------------

ACCEPT_SEEDS = (0, 1, 2, 3, 4)
COHORT_GEN_SEED = 314
N_VIDEOS_ACCEPT = 12


def _acceptance_transition(watch_share, noanswer_share=0.15, stay=0.25):
    base = np.empty(7)
    answered = watch_share * (1.0 - noanswer_share)
    base[:3] = answered / 3.0
    base[3] = watch_share * noanswer_share
    base[4:] = (1.0 - watch_share) / 3.0
    rows = np.tile(base, (7, 1)) * (1.0 - stay)
    rows[np.diag_indices(7)] += stay
    return rows


def acceptance_cohort_spec(pop=400, w_correct=5.0, w_forum=6.0):
    half = N_VIDEOS_ACCEPT // 2
    access_a = np.zeros(N_VIDEOS_ACCEPT)
    access_b = np.zeros(N_VIDEOS_ACCEPT)
    access_a[:half] = 1.0 / half
    access_b[half:] = 1.0 / half
    quiz_rate, watch_a, watch_b = 0.5, 0.7, 0.45
    answered_share = 0.85
    profiles = [
        SubgroupProfile(
            name="M", population=pop, transition=_acceptance_transition(watch_a),
            video_access=access_a, quiz_correct_prob=quiz_rate,
            length_mean=20.0, length_dispersion=4.0,
            pass_intercept=-(w_correct * quiz_rate * answered_share + w_forum * (1 - watch_a)),
            pass_weight_correct=w_correct, pass_weight_forum=w_forum,
        ),
        SubgroupProfile(
            name="F", population=pop, transition=_acceptance_transition(watch_b),
            video_access=access_b, quiz_correct_prob=quiz_rate,
            length_mean=20.0, length_dispersion=4.0,
            pass_intercept=-(w_correct * quiz_rate * answered_share - w_forum * (1 - watch_b)),
            pass_weight_correct=w_correct, pass_weight_forum=-w_forum,
        ),
    ]
    return CohortSpec(
        n_videos=N_VIDEOS_ACCEPT, quiz_videos=set(range(N_VIDEOS_ACCEPT)),
        profiles=profiles,
    )


@pytest.fixture(scope="module")
def hetero_records():
    spec = acceptance_cohort_spec()
    divergence = profile_divergence(spec.profiles[0], spec.profiles[1])
    assert divergence >= 0.8
    return generate_cohort(spec, seed=COHORT_GEN_SEED)


def acceptance_plan(strategies, pretrain_epochs=0):
    return ExperimentPlan(
        variable="G",
        include_unspecified=False,
        strategies=strategies,
        rounds=10,
        local_iters=5,
        settings=TrainSettings(hidden_dim=24, dropout=0.5, batch_size=8,
                               opt_kind="adam", lr=1e-3, decay=1e-3),
        meta=MetaConfig(inner_lr=0.1, outer_lr=0.25, meta_batch=8),
        attn=AttnAggConfig(step=1.0),
        pretrain_enabled=pretrain_epochs > 0,
        pretrain_epochs=pretrain_epochs,
        folds=1,
        seeds=ACCEPT_SEEDS,
        fold_seed=2024,
    )


@pytest.fixture(scope="module")
def ordering_runs(hetero_records):
    plan = acceptance_plan(("PerFedAttn", "FedAvg", "Local"))
    start = time.perf_counter()
    report = cross_validate(hetero_records, plan, jobs=JOBS)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def central_pretrain_runs(hetero_records):
    baseline = cross_validate(hetero_records, acceptance_plan(("Central",)), jobs=JOBS)
    pretrained = cross_validate(
        hetero_records, acceptance_plan(("Central",), pretrain_epochs=1), jobs=JOBS
    )
    return baseline, pretrained


def macro_by_seed(report, strategy):
    """Per-seed mean of the per-subgroup test AUCs."""
    out = {}
    for outcome in report.outcomes:
        if outcome.strategy != strategy:
            continue
        values = [v for v in outcome.subgroup_auc.values() if v is not None]
        out[outcome.seed] = float(np.mean(values))
    return out


@pytest.mark.slow
class TestCriterion6HeterogeneityOrdering:
    def test_personalized_beats_global_and_local(self, ordering_runs):
        report, elapsed = ordering_runs
        per = macro_by_seed(report, "PerFedAttn")
        fed = macro_by_seed(report, "FedAvg")
        loc = macro_by_seed(report, "Local")
        mean_per = float(np.mean(list(per.values())))
        mean_fed = float(np.mean(list(fed.values())))
        mean_loc = float(np.mean(list(loc.values())))
        ok = (mean_per >= mean_fed + 0.03) and (mean_per >= mean_loc + 0.03) and elapsed < 900
        report_line(
            6, ok,
            f"mean per-subgroup AUC PerFedAttn {mean_per:.4f} vs FedAvg {mean_fed:.4f} "
            f"(gap {mean_per - mean_fed:+.4f}) and Local {mean_loc:.4f} "
            f"(gap {mean_per - mean_loc:+.4f}), runtime {elapsed:.0f}s",
        )


@pytest.mark.slow
class TestCriterion7PretrainingNonRegression:
    def test_pretraining_helps_pooled_training(self, central_pretrain_runs):
        baseline_report, pretrained_report = central_pretrain_runs
        without = macro_by_seed(baseline_report, "Central")
        with_pre = macro_by_seed(pretrained_report, "Central")
        seeds = sorted(with_pre)
        improved = sum(1 for s in seeds if with_pre[s] > without[s])
        mean_with = float(np.mean([with_pre[s] for s in seeds]))
        mean_without = float(np.mean([without[s] for s in seeds]))
        ok = (mean_with >= mean_without - 0.01) and improved >= 3
        report_line(
            7, ok,
            f"pooled training with pretraining {mean_with:.4f} vs {mean_without:.4f} "
            f"without; improved in {improved}/5 seeds",
        )


class TestCriterion8Determinism:
    def test_cmd_run_byte_identical(self, tmp_path):
        from fedstudent.synthgen import kind_biased_transition, save_cohort_spec

        start = time.perf_counter()
        n_videos = 5
        profiles = [
            SubgroupProfile(
                name=name, population=20, transition=kind_biased_transition(share),
                video_access=np.full(n_videos, 1.0 / n_videos), quiz_correct_prob=0.6,
                length_mean=6.0, pass_intercept=-1.0, pass_weight_correct=3.0,
            )
            for name, share in (("M", 0.7), ("F", 0.4))
        ]
        spec = CohortSpec(n_videos=n_videos, quiz_videos=set(range(n_videos)), profiles=profiles)
        spec_path = tmp_path / "spec.json"
        save_cohort_spec(spec, str(spec_path))
        config = {
            "version": 1,
            "dataset": {"kind": "generated", "spec_path": "spec.json", "seed": 5},
            "variable": "G",
            "strategies": ["FedAvg", "PerFedAttn"],
            "rounds": 2,
            "local_iters": 1,
            "model": {"hidden_dim": 6, "dropout": 0.5, "batch_size": 4},
            "meta": {"inner_lr": 0.05, "outer_lr": 0.05},
            "pretrain": {"enabled": True, "epochs": 1},
            "folds": 1,
            "seeds": [0, 1],
            "output_dir": "out",
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))

        outputs = {}
        for tag, jobs in (("a", 1), ("b", 1), ("c", 2)):
            out_dir = tmp_path / tag
            code = cli_main(["run", "--config", str(config_path), "--jobs", str(jobs),
                             "--out", str(out_dir)])
            assert code == 0
            models = {
                p.name: p.read_bytes() for p in sorted((out_dir / "models").iterdir())
            }
            outputs[tag] = ((out_dir / "report.csv").read_bytes(), models)

        same_rerun = outputs["a"] == outputs["b"]
        same_jobs = outputs["a"] == outputs["c"]
        elapsed = time.perf_counter() - start
        report_line(
            8, same_rerun and same_jobs,
            f"rerun identical: {same_rerun}, jobs=1 vs jobs=2 identical: {same_jobs} "
            f"({elapsed:.0f}s)",
        )


class TestCriterion9LeakCheck:
    def test_no_test_reads_during_training(self):
        start = time.perf_counter()
        from fedstudent.synthgen import kind_biased_transition

        n_videos = 5
        profiles = [
            SubgroupProfile(
                name=name, population=25, transition=kind_biased_transition(share),
                video_access=np.full(n_videos, 1.0 / n_videos), quiz_correct_prob=0.6,
                length_mean=6.0, pass_intercept=-1.0, pass_weight_correct=3.0,
            )
            for name, share in (("M", 0.7), ("F", 0.4))
        ]
        spec = CohortSpec(n_videos=n_videos, quiz_videos=set(range(n_videos)), profiles=profiles)
        records = generate_cohort(spec, seed=6)
        plan = ExperimentPlan(
            variable="G", include_unspecified=False,
            strategies=("PerFedAttn", "FedIRT", "Local", "Central"),
            rounds=2, local_iters=1,
            settings=TrainSettings(hidden_dim=6, dropout=0.5, batch_size=4, lr=1e-3),
            meta=MetaConfig(inner_lr=0.05, outer_lr=0.05),
            pretrain_enabled=True, pretrain_epochs=1,
            folds=2, seeds=(0,), fold_seed=77,
        )
        report = cross_validate(records, plan, jobs=1)
        violations = sum(count_test_reads(outcome) for outcome in report.outcomes)
        checked = len(report.outcomes)
        elapsed = time.perf_counter() - start
        report_line(
            9, violations == 0 and checked == 8,
            f"{violations} test-split reads during pretraining/training across "
            f"{checked} instrumented runs ({elapsed:.0f}s)",
        )
