import numpy as np
import pytest

from fedstudent.federation import (
    AttnAggConfig,
    ClientState,
    FederationError,
    FederationSchedule,
    MetaConfig,
    TrainContext,
    TrainSettings,
    adapt_for_eval,
    fedatt_aggregate,
    fedavg_aggregate,
    irt_aggregate,
    local_update,
    local_adaptation,
    meta_gradient,
    run_federation,
)
from fedstudent.params import ModelParams, layer_shapes, params_cosine, params_norm
from fedstudent.splits import DatasetSplit, SplitAssignment, SubgroupKey, split_train_test, build_subgroups
from fedstudent.synthgen import CohortSpec, SubgroupProfile, generate_cohort, kind_biased_transition


def random_params(k, d, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    shapes = layer_shapes(k, d)
    return ModelParams(k, d, {n: scale * rng.normal(size=s) for n, s in shapes.items()})


class QuadraticObjective:
    """f(theta) = a/2 * |theta|^2, so grad f = a * theta."""

    def __init__(self, curvature):
        self.a = curvature

    def gradient(self, params):
        return params * self.a

    def loss(self, params):
        return 0.5 * self.a * params_norm(params) ** 2


class TestMetaGradient:
    def test_first_order_matches_closed_form(self):
        theta = random_params(2, 9, 0)
        cfg = MetaConfig(inner_lr=0.1, mode="first_order")
        grad = meta_gradient(theta, QuadraticObjective(2.0), cfg)
        expected = theta * (2.0 * (1.0 - 0.1 * 2.0))
        for name in theta.names():
            np.testing.assert_allclose(grad[name], expected[name], atol=1e-10)

    def test_hessian_fd_matches_closed_form(self):
        theta = random_params(2, 9, 1)
        cfg = MetaConfig(inner_lr=0.1, mode="hessian_fd", hessian_step=1e-4)
        grad = meta_gradient(theta, QuadraticObjective(2.0), cfg)
        factor = 2.0 * (1.0 - 0.1 * 2.0) ** 2
        expected = theta * factor
        for name in theta.names():
            np.testing.assert_allclose(grad[name], expected[name], atol=1e-6)

    def test_zero_inner_step_degenerates_to_plain_gradient(self):
        theta = random_params(2, 9, 2)
        for mode in ("first_order", "hessian_fd"):
            cfg = MetaConfig(inner_lr=0.0, mode=mode)
            grad = meta_gradient(theta, QuadraticObjective(3.0), cfg)
            for name in theta.names():
                np.testing.assert_allclose(grad[name], 3.0 * theta[name], atol=1e-9)

    def test_unit_inner_step_on_unit_quadratic_returns_zero(self):
        theta = random_params(2, 9, 3)
        cfg = MetaConfig(inner_lr=1.0, mode="first_order")
        grad = meta_gradient(theta, QuadraticObjective(1.0), cfg)
        assert params_norm(grad) < 1e-12


class TestFedavgAggregate:
    def p(self, value):
        params = ModelParams.zeros(2, 9)
        params["head.b_l"] = np.array([value, 0.0])
        return params

    def test_weighted_mean(self):
        out = fedavg_aggregate([(self.p(0.0), 1), (self.p(4.0), 3)])
        assert out["head.b_l"][0] == pytest.approx(3.0)

    def test_single_client_identity(self):
        params = random_params(2, 9, 0)
        out = fedavg_aggregate([(params, 17)])
        for name in params.names():
            assert np.array_equal(out[name], params[name])

    def test_equal_counts_unweighted_mean(self):
        out = fedavg_aggregate([(self.p(1.0), 5), (self.p(3.0), 5)])
        assert out["head.b_l"][0] == pytest.approx(2.0)

    def test_permutation_invariance(self):
        items = [(random_params(2, 9, s), float(s + 1)) for s in range(4)]
        a = fedavg_aggregate(items)
        b = fedavg_aggregate(list(reversed(items)))
        for name in a.names():
            assert np.array_equal(a[name], b[name])

    def test_idempotent_on_equal_locals(self):
        params = random_params(2, 9, 5)
        out = fedavg_aggregate([(params.copy(), 2), (params.copy(), 7)])
        for name in params.names():
            np.testing.assert_allclose(out[name], params[name], atol=1e-12)

    def test_matches_weighted_mean_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = int(rng.integers(1, 6))
            items = [(random_params(2, 9, 100 * trial + i), float(rng.integers(1, 20)))
                     for i in range(n)]
            total = sum(c for _, c in items)
            out = fedavg_aggregate(items)
            for name in out.names():
                expected = sum((c / total) * p[name] for p, c in items)
                np.testing.assert_allclose(out[name], expected, atol=1e-12)

    def test_zero_clients_rejected(self):
        with pytest.raises(ValueError):
            fedavg_aggregate([])


class TestFedattAggregate:
    def test_fixed_point_when_locals_equal_global(self):
        g = random_params(2, 9, 0)
        out = fedatt_aggregate(g, [g.copy(), g.copy()])
        for name in g.names():
            np.testing.assert_allclose(out[name], g[name], atol=1e-15)

    def test_symmetric_locals_full_step_gives_mean(self):
        g = ModelParams.zeros(2, 9)
        a = ModelParams.zeros(2, 9)
        b = ModelParams.zeros(2, 9)
        a["head.b_l"] = np.array([1.0, 0.0])
        b["head.b_l"] = np.array([-1.0, 0.0])
        a["attn.p"] = np.array([0.0, 2.0])
        b["attn.p"] = np.array([0.0, -2.0])
        out = fedatt_aggregate(g, [a, b], AttnAggConfig(step=1.0))
        np.testing.assert_allclose(out["head.b_l"], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(out["attn.p"], [0.0, 0.0], atol=1e-15)

    def test_softmax_weights_on_known_distances(self):
        # Single distinctive layer with distances 1 and 2 from the global.
        g = ModelParams.zeros(2, 9)
        a = ModelParams.zeros(2, 9)
        b = ModelParams.zeros(2, 9)
        a["attn.p"] = np.array([1.0, 0.0])
        b["attn.p"] = np.array([2.0, 0.0])
        w1 = np.exp(1.0) / (np.exp(1.0) + np.exp(2.0))
        w2 = np.exp(2.0) / (np.exp(1.0) + np.exp(2.0))
        assert w1 == pytest.approx(0.26894, rel=1e-4)
        assert w2 == pytest.approx(0.73106, rel=1e-4)
        out = fedatt_aggregate(g, [a, b], AttnAggConfig(step=1.0))
        expected = -(w1 * (0.0 - 1.0) + w2 * (0.0 - 2.0))
        assert out["attn.p"][0] == pytest.approx(expected, rel=1e-9)

    def test_weights_form_distribution_per_layer(self):
        g = random_params(2, 9, 1)
        locs = [random_params(2, 9, s) for s in range(2, 6)]
        ordered = locs
        names = g.names()
        distances = np.array([
            [float(np.linalg.norm(g[name] - loc[name])) for loc in ordered]
            for name in names
        ])
        shifted = distances - distances.max(axis=1, keepdims=True)
        expd = np.exp(shifted)
        alpha = expd / expd.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-9)

    def test_scalar_sum_mode_runs_and_differs(self):
        g = random_params(2, 9, 7)
        locs = [random_params(2, 9, s) for s in (8, 9)]
        per_layer = fedatt_aggregate(g, locs, AttnAggConfig(step=0.5, mode="per_layer"))
        scalar = fedatt_aggregate(g, locs, AttnAggConfig(step=0.5, mode="scalar_sum"))
        assert any(not np.array_equal(per_layer[n], scalar[n]) for n in g.names())

    def test_zero_locals_rejected(self):
        with pytest.raises(ValueError):
            fedatt_aggregate(random_params(2, 9, 0), [])


N_VIDEOS = 5


def tiny_cohort(populations=(12, 12), seed=0, length_mean=6.0):
    profiles = []
    for name, pop, watch_share in zip(("M", "F"), populations, (0.8, 0.4)):
        profiles.append(SubgroupProfile(
            name=name,
            population=pop,
            transition=kind_biased_transition(watch_share),
            video_access=np.full(N_VIDEOS, 1.0 / N_VIDEOS),
            quiz_correct_prob=0.6,
            length_mean=length_mean,
            pass_intercept=-1.0,
            pass_weight_correct=3.0,
            pass_weight_forum=0.0,
        ))
    spec = CohortSpec(n_videos=N_VIDEOS, quiz_videos=set(range(N_VIDEOS)), profiles=profiles)
    return generate_cohort(spec, seed=seed)


def tiny_settings(**overrides):
    fields = dict(hidden_dim=6, dropout=0.0, batch_size=4, opt_kind="adam", lr=1e-3, decay=1e-3)
    fields.update(overrides)
    return TrainSettings(**fields)


def make_split(records, variable="G"):
    groups = build_subgroups(records, variable, include_unspecified=False)
    return split_train_test(groups, seed=0)


def record_map(records):
    return {r.student_id: r for r in records}


class TestLocalAdaptation:
    def client_for(self, records, key_tag="M"):
        split = make_split(records)
        key = SubgroupKey("G", key_tag)
        ctx = TrainContext(record_map(records), tiny_settings())
        a = split.assignments[key]
        return ClientState(key=key, train_ids=a.train, val_ids=a.val, ctx=ctx, seed=3)

    def test_zero_outer_lr_returns_global_unchanged(self):
        records = tiny_cohort()
        client = self.client_for(records)
        base = random_params(6, N_VIDEOS + 7, 0, scale=0.2)
        adapted, _ = local_adaptation(base, client, 3, MetaConfig(outer_lr=0.0), round_idx=0)
        for name in base.names():
            assert np.array_equal(adapted[name], base[name])

    def test_identical_clients_produce_identical_outputs(self):
        records = tiny_cohort()
        c1 = self.client_for(records)
        c2 = self.client_for(records)
        base = random_params(6, N_VIDEOS + 7, 1, scale=0.2)
        cfg = MetaConfig(inner_lr=0.05, outer_lr=0.01)
        a1, l1 = local_adaptation(base, c1, 3, cfg, round_idx=2)
        a2, l2 = local_adaptation(base, c2, 3, cfg, round_idx=2)
        assert l1 == l2
        for name in a1.names():
            assert np.array_equal(a1[name], a2[name])

    def test_quadratic_single_step_closed_form(self):
        theta = random_params(2, 9, 4)
        cfg = MetaConfig(inner_lr=0.1, outer_lr=0.05, mode="first_order")
        a = 2.0
        grad = meta_gradient(theta, QuadraticObjective(a), cfg)
        stepped = theta - cfg.outer_lr * grad
        factor = 1.0 - cfg.outer_lr * a * (1.0 - cfg.inner_lr * a)
        for name in theta.names():
            np.testing.assert_allclose(stepped[name], factor * theta[name], atol=1e-12)


class TestFedirtRound:
    def test_lambda_interpolation_identities(self):
        g = random_params(2, 9, 0)
        assert params_cosine(g, g) == pytest.approx(1.0)
        x = ModelParams.zeros(2, 9)
        y = ModelParams.zeros(2, 9)
        x["head.b_l"] = np.array([1.0, 0.0])
        y["head.b_l"] = np.array([0.0, 1.0])
        assert params_cosine(x, y) == pytest.approx(0.0)

    def test_lambda_cosine_value_and_blend(self):
        x = ModelParams.zeros(2, 9)
        y = ModelParams.zeros(2, 9)
        x["head.b_l"] = np.array([1.0, 0.0])
        y["head.b_l"] = np.array([1.0, 1.0])
        lam = params_cosine(x, y)
        assert lam == pytest.approx(1.0 / np.sqrt(2.0))
        blend = lam * x + (1.0 - lam) * y
        np.testing.assert_allclose(
            blend["head.b_l"], [lam + (1 - lam), (1 - lam)], atol=1e-12
        )

    def test_unnormalized_weights_rejected(self):
        records = tiny_cohort()
        split = make_split(records)
        ctx = TrainContext(record_map(records), tiny_settings())
        clients = [
            ClientState(key=key, train_ids=split.assignments[key].train,
                        val_ids=split.assignments[key].val, ctx=ctx, seed=0)
            for key in split.subgroups()
        ]
        weights = {c.key: 0.7 for c in clients}
        g = random_params(6, N_VIDEOS + 7, 0)
        with pytest.raises(ValueError, match="sum to 1"):
            irt_aggregate({c.key: g for c in clients}, weights)

    def test_round_runs_and_aggregates(self):
        records = tiny_cohort()
        split = make_split(records)
        ctx = TrainContext(record_map(records), tiny_settings())
        clients = [
            ClientState(key=key, train_ids=split.assignments[key].train,
                        val_ids=split.assignments[key].val, ctx=ctx, seed=0)
            for key in split.subgroups()
        ]
        weights = {c.key: 1.0 / len(clients) for c in clients}
        g = random_params(6, N_VIDEOS + 7, 1, scale=0.2)
        locals_ = {c.key: local_update("irt", g, c, range(1), 0, MetaConfig())[0] for c in clients}
        out = irt_aggregate(locals_, weights)
        assert out.congruent(g)
        for c in clients:
            assert c.prev_model is not None


class TestRunFederation:
    def test_zero_rounds_returns_initial_model(self):
        records = tiny_cohort()
        split = make_split(records)
        schedule = FederationSchedule(strategy="FedAvg", rounds=0, local_iters=5)
        result = run_federation(record_map(records), split, schedule, seed=1,
                                settings=tiny_settings())
        init = ModelParams.initialized(6, N_VIDEOS + 7, __import__("fedstudent.splits", fromlist=["rng_for"]).rng_for(1, "init"))
        for name in init.names():
            assert np.array_equal(result.final_params[name], init[name])

    def test_single_subgroup_fedavg_equals_central(self):
        records = [r for r in tiny_cohort(populations=(16, 4)) if r.student_id.startswith("M-")]
        groups = build_subgroups(records, "G", include_unspecified=False)
        split = split_train_test(groups, seed=2)
        settings = tiny_settings(dropout=0.5)
        fed = run_federation(record_map(records), split, FederationSchedule("FedAvg", 3, 2),
                             seed=7, settings=settings)
        central = run_federation(record_map(records), split, FederationSchedule("Central", 3, 2),
                                 seed=7, settings=settings)
        worst = 0.0
        for name in fed.final_params.names():
            worst = max(worst, float(np.abs(fed.final_params[name] - central.final_params[name]).max()))
        assert worst <= 1e-12

    @pytest.mark.parametrize("strategy", ["Local", "Central", "FedAvg", "FedAtt",
                                          "FedIRT", "PerFedAvgAgg", "PerFedAttn"])
    def test_full_run_determinism(self, strategy):
        records = tiny_cohort()
        split = make_split(records)
        schedule = FederationSchedule(strategy, rounds=2, local_iters=2)
        kwargs = dict(settings=tiny_settings(dropout=0.5),
                      meta_cfg=MetaConfig(inner_lr=0.05, outer_lr=0.01))
        r1 = run_federation(record_map(records), split, schedule, seed=5, **kwargs)
        r2 = run_federation(record_map(records), split, schedule, seed=5, **kwargs)
        for name in r1.final_params.names():
            assert np.array_equal(r1.final_params[name], r2.final_params[name])
        assert [(row.round, row.subgroup, row.val_auc, row.train_loss) for row in r1.rounds] == \
               [(row.round, row.subgroup, row.val_auc, row.train_loss) for row in r2.rounds]

    def test_round_rows_cover_all_subgroups(self):
        records = tiny_cohort()
        split = make_split(records)
        result = run_federation(record_map(records), split,
                                FederationSchedule("FedAvg", 2, 1), seed=0,
                                settings=tiny_settings())
        subgroups = {row.subgroup for row in result.rounds}
        assert subgroups == {"G:M", "G:F"}
        assert max(row.round for row in result.rounds) == 2

    def test_empty_train_split_rejected(self):
        records = tiny_cohort()
        split = make_split(records)
        key = split.subgroups()[0]
        broken = DatasetSplit(assignments=dict(split.assignments))
        broken.assignments[key] = SplitAssignment(train=[], val=["x"], test=["y"])
        with pytest.raises(FederationError, match=str(key)):
            run_federation(record_map(records), broken,
                           FederationSchedule("FedAvg", 1, 1), seed=0,
                           settings=tiny_settings())


class TestAdaptForEval:
    def setup_client(self):
        records = tiny_cohort()
        split = make_split(records)
        key = SubgroupKey("G", "M")
        ctx = TrainContext(record_map(records), tiny_settings())
        a = split.assignments[key]
        return ClientState(key=key, train_ids=a.train, val_ids=a.val, ctx=ctx, seed=9)

    def test_zero_outer_lr_is_identity(self):
        client = self.setup_client()
        base = random_params(6, N_VIDEOS + 7, 0, scale=0.2)
        out = adapt_for_eval(base, client, "meta", MetaConfig(outer_lr=0.0))
        for name in base.names():
            assert np.array_equal(out[name], base[name])

    def test_mode_none_is_identity(self):
        client = self.setup_client()
        base = random_params(6, N_VIDEOS + 7, 1, scale=0.2)
        out = adapt_for_eval(base, client, "none", MetaConfig())
        assert out is base

    def test_plain_mode_changes_parameters(self):
        client = self.setup_client()
        base = random_params(6, N_VIDEOS + 7, 2, scale=0.2)
        out = adapt_for_eval(base, client, "plain", MetaConfig())
        assert any(not np.array_equal(out[n], base[n]) for n in base.names())

    def test_meta_quadratic_epoch_matches_composed_updates(self):
        theta = random_params(2, 9, 3)
        cfg = MetaConfig(inner_lr=0.1, outer_lr=0.05)
        a = 2.0
        factor = 1.0 - cfg.outer_lr * a * (1.0 - cfg.inner_lr * a)
        expected = theta * (factor ** 3)
        stepped = theta
        for _ in range(3):
            grad = meta_gradient(stepped, QuadraticObjective(a), cfg)
            stepped = stepped - cfg.outer_lr * grad
        for name in theta.names():
            np.testing.assert_allclose(stepped[name], expected[name], atol=1e-10)
