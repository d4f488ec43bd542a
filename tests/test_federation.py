import hashlib
import re

import numpy as np
import pytest

from fedstudent import federation
from fedstudent.federation import (
    AGG_MODES,
    META_MODES,
    STRATEGIES,
    AttnAggConfig,
    ClientState,
    ExperimentPlan,
    FederationError,
    MetaConfig,
    TrainSettings,
    adapt_for_eval,
    fedatt_aggregate,
    fedavg_aggregate,
    irt_aggregate,
    local_update,
    meta_gradient,
    run_federation,
)
from fedstudent.network import loss_and_gradient, make_dropout_mask
from fedstudent.optim import optimizer_step
from fedstudent.params import ModelParams, layer_shapes, params_axpy, params_cosine, params_norm
from fedstudent.splits import (
    DatasetSplit, SplitAssignment, SubgroupKey, build_fold_split, rng_for,
)
from fedstudent.synthgen import CohortSpec, SubgroupProfile, generate_cohort, kind_biased_transition


def random_params(k, d, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    shapes = layer_shapes(k, d)
    return ModelParams(k, d, {n: scale * rng.normal(size=s) for n, s in shapes.items()})


class QuadraticObjective:
    """f(theta) = a/2 * |theta|^2, so grad f = a * theta."""

    def __init__(self, curvature):
        self.a = curvature

    def loss_and_gradient(self, params):
        return 0.5 * self.a * params_norm(params) ** 2, params * self.a


class TestMetaGradient:
    def test_first_order_matches_closed_form(self):
        theta = random_params(2, 9, 0)
        cfg = MetaConfig(inner_lr=0.1, mode="first_order")
        _, grad = meta_gradient(theta, QuadraticObjective(2.0), cfg)
        expected = theta * (2.0 * (1.0 - 0.1 * 2.0))
        for name in theta.names():
            np.testing.assert_allclose(grad[name], expected[name], atol=1e-10)

    def test_hessian_fd_matches_closed_form(self):
        theta = random_params(2, 9, 1)
        cfg = MetaConfig(inner_lr=0.1, mode="hessian_fd", hessian_step=1e-4)
        _, grad = meta_gradient(theta, QuadraticObjective(2.0), cfg)
        factor = 2.0 * (1.0 - 0.1 * 2.0) ** 2
        expected = theta * factor
        for name in theta.names():
            np.testing.assert_allclose(grad[name], expected[name], atol=1e-6)

    def test_zero_inner_step_degenerates_to_plain_gradient(self):
        theta = random_params(2, 9, 2)
        for mode in ("first_order", "hessian_fd"):
            cfg = MetaConfig(inner_lr=0.0, mode=mode)
            _, grad = meta_gradient(theta, QuadraticObjective(3.0), cfg)
            for name in theta.names():
                np.testing.assert_allclose(grad[name], 3.0 * theta[name], atol=1e-9)

    def test_unit_inner_step_on_unit_quadratic_returns_zero(self):
        theta = random_params(2, 9, 3)
        cfg = MetaConfig(inner_lr=1.0, mode="first_order")
        _, grad = meta_gradient(theta, QuadraticObjective(1.0), cfg)
        assert params_norm(grad) < 1e-12

    def test_unknown_mode_rejected_naming_modes(self):
        cfg = MetaConfig(mode="typo")
        with pytest.raises(ValueError, match=re.escape(f"MetaConfig.mode must be one of {META_MODES}")):
            meta_gradient(random_params(2, 9, 4), QuadraticObjective(1.0), cfg)


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
        out = fedatt_aggregate(g, [g.copy(), g.copy()], AttnAggConfig())
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
            fedatt_aggregate(random_params(2, 9, 0), [], AttnAggConfig())

    def test_unknown_mode_rejected_naming_modes(self):
        g = random_params(2, 9, 7)
        locs = [random_params(2, 9, s) for s in (8, 9)]
        with pytest.raises(ValueError, match=re.escape(f"AttnAggConfig.mode must be one of {AGG_MODES}")):
            fedatt_aggregate(g, locs, AttnAggConfig(mode="typo"))


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
    return build_fold_split(record_map(records), ExperimentPlan(variable=variable, folds=1, fold_seed=0), 0)


def record_map(records):
    return {r.student_id: r for r in records}


def client_for(records, key_tag="M", seed=3):
    split = make_split(records)
    key = SubgroupKey("G", key_tag)
    a = split.assignments[key]
    return ClientState(key=key, train_ids=a.train, val_ids=a.val, records=record_map(records),
                       settings=tiny_settings(), seed=seed)


def clients_for(records):
    split = make_split(records)
    return [
        ClientState(key=key, train_ids=split.assignments[key].train,
                    val_ids=split.assignments[key].val, records=record_map(records),
                    settings=tiny_settings(), seed=0)
        for key in split.subgroups()
    ]


def meta_update(base, client, epochs, cfg, round_idx):
    return local_update("meta", base, client, range(epochs), round_idx, cfg)


class TestLocalAdaptation:
    def test_zero_outer_lr_returns_global_unchanged(self):
        client = client_for(tiny_cohort())
        base = random_params(6, N_VIDEOS + 7, 0, scale=0.2)
        adapted, _ = meta_update(base, client, 3, MetaConfig(outer_lr=0.0), round_idx=0)
        for name in base.names():
            assert np.array_equal(adapted[name], base[name])

    def test_first_order_meta_batch_runs_two_passes(self, monkeypatch):
        """The loss recorded for a meta batch comes from the first gradient pass, not a third forward."""
        calls = {"loss_and_gradient": 0}

        def counted(name):
            original = getattr(federation, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(federation, name, counted(name))
        client = client_for(tiny_cohort())
        base = random_params(6, N_VIDEOS + 7, 0, scale=0.2)
        meta_update(base, client, 2, MetaConfig(inner_lr=0.05, outer_lr=0.01), round_idx=0)
        batches = 2 * -(-client.count // client.settings.batch_size)
        assert calls == {"loss_and_gradient": 2 * batches}

    def test_identical_clients_produce_identical_outputs(self):
        records = tiny_cohort()
        c1 = client_for(records)
        c2 = client_for(records)
        base = random_params(6, N_VIDEOS + 7, 1, scale=0.2)
        cfg = MetaConfig(inner_lr=0.05, outer_lr=0.01)
        a1, l1 = meta_update(base, c1, 3, cfg, round_idx=2)
        a2, l2 = meta_update(base, c2, 3, cfg, round_idx=2)
        assert l1 == l2
        for name in a1.names():
            assert np.array_equal(a1[name], a2[name])

    def test_train_loss_is_mean_student_loss_of_last_epoch(self):
        """At outer_lr 0 the model stays at its start, so a meta round's train_loss is the
        mean outcome loss over each training split at the initial parameters. Batches of
        3 over 8 students are uneven, so a mean of batch means would differ."""
        records = tiny_cohort()
        split = make_split(records)
        by_id = record_map(records)
        seed = 4
        plan = ExperimentPlan(rounds=1, local_iters=2, settings=tiny_settings(dropout=0.5),
                              meta=MetaConfig(inner_lr=0.05, outer_lr=0.0, meta_batch=3))
        result = run_federation(by_id, split, plan, "PerFedAvgAgg", seed=seed)
        init = ModelParams.initialized(6, N_VIDEOS + 7, rng_for(seed, "init"))
        for row in result.rounds:
            train = split.assignments[SubgroupKey("G", row.subgroup.split(":")[1])].train
            total, _ = loss_and_gradient(init, "outcome", [by_id[sid].sequence for sid in train],
                                         [by_id[sid].label for sid in train])
            assert abs(row.train_loss - total / len(train)) <= 1e-12

    def test_outer_step_is_sgd_at_outer_lr(self):
        """The meta outer step goes through the optimizer and lands where theta - outer_lr * g does."""
        theta, grad = random_params(2, 9, 5), random_params(2, 9, 6)
        opt = MetaConfig(outer_lr=0.25).make_opt(lr=1e-3)
        for _ in range(2):
            stepped = optimizer_step(theta, grad, opt)
            opt.epoch += 1
            expected = params_axpy(-0.25, grad, theta)
            for name in theta.names():
                assert np.array_equal(stepped[name], expected[name])

    def test_quadratic_single_step_closed_form(self):
        theta = random_params(2, 9, 4)
        cfg = MetaConfig(inner_lr=0.1, outer_lr=0.05, mode="first_order")
        a = 2.0
        _, grad = meta_gradient(theta, QuadraticObjective(a), cfg)
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
        clients = clients_for(tiny_cohort())
        weights = {c.key: 0.7 for c in clients}
        g = random_params(6, N_VIDEOS + 7, 0)
        with pytest.raises(ValueError, match="sum to 1"):
            irt_aggregate({c.key: g for c in clients}, weights)

    def test_round_runs_and_aggregates(self):
        clients = clients_for(tiny_cohort())
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
        plan = ExperimentPlan(rounds=0, local_iters=5, settings=tiny_settings())
        result = run_federation(record_map(records), split, plan, "FedAvg", seed=1)
        init = ModelParams.initialized(6, N_VIDEOS + 7, __import__("fedstudent.splits", fromlist=["rng_for"]).rng_for(1, "init"))
        for name in init.names():
            assert np.array_equal(result.final_params[name], init[name])

    def test_single_subgroup_fedavg_equals_central(self):
        records = [r for r in tiny_cohort(populations=(16, 4)) if r.student_id.startswith("M-")]
        split = build_fold_split(record_map(records), ExperimentPlan(folds=1, fold_seed=2), 0)
        plan = ExperimentPlan(rounds=3, local_iters=2, settings=tiny_settings(dropout=0.5))
        fed = run_federation(record_map(records), split, plan, "FedAvg", seed=7)
        central = run_federation(record_map(records), split, plan, "Central", seed=7)
        worst = 0.0
        for name in fed.final_params.names():
            worst = max(worst, float(np.abs(fed.final_params[name] - central.final_params[name]).max()))
        assert worst <= 1e-12

    @pytest.mark.parametrize("strategy", ["Local", "Central", "FedAvg", "FedAtt",
                                          "FedIRT", "PerFedAvgAgg", "PerFedAttn"])
    def test_full_run_determinism(self, strategy):
        records = tiny_cohort()
        split = make_split(records)
        plan = ExperimentPlan(rounds=2, local_iters=2, settings=tiny_settings(dropout=0.5),
                              meta=MetaConfig(inner_lr=0.05, outer_lr=0.01))
        r1 = run_federation(record_map(records), split, plan, strategy, seed=5)
        r2 = run_federation(record_map(records), split, plan, strategy, seed=5)
        for name in r1.final_params.names():
            assert np.array_equal(r1.final_params[name], r2.final_params[name])
        assert [(row.round, row.subgroup, row.val_auc, row.train_loss) for row in r1.rounds] == \
               [(row.round, row.subgroup, row.val_auc, row.train_loss) for row in r2.rounds]

    def test_round_rows_cover_all_subgroups(self):
        records = tiny_cohort()
        split = make_split(records)
        plan = ExperimentPlan(rounds=2, local_iters=1, settings=tiny_settings())
        result = run_federation(record_map(records), split, plan, "FedAvg", seed=0)
        subgroups = {row.subgroup for row in result.rounds}
        assert subgroups == {"G:M", "G:F"}
        assert max(row.round for row in result.rounds) == 2

    def test_unknown_strategy_rejected_naming_strategies(self):
        records = tiny_cohort()
        plan = ExperimentPlan(rounds=1, local_iters=1, settings=tiny_settings())
        with pytest.raises(ValueError, match=re.escape(f"strategy must be one of {STRATEGIES}")):
            run_federation(record_map(records), make_split(records), plan, "Bogus", seed=0)

    def test_empty_train_split_rejected(self):
        records = tiny_cohort()
        split = make_split(records)
        key = split.subgroups()[0]
        broken = DatasetSplit(assignments=dict(split.assignments))
        broken.assignments[key] = SplitAssignment(train=[], val=["x"], test=["y"])
        with pytest.raises(FederationError, match=str(key)):
            run_federation(record_map(records), broken,
                           ExperimentPlan(rounds=1, local_iters=1, settings=tiny_settings()),
                           "FedAvg", seed=0)


class TestAdaptForEval:
    def setup_client(self):
        return client_for(tiny_cohort(), seed=9)

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
            _, grad = meta_gradient(stepped, QuadraticObjective(a), cfg)
            stepped = stepped - cfg.outer_lr * grad
        for name in theta.names():
            np.testing.assert_allclose(stepped[name], expected[name], atol=1e-10)


def test_content_digest_is_the_per_layer_hash():
    """Hashing the flat vector once gives the digest of the layers hashed one by one,
    so aggregation sorts locals as it did when each layer was hashed on its own."""
    for seed in range(5):
        params = random_params(4, 6, seed)
        for extra in (b"", repr(17.0).encode()):
            h = hashlib.sha256()
            for name in params.names():
                h.update(params[name].tobytes())
            h.update(extra)
            assert federation._content_digest(params, extra) == h.digest()


class TestBatchDropout:
    """`BatchObjective` draws a batch's (B, k) masks in one call. It must consume the
    stream one mask per student did and give the same values."""

    def objective_and_expected(self, dropout, n=5, seed=11):
        records = tiny_cohort()
        split = make_split(records)
        key = SubgroupKey("G", "M")
        client = ClientState(key=key, train_ids=split.assignments[key].train,
                             val_ids=split.assignments[key].val, records=record_map(records),
                             settings=tiny_settings(dropout=dropout), seed=0)
        batch = client.train_ids[:n]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        objective = federation.BatchObjective(client, batch, rng)
        expected = [make_dropout_mask(ref_rng, client.settings.hidden_dim, dropout) for _ in batch]
        return objective, expected, rng, ref_rng

    def test_one_draw_gives_the_per_student_masks(self):
        for dropout in (0.2, 0.5):
            objective, expected, _, _ = self.objective_and_expected(dropout)
            assert objective.masks.shape == (5, 6)
            for row, mask in zip(objective.masks, expected):
                assert row.tobytes() == mask.tobytes()

    def test_rng_state_after_the_draw_is_the_same(self):
        for dropout in (0.0, 0.5):
            _, _, rng, ref_rng = self.objective_and_expected(dropout)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert rng.random() == ref_rng.random()

    def test_no_dropout_draws_no_masks(self):
        objective, expected, _, _ = self.objective_and_expected(0.0)
        assert objective.masks is None and expected == [None] * 5

    def test_mask_array_gives_the_per_student_loss_and_gradient(self):
        objective, expected, _, _ = self.objective_and_expected(0.5)
        params = ModelParams.initialized(6, objective.matrices[0].shape[1], np.random.default_rng(1))
        loss, grads = objective.loss_and_gradient(params)
        ref_loss, ref_grads = loss_and_gradient(params, "outcome", objective.matrices, objective.labels,
                                                np.array(expected))
        assert loss == ref_loss
        assert grads.flat.tobytes() == ref_grads.flat.tobytes()
