import math

import numpy as np
import pytest

from fedstudent.params import ModelParams, layer_shapes
from fedstudent.network import (
    attention_pool,
    backward,
    backward_batch,
    backward_pretrain,
    backward_pretrain_batch,
    bce_loss,
    forward_outcome,
    forward_outcome_batch,
    forward_pretrain,
    forward_pretrain_batch,
    gru_forward,
    make_dropout_mask,
    outcome_loss,
    predict_outcome,
    pretrain_loss,
)


def random_params(k, d, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    shapes = layer_shapes(k, d)
    return ModelParams(k, d, {n: scale * rng.normal(size=s) for n, s in shapes.items()})


def random_sequence(L, d, seed):
    """Random one/two-hot rows shaped like encoded activities."""
    rng = np.random.default_rng(seed)
    n = d - 7
    X = np.zeros((L, d))
    for t in range(L):
        if rng.random() < 0.6:
            X[t, rng.integers(0, n)] = 1.0
            X[t, n + rng.integers(0, 4)] = 1.0
        else:
            X[t, n + 4 + rng.integers(0, 3)] = 1.0
    return X


class TestGruForward:
    def test_zero_weights_give_zero_states(self):
        params = ModelParams.zeros(4, 11)
        X = random_sequence(5, 11, 0)
        H = gru_forward(params, X)
        assert np.all(H == 0.0)

    def test_shape_contract(self):
        params = random_params(4, 11, 1)
        H = gru_forward(params, random_sequence(6, 11, 2))
        assert H.shape == (6, 4)

    def test_width_mismatch_rejected(self):
        params = random_params(4, 11, 1)
        with pytest.raises(ValueError):
            gru_forward(params, np.zeros((3, 9)))

    def test_scalar_recurrence_matches_hand_evaluation(self):
        # k=1, d=1 model with hand-set weights, driven by inputs x1=1, x2=0.5.
        k, d = 1, 8  # d must be n+7; only the first input column is driven
        params = ModelParams.zeros(k, d)
        wz, wr, wc = 0.3, -0.2, 0.7
        uz, ur, uc = 0.5, 0.4, -0.6
        bz, br, bc = 0.1, 0.0, -0.1
        W = np.zeros((3, d))
        W[0, 0], W[1, 0], W[2, 0] = wz, wr, wc
        params["gru.input_weights"] = W
        params["gru.recurrent_weights"] = np.array([[uz], [ur], [uc]])
        params["gru.biases"] = np.array([bz, br, bc])

        X = np.zeros((2, d))
        X[0, 0] = 1.0
        X[1, 0] = 0.5
        H = gru_forward(params, X)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        h = 0.0
        expected = []
        for x in (1.0, 0.5):
            z = sig(wz * x + uz * h + bz)
            r = sig(wr * x + ur * h + br)
            c = math.tanh(wc * x + uc * (r * h) + bc)
            h = (1.0 - z) * h + z * c
            expected.append(h)
        np.testing.assert_allclose(H[:, 0], expected, rtol=1e-12)


class TestAttentionPool:
    def test_single_timestep(self):
        params = random_params(3, 10, 5)
        states = np.random.default_rng(0).normal(size=(1, 3))
        pooled, alpha = attention_pool(params, states)
        assert alpha.tolist() == [1.0]
        np.testing.assert_allclose(pooled, states[0])

    def test_identical_states_give_uniform_weights(self):
        params = random_params(3, 10, 5)
        h = np.random.default_rng(1).normal(size=3)
        pooled, alpha = attention_pool(params, np.tile(h, (4, 1)))
        np.testing.assert_allclose(alpha, 0.25)
        np.testing.assert_allclose(pooled, h)

    def test_hand_computed_weights(self):
        k = 2
        params = ModelParams.zeros(k, 9)
        Wa = np.array([[0.5, -0.3], [0.2, 0.8]])
        p = np.array([1.0, -0.5])
        params["attn.W_alpha"] = Wa
        params["attn.p"] = p
        H = np.array([[0.1, 0.4], [-0.2, 0.3], [0.5, -0.1]])
        e = [float(p @ np.tanh(Wa @ h)) for h in H]
        w = np.exp(np.array(e) - max(e))
        expected_alpha = w / w.sum()
        expected_pooled = expected_alpha @ H
        pooled, alpha = attention_pool(params, H)
        np.testing.assert_allclose(alpha, expected_alpha, rtol=1e-12)
        np.testing.assert_allclose(pooled, expected_pooled, rtol=1e-12)

    def test_weights_form_distribution(self):
        for seed in range(10):
            params = random_params(4, 11, seed)
            H = np.random.default_rng(seed).normal(size=(7, 4))
            _, alpha = attention_pool(params, H)
            assert np.all(alpha >= 0)
            assert abs(alpha.sum() - 1.0) < 1e-9


class TestPredictOutcome:
    def test_zero_head_gives_uniform(self):
        params = ModelParams.zeros(3, 10)
        probs = predict_outcome(params, np.array([0.5, -1.0, 2.0]))
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_constant_bias_shift_invariance(self):
        params = ModelParams.zeros(3, 10)
        params["head.b_l"] = np.array([7.3, 7.3])
        probs = predict_outcome(params, np.zeros(3))
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_log_nine_logit(self):
        params = ModelParams.zeros(1, 8)
        params["head.b_l"] = np.array([math.log(9.0), 0.0])
        probs = predict_outcome(params, np.zeros(1))
        np.testing.assert_allclose(probs, [0.9, 0.1], rtol=1e-12)

    def test_shift_invariance_random(self):
        params = random_params(4, 11, 3)
        pooled = np.random.default_rng(0).normal(size=4)
        base = predict_outcome(params, pooled)
        shifted = params.copy()
        shifted["head.b_l"] = params["head.b_l"] + 123.456
        np.testing.assert_allclose(predict_outcome(shifted, pooled), base, atol=1e-12)


class TestBceLoss:
    def test_uniform_prediction_two_term_value(self):
        # Both terms of the two-term form contribute ln 2.
        assert bce_loss([[0.5, 0.5]], [1]) == pytest.approx(2.0 * math.log(2.0))

    def test_perfect_prediction_near_zero(self):
        assert bce_loss([[1.0, 0.0]], [1]) < 1e-10

    def test_confident_pair_value(self):
        assert bce_loss([[0.9, 0.1]], [1]) == pytest.approx(-2.0 * math.log(0.9), rel=1e-9)

    def test_sum_over_students(self):
        single = outcome_loss(np.array([0.7, 0.3]), 1)
        assert bce_loss([[0.7, 0.3]] * 3, [1, 1, 1]) == pytest.approx(3 * single)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bce_loss([[0.5, 0.5]], [1, 0])


def finite_difference_grads(params, loss_fn, step=1e-5):
    """Central finite differences of loss_fn over every parameter entry."""
    grads = params.zeros_like()
    for name in params.names():
        arr = params[name]
        flat = arr.ravel()
        g = grads[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn(params)
            flat[i] = orig - step
            down = loss_fn(params)
            flat[i] = orig
            g[i] = (up - down) / (2 * step)
    return grads


def max_relative_error(analytic, numeric, floor=1e-4):
    worst = 0.0
    for name in analytic.names():
        a = analytic[name].ravel()
        n = numeric[name].ravel()
        denom = np.maximum(np.abs(a) + np.abs(n), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestBackward:
    def test_gradients_match_finite_differences(self):
        for seed in range(3):
            params = random_params(4, 10, seed)
            X = random_sequence(6, 10, seed + 10)
            label = seed % 2

            def loss_fn(p):
                trace = forward_outcome(p, X)
                return outcome_loss(trace.probs, label)

            trace = forward_outcome(params, X)
            analytic = backward(trace, label, params)
            numeric = finite_difference_grads(params, loss_fn)
            assert max_relative_error(analytic, numeric) <= 1e-4

    def test_gradients_with_fixed_dropout_mask(self):
        params = random_params(4, 10, 2)
        X = random_sequence(5, 10, 3)
        mask = make_dropout_mask(np.random.default_rng(0), 4, 0.5)

        def loss_fn(p):
            return outcome_loss(forward_outcome(p, X, dropout_mask=mask).probs, 1)

        trace = forward_outcome(params, X, dropout_mask=mask)
        analytic = backward(trace, 1, params)
        numeric = finite_difference_grads(params, loss_fn)
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_pretrain_head_gradient_exactly_zero(self):
        params = random_params(4, 10, 4)
        trace = forward_outcome(params, random_sequence(5, 10, 5))
        grads = backward(trace, 0, params)
        assert np.all(grads["pretrain.W_p"] == 0.0)
        assert np.all(grads["pretrain.b_p"] == 0.0)

    def test_balanced_batch_zero_bias_gradient_on_zero_model(self):
        params = ModelParams.zeros(4, 10)
        X = random_sequence(5, 10, 6)
        total = params.zeros_like()
        for label in (0, 1):
            trace = forward_outcome(params, X)
            g = backward(trace, label, params)
            total = total + g
        np.testing.assert_allclose(total["head.b_l"], [0.0, 0.0], atol=1e-12)

    def test_stale_trace_rejected(self):
        params = random_params(4, 10, 7)
        other = random_params(5, 10, 8)
        trace = forward_outcome(params, random_sequence(4, 10, 9))
        with pytest.raises(ValueError):
            backward(trace, 1, other)


class TestPretrainPath:
    def test_pretrain_gradients_match_finite_differences(self):
        params = random_params(4, 10, 11)
        X = random_sequence(6, 10, 12)
        target = X[2].copy()
        masked = X.copy()
        masked[2] = 0.0

        def loss_fn(p):
            return pretrain_loss(forward_pretrain(p, masked).pre_probs, target)

        trace = forward_pretrain(params, masked)
        analytic = backward_pretrain(trace, target, params)
        numeric = finite_difference_grads(params, loss_fn)
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_outcome_head_untouched_by_pretrain_loss(self):
        params = random_params(4, 10, 13)
        X = random_sequence(4, 10, 14)
        trace = forward_pretrain(params, X)
        grads = backward_pretrain(trace, X[0], params)
        assert np.all(grads["head.W_l"] == 0.0)
        assert np.all(grads["head.b_l"] == 0.0)


class TestForwardDeterminism:
    def test_identical_inputs_identical_trace(self):
        params = random_params(4, 10, 20)
        X = random_sequence(8, 10, 21)
        mask = make_dropout_mask(np.random.default_rng(5), 4, 0.5)
        t1 = forward_outcome(params, X, dropout_mask=mask)
        t2 = forward_outcome(params, X, dropout_mask=mask)
        assert np.array_equal(t1.probs, t2.probs)
        assert np.array_equal(t1.gru.H, t2.gru.H)

    def test_probability_outputs_are_distributions(self):
        for seed in range(10):
            params = random_params(4, 10, seed, scale=1.0)
            trace = forward_outcome(params, random_sequence(6, 10, seed))
            assert np.all(trace.probs >= 0)
            assert abs(trace.probs.sum() - 1.0) < 1e-9
            assert abs(trace.attn.alpha.sum() - 1.0) < 1e-9


class TestBatchedPasses:
    """A batch is its sequences run alone: same bits, whatever the lengths or order."""

    LENGTHS = (7, 1, 12, 7, 3)

    def batch(self, k=5, d=11):
        params = random_params(k, d, 30, scale=0.8)
        Xs = [random_sequence(L, d, 40 + i) for i, L in enumerate(self.LENGTHS)]
        rng = np.random.default_rng(6)
        masks = [make_dropout_mask(rng, k, 0.5) if i % 2 else None for i in range(len(Xs))]
        labels = [i % 2 for i in range(len(Xs))]
        return params, Xs, masks, labels

    def test_outcome_batch_matches_single_sequences(self):
        params, Xs, masks, labels = self.batch()
        traces = forward_outcome_batch(params, Xs, masks)
        grads = backward_batch(traces, labels, params)
        for X, mask, label, trace, g in zip(Xs, masks, labels, traces, grads):
            alone = forward_outcome(params, X, dropout_mask=mask)
            assert trace.gru.H.shape == (X.shape[0], params.hidden_dim)
            for name in ("Z", "R", "C", "H"):
                assert np.array_equal(getattr(trace.gru, name), getattr(alone.gru, name))
            assert np.array_equal(trace.probs, alone.probs)
            g_alone = backward(alone, label, params)
            for name in params.names():
                assert np.array_equal(g[name], g_alone[name]), name

    def test_pretrain_batch_matches_single_sequences(self):
        params, Xs, _, _ = self.batch()
        traces = forward_pretrain_batch(params, Xs)
        grads = backward_pretrain_batch(traces, [X[0] for X in Xs], params)
        for X, trace, g in zip(Xs, traces, grads):
            alone = forward_pretrain(params, X)
            assert np.array_equal(trace.pre_probs, alone.pre_probs)
            g_alone = backward_pretrain(alone, X[0], params)
            for name in params.names():
                assert np.array_equal(g[name], g_alone[name]), name

    def test_batch_order_does_not_matter(self):
        params, Xs, masks, labels = self.batch()
        traces = forward_outcome_batch(params, Xs, masks)
        grads = backward_batch(traces, labels, params)
        rev_traces = forward_outcome_batch(params, Xs[::-1], masks[::-1])
        rev_grads = backward_batch(rev_traces, labels[::-1], params)
        for a, b, ga, gb in zip(traces, rev_traces[::-1], grads, rev_grads[::-1]):
            assert np.array_equal(a.probs, b.probs)
            for name in params.names():
                assert np.array_equal(ga[name], gb[name])

    def test_empty_sequence_in_batch_rejected(self):
        params = random_params(4, 11, 1)
        with pytest.raises(ValueError):
            forward_outcome_batch(params, [random_sequence(3, 11, 0), np.zeros((0, 11))])
