import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from fedstudent.params import ModelParams, layer_shapes
from fedstudent.network import (
    SCORE_CHUNK,
    attention_pool,
    backward,
    backward_pretrain,
    forward_outcome,
    forward_pretrain,
    gru_forward,
    make_dropout_mask,
    outcome_loss,
    pretrain_loss,
    score,
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
    """The outcome head's probabilities, read from a forward pass."""

    def probs(self, params):
        X = random_sequence(3, params.input_dim, 0)
        return forward_outcome(params, [X]).probs[0]

    def test_zero_head_gives_uniform(self):
        params = ModelParams.zeros(3, 10)
        params["gru.input_weights"] = np.full((9, 10), 0.4)   # a non-zero pooled vector
        np.testing.assert_allclose(self.probs(params), [0.5, 0.5])

    def test_constant_bias_shift_invariance(self):
        params = ModelParams.zeros(3, 10)
        params["head.b_l"] = np.array([7.3, 7.3])
        np.testing.assert_allclose(self.probs(params), [0.5, 0.5], atol=1e-12)

    def test_log_nine_logit(self):
        params = ModelParams.zeros(1, 8)
        params["head.b_l"] = np.array([math.log(9.0), 0.0])
        np.testing.assert_allclose(self.probs(params), [0.9, 0.1], rtol=1e-12)

    def test_shift_invariance_random(self):
        params = random_params(4, 11, 3)
        base = self.probs(params)
        shifted = params.copy()
        shifted["head.b_l"] = params["head.b_l"] + 123.456
        np.testing.assert_allclose(self.probs(shifted), base, atol=1e-12)


class TestBceLoss:
    def test_uniform_prediction_two_term_value(self):
        # Both terms of the two-term form contribute ln 2.
        assert outcome_loss(np.array([0.5, 0.5]), 1) == pytest.approx(2.0 * math.log(2.0))

    def test_perfect_prediction_near_zero(self):
        assert outcome_loss(np.array([1.0, 0.0]), 1) < 1e-10

    def test_confident_pair_value(self):
        assert outcome_loss(np.array([0.9, 0.1]), 1) == pytest.approx(-2.0 * math.log(0.9), rel=1e-9)


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
                return outcome_loss(forward_outcome(p, [X]).probs[0], label)

            analytic = backward(forward_outcome(params, [X]), [label], params)
            numeric = finite_difference_grads(params, loss_fn)
            assert max_relative_error(analytic, numeric) <= 1e-4

    def test_gradients_with_fixed_dropout_mask(self):
        params = random_params(4, 10, 2)
        X = random_sequence(5, 10, 3)
        mask = make_dropout_mask(np.random.default_rng(0), 4, 0.5)

        def loss_fn(p):
            return outcome_loss(forward_outcome(p, [X], [mask]).probs[0], 1)

        analytic = backward(forward_outcome(params, [X], [mask]), [1], params)
        numeric = finite_difference_grads(params, loss_fn)
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_pretrain_head_gradient_exactly_zero(self):
        params = random_params(4, 10, 4)
        grads = backward(forward_outcome(params, [random_sequence(5, 10, 5)]), [0], params)
        assert np.all(grads["pretrain.W_p"] == 0.0)
        assert np.all(grads["pretrain.b_p"] == 0.0)

    def test_balanced_batch_zero_bias_gradient_on_zero_model(self):
        params = ModelParams.zeros(4, 10)
        X = random_sequence(5, 10, 6)
        total = backward(forward_outcome(params, [X, X]), [0, 1], params)
        np.testing.assert_allclose(total["head.b_l"], [0.0, 0.0], atol=1e-12)

    def test_stale_trace_rejected(self):
        params = random_params(4, 10, 7)
        other = random_params(5, 10, 8)
        X = random_sequence(4, 10, 9)
        trace = forward_outcome(params, [X])
        with pytest.raises(ValueError):
            backward(trace, [1], other)
        with pytest.raises(ValueError):
            backward(trace, [1, 0], params)
        with pytest.raises(ValueError):
            backward_pretrain(trace, [X[0]], params)
        with pytest.raises(ValueError):
            backward(forward_pretrain(params, [X]), [1], params)


class TestPretrainPath:
    def test_pretrain_gradients_match_finite_differences(self):
        params = random_params(4, 10, 11)
        X = random_sequence(6, 10, 12)
        target = X[2].copy()
        masked = X.copy()
        masked[2] = 0.0

        def loss_fn(p):
            return pretrain_loss(forward_pretrain(p, [masked]).probs[0], target)

        analytic = backward_pretrain(forward_pretrain(params, [masked]), [target], params)
        numeric = finite_difference_grads(params, loss_fn)
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_outcome_head_untouched_by_pretrain_loss(self):
        params = random_params(4, 10, 13)
        X = random_sequence(4, 10, 14)
        grads = backward_pretrain(forward_pretrain(params, [X]), [X[0]], params)
        assert np.all(grads["head.W_l"] == 0.0)
        assert np.all(grads["head.b_l"] == 0.0)


class TestForwardDeterminism:
    def test_identical_inputs_identical_trace(self):
        params = random_params(4, 10, 20)
        X = random_sequence(8, 10, 21)
        mask = make_dropout_mask(np.random.default_rng(5), 4, 0.5)
        t1 = forward_outcome(params, [X], [mask])
        t2 = forward_outcome(params, [X], [mask])
        assert np.array_equal(t1.probs, t2.probs)
        assert np.array_equal(t1.H, t2.H)

    def test_probability_outputs_are_distributions(self):
        for seed in range(10):
            params = random_params(4, 10, seed, scale=1.0)
            trace = forward_outcome(params, [random_sequence(6, 10, seed)])
            assert np.all(trace.probs >= 0)
            assert abs(trace.probs[0].sum() - 1.0) < 1e-9
            assert abs(trace.alpha[:, 0].sum() - 1.0) < 1e-9


def assert_close_to_sum(grad, parts):
    """Each layer of grad within 1e-12 of the parts added up, relative to their summed norms."""
    for name in grad.names():
        total = sum(g[name] for g in parts)
        scale = sum(np.linalg.norm(g[name]) for g in parts)
        assert np.linalg.norm(grad[name] - total) <= 1e-12 * scale + 1e-14, name


def same_trace(t1, t2):
    fields = ("X", "ZR", "C", "H", "A", "alpha", "pooled", "head_input", "probs")
    return t1.order == t2.order and all(getattr(t1, f).tobytes() == getattr(t2, f).tobytes()
                                        for f in fields)


class TestBatchedPasses:
    """A batch's rows are its sequences run alone, and its gradient is theirs added up.

    Within 1e-12, not bit for bit: a batch runs each step as one matrix
    product over its rows, and a product adds its terms in an order that
    depends on its row count, so a row rounds differently than alone.
    """

    LENGTHS = (7, 1, 12, 7, 3)

    def batch(self, k=5, d=11):
        params = random_params(k, d, 30, scale=0.8)
        Xs = [random_sequence(L, d, 40 + i) for i, L in enumerate(self.LENGTHS)]
        rng = np.random.default_rng(6)
        masks = [make_dropout_mask(rng, k, 0.5) if i % 2 else None for i in range(len(Xs))]
        labels = [i % 2 for i in range(len(Xs))]
        return params, Xs, masks, labels

    def assert_rows_alone(self, trace, alone, i, j=0):
        a, b = trace.order.index(i), alone.order.index(j)
        L = sum(n > a for n in trace.active)
        assert L == sum(n > b for n in alone.active)
        for name in ("ZR", "C", "A"):
            np.testing.assert_allclose(getattr(trace, name)[:L, a], getattr(alone, name)[:L, b],
                                       rtol=0, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(trace.H[: L + 1, a], alone.H[: L + 1, b], rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.alpha[:L, a], alone.alpha[:L, b], rtol=0, atol=1e-12)
        assert np.all(trace.alpha[L:, a] == 0.0)
        np.testing.assert_allclose(trace.pooled[i], alone.pooled[j], rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.probs[i], alone.probs[j], rtol=0, atol=1e-12)

    def test_outcome_batch_matches_single_sequences(self):
        params, Xs, masks, labels = self.batch()
        for order in (list(range(len(Xs))), list(range(len(Xs)))[::-1]):
            trace = forward_outcome(params, [Xs[i] for i in order], [masks[i] for i in order])
            lone = []
            for row, i in enumerate(order):
                alone = forward_outcome(params, [Xs[i]], [masks[i]])
                self.assert_rows_alone(trace, alone, row)
                lone.append(backward(alone, [labels[i]], params))
            assert_close_to_sum(backward(trace, [labels[i] for i in order], params), lone)

    def test_pretrain_batch_matches_single_sequences(self):
        params, Xs, _, _ = self.batch()
        for batch in (Xs, Xs[::-1]):
            trace = forward_pretrain(params, batch)
            lone = []
            for i, X in enumerate(batch):
                alone = forward_pretrain(params, [X])
                self.assert_rows_alone(trace, alone, i)
                lone.append(backward_pretrain(alone, [X[0]], params))
            assert_close_to_sum(backward_pretrain(trace, [X[0] for X in batch], params), lone)

    def test_batch_order_does_not_matter(self):
        params, Xs, masks, labels = self.batch()
        trace = forward_outcome(params, Xs, masks)
        rev = forward_outcome(params, Xs[::-1], masks[::-1])
        n = len(Xs)
        for i in range(n):
            self.assert_rows_alone(trace, rev, i, n - 1 - i)

    def test_same_batch_twice_gives_identical_bytes(self):
        params, Xs, masks, labels = self.batch()
        t1 = forward_outcome(params, Xs, masks)
        t2 = forward_outcome(params, Xs, masks)
        assert same_trace(t1, t2)
        g1, g2 = backward(t1, labels, params), backward(t2, labels, params)
        assert all(g1[name].tobytes() == g2[name].tobytes() for name in g1.names())
        p1, p2 = forward_pretrain(params, Xs), forward_pretrain(params, Xs)
        assert same_trace(p1, p2)

    def test_empty_sequence_in_batch_rejected(self):
        params = random_params(4, 11, 1)
        with pytest.raises(ValueError):
            forward_outcome(params, [random_sequence(3, 11, 0), np.zeros((0, 11))])
        with pytest.raises(ValueError):
            forward_outcome(params, [])


class TestScore:
    def test_matches_lone_forward_in_input_order(self):
        """Within 1e-12 of a lone run (a chunk rounds differently); bit for bit its own chunk's forward."""
        params = random_params(5, 11, 31, scale=0.8)
        rng = np.random.default_rng(8)
        # Ties, both extremes, and more rows than one chunk holds.
        lengths = [1, 120, 7, 7, 7, 33, 1, 120] + rng.integers(1, 121, size=2 * SCORE_CHUNK).tolist()
        cohort = [random_sequence(L, 11, 100 + i) for i, L in enumerate(lengths)]
        for Xs in (cohort, cohort[5:6], []):
            p_pass, pooled = score(params, Xs)
            assert p_pass.shape == (len(Xs),)
            assert pooled.shape == (len(Xs), params.hidden_dim)
            for X, p, vector in zip(Xs, p_pass, pooled):
                alone = forward_outcome(params, [X])
                assert abs(p - alone.probs[0, 0]) <= 1e-12
                np.testing.assert_allclose(vector, alone.pooled[0], rtol=0, atol=1e-12)
            by_length = sorted(range(len(Xs)), key=lambda i: Xs[i].shape[0])
            for start in range(0, len(Xs), SCORE_CHUNK):
                chunk = by_length[start:start + SCORE_CHUNK]
                trace = forward_outcome(params, [Xs[i] for i in chunk])
                assert p_pass[chunk].tobytes() == trace.probs[:, 0].tobytes()
                assert pooled[chunk].tobytes() == trace.pooled.tobytes()


# Runs a forward, a backward and `score`, and prints a digest of every output's
# bytes. Each step's products over 256 sequences (256 x 12 x 144) are large
# enough for OpenBLAS to run them on two threads when it may.
THREADED_RUN = """
import hashlib
import numpy as np
from fedstudent.network import backward, forward_outcome, make_dropout_mask, score
from fedstudent.params import ModelParams

rng = np.random.default_rng(0)
params = ModelParams.initialized(48, 12, rng)
Xs = [rng.integers(0, 2, size=(L, 12)).astype(float) for L in rng.integers(1, 41, size=256)]
masks = [make_dropout_mask(rng, 48, 0.5) for _ in Xs]
trace = forward_outcome(params, Xs, masks)
grad = backward(trace, [i % 2 for i in range(256)], params)
p_pass, pooled = score(params, Xs)
digest = hashlib.sha256()
for array in (trace.H, trace.probs, *(grad[name] for name in grad.names()), p_pass, pooled):
    digest.update(array.tobytes())
print(digest.hexdigest())
"""


def test_blas_thread_count_does_not_change_results():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
        run = subprocess.run([sys.executable, "-c", THREADED_RUN], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
