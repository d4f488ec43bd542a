import ast
import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import weakref
from itertools import accumulate

import numpy as np
import pytest

import fedstudent.network as network
from fedstudent.params import ModelParams, layer_shapes
from fedstudent.network import (
    HEADS,
    SCORE_CHUNK,
    _forward,
    _pack,
    _rows_gram,
    _rows_times,
    attention_pool,
    gru_forward,
    loss_and_gradient,
    make_dropout_mask,
    score,
)
from fedstudent.pretrain import CbowInstance
from fedstudent.synthgen import generate_cohort


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
        return _forward(params, [X], "outcome").probs[0]

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


def outcome_loss(probs, label):
    """The outcome head's loss of one probability pair against a binary label."""
    losses, _ = HEADS["outcome"][2](np.array([probs]), [label])
    return losses[0]


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
                return loss_and_gradient(p, "outcome", [X], [label])[0]

            analytic = loss_and_gradient(params, "outcome", [X], [label])[1]
            numeric = finite_difference_grads(params, loss_fn)
            assert max_relative_error(analytic, numeric) <= 1e-4

    def test_gradients_with_fixed_dropout_mask(self):
        params = random_params(4, 10, 2)
        X = random_sequence(5, 10, 3)
        mask = make_dropout_mask(np.random.default_rng(0), (1, 4), 0.5)

        def loss_fn(p):
            return loss_and_gradient(p, "outcome", [X], [1], mask)[0]

        analytic = loss_and_gradient(params, "outcome", [X], [1], mask)[1]
        numeric = finite_difference_grads(params, loss_fn)
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_pretrain_head_gradient_exactly_zero(self):
        params = random_params(4, 10, 4)
        _, grads = loss_and_gradient(params, "outcome", [random_sequence(5, 10, 5)], [0])
        assert np.all(grads["pretrain.W_p"] == 0.0)
        assert np.all(grads["pretrain.b_p"] == 0.0)

    def test_balanced_batch_zero_bias_gradient_on_zero_model(self):
        params = ModelParams.zeros(4, 10)
        X = random_sequence(5, 10, 6)
        _, mean = loss_and_gradient(params, "outcome", [X, X], [0, 1])
        np.testing.assert_allclose(mean["head.b_l"], [0.0, 0.0], atol=1e-12)

    def test_target_or_mask_count_mismatch_rejected(self):
        params = random_params(4, 10, 7)
        X = random_sequence(4, 10, 9)
        with pytest.raises(ValueError):
            loss_and_gradient(params, "outcome", [X], [1, 0])
        with pytest.raises(ValueError):
            loss_and_gradient(params, "pretrain", [X, X], [X[0]])
        with pytest.raises(ValueError):
            loss_and_gradient(params, "outcome", [X], [1], [None, None])

    def test_masks_other_than_one_b_by_k_array_rejected(self):
        """The per-sequence list form is gone; so is any array not shaped (B, k)."""
        params = random_params(4, 10, 7)
        Xs = [random_sequence(4, 10, 9), random_sequence(2, 10, 10)]
        row = np.ones(4)
        for masks, got in (([row, row], "list"), ([row, None], "list"), ((row, row), "tuple"),
                           (np.ones((1, 4)), r"\(1, 4\)"), (np.ones((2, 5)), r"\(2, 5\)"),
                           (np.ones(4), r"\(4,\)"), (np.ones((2, 4, 1)), r"\(2, 4, 1\)")):
            expected = rf"dropout masks must be None or one \(2, 4\) array, got {got}$"
            with pytest.raises(ValueError, match=expected):
                _forward(params, Xs, "outcome", masks)
            with pytest.raises(ValueError, match=expected):
                loss_and_gradient(params, "outcome", Xs, [1, 0], masks)


class TestPretrainPath:
    def test_pretrain_gradients_match_finite_differences(self):
        params = random_params(4, 10, 11)
        X = random_sequence(6, 10, 12)
        target = X[2].copy()
        masked = X.copy()
        masked[2] = 0.0

        def loss_fn(p):
            return loss_and_gradient(p, "pretrain", [masked], [target])[0]

        analytic = loss_and_gradient(params, "pretrain", [masked], [target])[1]
        numeric = finite_difference_grads(params, loss_fn)
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_outcome_head_untouched_by_pretrain_loss(self):
        params = random_params(4, 10, 13)
        X = random_sequence(4, 10, 14)
        _, grads = loss_and_gradient(params, "pretrain", [X], [X[0]])
        assert np.all(grads["head.W_l"] == 0.0)
        assert np.all(grads["head.b_l"] == 0.0)


class TestForwardDeterminism:
    def test_identical_inputs_identical_trace(self):
        params = random_params(4, 10, 20)
        X = random_sequence(8, 10, 21)
        mask = make_dropout_mask(np.random.default_rng(5), (1, 4), 0.5)
        t1 = _forward(params, [X], "outcome", mask)
        t2 = _forward(params, [X], "outcome", mask)
        assert np.array_equal(t1.probs, t2.probs)
        assert np.array_equal(t1.H, t2.H)

    def test_probability_outputs_are_distributions(self):
        for seed in range(10):
            params = random_params(4, 10, seed, scale=1.0)
            trace = _forward(params, [random_sequence(6, 10, seed)], "outcome")
            assert np.all(trace.probs >= 0)
            assert abs(trace.probs[0].sum() - 1.0) < 1e-9
            assert abs(trace.sequence(0)[1].sum() - 1.0) < 1e-9


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
    """A batch's rows are its sequences run alone, and its mean gradient is theirs added up over the batch size.

    Within 1e-12, not bit for bit: a batch runs each step as one matrix
    product over its rows, and a product adds its terms in an order that
    depends on its row count, so a row rounds differently than alone.
    """

    LENGTHS = (7, 1, 12, 7, 3)

    def batch(self, k=5, d=11):
        params = random_params(k, d, 30, scale=0.8)
        Xs = [random_sequence(L, d, 40 + i) for i, L in enumerate(self.LENGTHS)]
        rng = np.random.default_rng(6)
        masks = np.ones((len(Xs), k))   # a ones row is no dropout
        masks[1::2] = make_dropout_mask(rng, (len(Xs) // 2, k), 0.5)
        labels = [i % 2 for i in range(len(Xs))]
        return params, Xs, masks, labels

    def assert_rows_alone(self, trace, alone, i, j=0):
        rows, lone = trace.rows(i), alone.rows(j)
        assert len(rows) == len(lone)
        for name in ("ZR", "C", "A"):
            np.testing.assert_allclose(getattr(trace, name)[rows], getattr(alone, name)[lone],
                                       rtol=0, atol=1e-12, err_msg=name)
        (H, alpha), (lone_H, lone_alpha) = trace.sequence(i), alone.sequence(j)
        np.testing.assert_allclose(H, lone_H, rtol=0, atol=1e-12)
        np.testing.assert_allclose(alpha, lone_alpha, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.pooled[i], alone.pooled[j], rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.probs[i], alone.probs[j], rtol=0, atol=1e-12)

    def test_outcome_batch_matches_single_sequences(self):
        params, Xs, masks, labels = self.batch()
        for order in (list(range(len(Xs))), list(range(len(Xs)))[::-1]):
            batch = ([Xs[i] for i in order], [labels[i] for i in order], masks[order])
            trace = _forward(params, batch[0], "outcome", batch[2])
            lone = []
            for row, i in enumerate(order):
                alone = _forward(params, [Xs[i]], "outcome", masks[[i]])
                self.assert_rows_alone(trace, alone, row)
                _, grad = loss_and_gradient(params, "outcome", [Xs[i]], [labels[i]], masks[[i]])
                lone.append(grad * (1.0 / len(order)))
            assert_close_to_sum(loss_and_gradient(params, "outcome", *batch)[1], lone)

    def test_pretrain_batch_matches_single_sequences(self):
        params, Xs, _, _ = self.batch()
        for batch in (Xs, Xs[::-1]):
            trace = _forward(params, batch, "pretrain")
            lone = []
            for i, X in enumerate(batch):
                alone = _forward(params, [X], "pretrain")
                self.assert_rows_alone(trace, alone, i)
                lone.append(loss_and_gradient(params, "pretrain", [X], [X[0]])[1] * (1.0 / len(batch)))
            assert_close_to_sum(loss_and_gradient(params, "pretrain", batch, [X[0] for X in batch])[1], lone)

    def test_batch_order_does_not_matter(self):
        params, Xs, masks, labels = self.batch()
        trace = _forward(params, Xs, "outcome", masks)
        rev = _forward(params, Xs[::-1], "outcome", masks[::-1])
        n = len(Xs)
        for i in range(n):
            self.assert_rows_alone(trace, rev, i, n - 1 - i)

    def test_trace_holds_one_row_per_step_of_each_sequence(self):
        """No padded cell: the sequences' rows partition the trace's sum(lengths) rows."""
        params, Xs, masks, _ = self.batch()
        trace = _forward(params, Xs, "outcome", masks)
        N = sum(self.LENGTHS)
        for name in ("X", "ZR", "C", "H", "A", "alpha", "col"):
            assert len(getattr(trace, name)) == N, name
        rows = np.concatenate([trace.rows(i) for i in range(len(Xs))])
        assert sorted(rows.tolist()) == list(range(N))
        for i, X in enumerate(Xs):
            assert np.array_equal(trace.X[trace.rows(i)], X)
            assert np.all(trace.col[trace.rows(i)] == trace.order.index(i))

    def test_same_batch_twice_gives_identical_bytes(self):
        params, Xs, masks, labels = self.batch()
        assert same_trace(_forward(params, Xs, "outcome", masks), _forward(params, Xs, "outcome", masks))
        (l1, g1), (l2, g2) = (loss_and_gradient(params, "outcome", Xs, labels, masks) for _ in range(2))
        assert l1 == l2
        assert all(g1[name].tobytes() == g2[name].tobytes() for name in g1.names())
        assert same_trace(_forward(params, Xs, "pretrain"), _forward(params, Xs, "pretrain"))

    def test_empty_sequence_in_batch_rejected(self):
        params = random_params(4, 11, 1)
        with pytest.raises(ValueError):
            _forward(params, [random_sequence(3, 11, 0), np.zeros((0, 11))], "outcome")
        with pytest.raises(ValueError):
            _forward(params, [], "outcome")


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
                alone = _forward(params, [X], "outcome")
                assert abs(p - alone.probs[0, 0]) <= 1e-12
                np.testing.assert_allclose(vector, alone.pooled[0], rtol=0, atol=1e-12)
            by_length = sorted(range(len(Xs)), key=lambda i: Xs[i].shape[0])
            for start in range(0, len(Xs), SCORE_CHUNK):
                chunk = by_length[start:start + SCORE_CHUNK]
                trace = _forward(params, [Xs[i] for i in chunk], "outcome")
                assert p_pass[chunk].tobytes() == trace.probs[:, 0].tobytes()
                assert pooled[chunk].tobytes() == trace.pooled.tobytes()

    def test_frees_each_chunk_trace_before_the_next_forward(self, monkeypatch):
        """Two chunks' packed arrays are never alive together."""
        params = random_params(5, 11, 32, scale=0.8)
        cohort = [random_sequence(L, 11, 300 + L) for L in range(1, 3 * SCORE_CHUNK + 1)]
        forward, traces = network._forward, []

        def checked_forward(*args):
            assert all(ref() is None for ref in traces), "an earlier chunk's trace is alive"
            trace = forward(*args)
            traces.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(network, "_forward", checked_forward)
        score(params, cohort)
        assert len(traces) == 3


# Runs a forward, a loss and gradient, and `score`, and prints a digest of every output's
# bytes. Each step's products over 256 sequences (256 x 12 x 144) are large
# enough for OpenBLAS to run them on two threads when it may.
THREADED_RUN = """
import hashlib
import numpy as np
from fedstudent.network import _forward, loss_and_gradient, make_dropout_mask, score
from fedstudent.params import ModelParams

rng = np.random.default_rng(0)
params = ModelParams.initialized(48, 12, rng)
Xs = [rng.integers(0, 2, size=(L, 12)).astype(float) for L in rng.integers(1, 41, size=256)]
masks = make_dropout_mask(rng, (256, 48), 0.5)
trace = _forward(params, Xs, "outcome", masks)
loss, grad = loss_and_gradient(params, "outcome", Xs, [i % 2 for i in range(256)], masks)
p_pass, pooled = score(params, Xs)
digest = hashlib.sha256()
for array in (trace.H, trace.probs, np.float64(loss), *(grad[name] for name in grad.names()),
              p_pass, pooled):
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


def test_only_loss_and_gradient_runs_backward():
    """A trace reaches the backward pass only from the forward pass that made it."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "fedstudent"
    for path in package.rglob("*.py"):
        if path.stem != "network":
            assert "_backward" not in path.read_text(encoding="utf-8"), path
    tree = ast.parse((package / "network.py").read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "_backward"]
    caller = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "loss_and_gradient")
    assert len(calls) == 1 and caller.lineno <= calls[0] <= caller.end_lineno


# Random batches of the criterion-6 cohort: per batch a fresh model at the
# acceptance plan's hidden size, 1-16 students, and a dropout mask array.
CRITERION6_BATCHES = 200


@pytest.fixture(scope="module")
def criterion6_batches():
    from test_acceptance import COHORT_GEN_SEED, acceptance_cohort_spec

    records = generate_cohort(acceptance_cohort_spec(), COHORT_GEN_SEED)
    d = records[0].sequence.shape[1]
    batches = []
    for seed in range(CRITERION6_BATCHES):
        rng = np.random.default_rng(seed)
        picked = [records[i] for i in rng.choice(len(records), size=int(rng.integers(1, 17)), replace=False)]
        params = random_params(24, d, seed, scale=0.5)
        instances = [CbowInstance(r.sequence, int(rng.integers(r.length))) for r in picked]
        batches.append((params, picked, instances, make_dropout_mask(rng, (len(picked), 24), 0.5)))
    return batches


def per_layer_backward(params, trace, head, grad_probs):
    """`network._backward` as it was written before its products went into the
    gradient's layer views: each layer gradient a new array, assigned by name."""
    k = params.hidden_dim
    W_name, b_name, _ = HEADS[head]
    g = params.zeros_like()
    probs = trace.probs
    g_logits = probs * (grad_probs - (grad_probs * probs).sum(axis=1, keepdims=True))
    g[W_name] = trace.head_input.T @ g_logits
    g[b_name] = g_logits.sum(axis=0)
    g_pooled = ((g_logits @ params[W_name].T) * trace.mask)[trace.order]
    H, A, alpha, col = trace.H, trace.A, trace.alpha, trace.col
    G_row = g_pooled[col]
    galpha = np.einsum("rk,rk->r", H, G_row)
    ge = alpha * (galpha - np.bincount(col, alpha * galpha, len(trace.order))[col])
    g["attn.p"] = _rows_gram(ge, A)
    Gpre = (ge[:, None] * (1.0 - A * A)) * params["attn.p"]
    g["attn.W_alpha"] = _rows_gram(Gpre, H)
    GH = alpha[:, None] * G_row
    GH += _rows_times(Gpre, params["attn.W_alpha"])
    U = params["gru.recurrent_weights"]
    U_zr, U_c = U[: 2 * k], U[2 * k:]
    active, offsets = trace.active, trace.offsets
    running = np.array(active)
    Hprev = np.zeros_like(H)
    Hprev[active[0]:] = H[np.arange(active[0], len(H)) - running[:-1].repeat(running[1:])]
    Z, R, C = trace.ZR[:, :k], trace.ZR[:, k:], trace.C
    one_minus_Z = 1.0 - Z
    dz_factor = (C - Hprev) * Z * one_minus_Z
    dc_factor = Z * (1.0 - C * C)
    dr_factor = Hprev * R * (1.0 - R)
    dgates = np.empty((len(H), 3 * k))
    gh = np.zeros((active[0], k))
    for t in range(len(active) - 1, -1, -1):
        n, lo, hi = active[t], offsets[t], offsets[t + 1]
        gt = gh[:n] + GH[lo:hi]
        dc = gt * dc_factor[lo:hi]
        tmp = dc @ U_c
        dg = dgates[lo:hi]
        dg[:, :k] = gt * dz_factor[lo:hi]
        dg[:, k: 2 * k] = tmp * dr_factor[lo:hi]
        dg[:, 2 * k:] = dc
        gh[:n] = gt * one_minus_Z[lo:hi] + tmp * R[lo:hi] + dg[:, : 2 * k] @ U_zr
    g["gru.input_weights"] = _rows_gram(dgates, trace.X)
    g["gru.recurrent_weights"][: 2 * k] = _rows_gram(dgates[:, : 2 * k], Hprev)
    g["gru.recurrent_weights"][2 * k:] = _rows_gram(dgates[:, 2 * k:], R * Hprev)
    g["gru.biases"] = dgates.sum(axis=0)
    return g


def head_inputs(head, picked, instances):
    """A batch's sequences and targets under `head`: the records and their labels,
    or one masked-position instance per record and its original row."""
    if head == "outcome":
        return [r.sequence for r in picked], [r.label for r in picked]
    return [inst.masked_matrix() for inst in instances], [inst.target for inst in instances]


def float_copy(record):
    """`record` with its matrix as float64, as records were built before they kept one byte per cell."""
    return dataclasses.replace(record, sequence=record.sequence.astype(np.float64))


class TestOneByteRecords:
    """Records keep uint8 matrices; a batch is cast to float64 once, where `_run_gru`
    gathers it, so every output has the bytes of the batch's float64 copy."""

    @pytest.mark.parametrize("head", ["outcome", "pretrain"])
    def test_uint8_and_float64_copies_give_the_same_bytes(self, criterion6_batches, head):
        for seed, (params, picked, instances, mask) in enumerate(criterion6_batches):
            assert all(r.sequence.dtype == np.uint8 for r in picked)
            as_float = [CbowInstance(inst.source.astype(np.float64), inst.target_position) for inst in instances]
            one_byte = head_inputs(head, picked, instances)
            eight_byte = head_inputs(head, [float_copy(r) for r in picked], as_float)
            assert all(X.dtype == np.float64 for X in eight_byte[0])
            for masks in (None, mask):
                (l1, g1), (l2, g2) = (loss_and_gradient(params, head, Xs, targets, masks)
                                      for Xs, targets in (one_byte, eight_byte))
                assert l1 == l2 and g1.flat.tobytes() == g2.flat.tobytes(), (seed, masks is None)
            t1, t2 = (_forward(params, Xs, head, mask) for Xs, _ in (one_byte, eight_byte))
            assert t1.X.dtype == np.float64 and t1.X.tobytes() == t2.X.tobytes(), seed
            if head == "outcome":
                (p1, v1), (p2, v2) = (score(params, Xs) for Xs, _ in (one_byte, eight_byte))
                assert p1.tobytes() == p2.tobytes() and v1.tobytes() == v2.tobytes(), seed

    def test_network_casts_a_batch_in_one_place(self):
        """Of the functions that take sequences, only `_run_gru` casts, once: the
        concatenation that gathers the batch names float64 as its dtype."""
        tree = ast.parse((pathlib.Path(__file__).resolve().parents[1] / "src" / "fedstudent"
                          / "network.py").read_text(encoding="utf-8"))
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        takers = [name for name, node in functions.items()
                  if {"Xs", "X", "sequences"} & {a.arg for a in node.args.args}]
        assert set(takers) == {"_run_gru", "gru_forward", "_forward", "score", "loss_and_gradient"}

        def casts(node):
            return [call for call in ast.walk(node) if isinstance(call, ast.Call) and (
                any(kw.arg == "dtype" for kw in call.keywords)
                or isinstance(call.func, ast.Attribute) and call.func.attr == "astype")]

        assert {name: len(casts(functions[name])) for name in takers} == {
            "_run_gru": 1, "gru_forward": 0, "_forward": 0, "score": 0, "loss_and_gradient": 0}
        (cast,) = casts(functions["_run_gru"])
        assert ast.unparse(cast.func) == "np.concatenate"
        assert [ast.unparse(kw.value) for kw in cast.keywords] == ["np.float64"]


class TestGradientWrittenInPlace:
    @pytest.mark.parametrize("head", ["outcome", "pretrain"])
    def test_layer_views_match_per_layer_assignment_bit_for_bit(self, criterion6_batches, head):
        """Over the random batches, with and without a mask array, the gradient written
        into its layer views and scaled in place has the bytes of each layer assigned
        by name and the model scaled by `* (1 / B)`; the other head's layers are zero."""
        other = [name for h, (W, b, _) in HEADS.items() if h != head for name in (W, b)]
        for seed, (params, picked, instances, mask) in enumerate(criterion6_batches):
            Xs, targets = head_inputs(head, picked, instances)
            for masks in (None, mask):
                trace = _forward(params, Xs, head, masks)
                _, grad_probs = HEADS[head][2](trace.probs, targets)
                expected = per_layer_backward(params, trace, head, grad_probs) * (1.0 / len(Xs))
                _, grad = loss_and_gradient(params, head, Xs, targets, masks)
                assert grad.flat.tobytes() == expected.flat.tobytes(), (seed, masks is None)
                assert all(not grad[name].any() for name in other)


def projection_kept_run_gru(params, Xs):
    """`network._run_gru` as it was written when it kept the (N, 3k) input
    projection beside the gate arrays and added its slices at each step."""
    k = params.hidden_dim
    W_in = params["gru.input_weights"]
    U = params["gru.recurrent_weights"]
    lengths = [X.shape[0] for X in Xs]
    order, active, offsets, step, col = _pack(lengths)
    first = np.array(list(accumulate((lengths[i] for i in order[:-1]), initial=0)))
    X = np.concatenate([Xs[i] for i in order], dtype=np.float64).take(first[col] + step, axis=0)
    XW = _rows_times(X, W_in.T)
    XW += params["gru.biases"]
    XW[:, : 2 * k] *= 0.5
    U_zr_T = 0.5 * U[: 2 * k].T
    U_c_T = U[2 * k:].T
    N = len(col)
    ZR = np.empty((N, 2 * k))
    C = np.empty((N, k))
    H = np.empty((N, k))
    XW_zr, XW_c = XW[:, : 2 * k], XW[:, 2 * k:]
    h = np.zeros((active[0], k))
    for n, lo, hi in zip(active, offsets, offsets[1:]):
        h, zr, c, h_next = h[:n], ZR[lo:hi], C[lo:hi], H[lo:hi]
        np.matmul(h, U_zr_T, out=zr)
        zr += XW_zr[lo:hi]
        np.tanh(zr, out=zr)
        zr *= 0.5
        zr += 0.5
        np.matmul(zr[:, k:] * h, U_c_T, out=c)
        c += XW_c[lo:hi]
        np.tanh(c, out=c)
        np.subtract(c, h, out=h_next)
        h_next *= zr[:, :k]
        h_next += h
        h = h_next
    return order, active, offsets, col, X, ZR, C, H


class TestGatesStartFromTheProjection:
    """`_run_gru` builds its gate arrays from the input projection and adds each
    step's recurrent product to them in place: the same products and the same
    adds, so every byte is what the projection-keeping copy gives."""

    def test_matches_the_projection_keeping_copy_bit_for_bit(self, monkeypatch):
        k, d = 24, 19
        for seed in range(200):
            rng = np.random.default_rng(seed)
            lengths = rng.integers(1, 41, size=int(rng.integers(1, 17)))
            if seed % 2 == 0:
                Xs = [random_sequence(int(L), d, 1000 * seed + i).astype(np.uint8) for i, L in enumerate(lengths)]
            else:
                Xs = [rng.normal(size=(int(L), d)) for L in lengths]
            params = random_params(k, d, seed, scale=0.5)
            mask = make_dropout_mask(rng, (len(Xs), k), 0.5)
            targets = {"outcome": [int(rng.integers(2)) for _ in Xs],
                       "pretrain": [X[-1].astype(np.float64) for X in Xs]}
            new, old = network._run_gru(params, Xs), projection_kept_run_gru(params, Xs)
            assert new[:3] == old[:3], seed
            for a, b in zip(new[3:], old[3:]):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), seed
            trace = _forward(params, Xs, "outcome")
            assert trace.ZR.flags.c_contiguous and trace.C.flags.c_contiguous, seed
            assert not np.shares_memory(trace.ZR, trace.C), seed
            for head in HEADS:
                for masks in (None, mask):
                    loss, grad = loss_and_gradient(params, head, Xs, targets[head], masks)
                    with monkeypatch.context() as patch:
                        patch.setattr(network, "_run_gru", projection_kept_run_gru)
                        old_loss, old_grad = loss_and_gradient(params, head, Xs, targets[head], masks)
                    assert loss == old_loss and grad.flat.tobytes() == old_grad.flat.tobytes(), \
                        (seed, head, masks is None)
