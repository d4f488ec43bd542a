"""The batch network against `reference.network_v0`, its frozen per-sequence predecessor.

Over random batches, every row's probabilities, pooled vector and hidden states
must equal the oracle's bit for bit, and the batch gradient must equal the
oracle's per-sequence gradients added up in input order.
"""

import numpy as np
import pytest

from fedstudent import network
from fedstudent.params import ModelParams, layer_shapes
from reference import network_v0 as ref

CASES = 40


def random_batch(seed):
    """A random model and batch: lengths 1-40 with ties and a length-1 sequence,
    2-48 sequences, dropout masks on some batches, and saturated heads on others."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 9))
    d = int(rng.integers(3, 11)) + 7
    params = ModelParams(k, d, {n: 0.6 * rng.normal(size=s) for n, s in layer_shapes(k, d).items()})
    if seed % 3 == 0:
        # Push probabilities into the clamp region of the outcome loss.
        params["head.b_l"] = np.array([40.0, 0.0]) if seed % 2 else np.array([0.0, 40.0])
        params["pretrain.b_p"] = params["pretrain.b_p"] + 40.0 * (np.arange(d) == seed % d)
    B = int(rng.integers(2, 49))
    lengths = rng.integers(1, 41, size=B)
    lengths[rng.integers(B)] = 1
    lengths[rng.integers(B)] = lengths[rng.integers(B)]
    Xs = [rng.integers(0, 2, size=(L, d)).astype(np.float64) for L in lengths]
    if seed % 2:
        masks = [network.make_dropout_mask(rng, k, 0.5) if rng.random() < 0.7 else None for _ in Xs]
    else:
        masks = None
    labels = rng.integers(0, 2, size=B).tolist()
    return params, Xs, masks, labels


def summed(grads, params):
    total = params.zeros_like()
    for g in grads:
        total = total + g
    return total


def assert_same_layers(a, b):
    for name in a.names():
        assert a[name].tobytes() == b[name].tobytes(), name


@pytest.mark.parametrize("head", ["outcome", "pretrain"])
def test_batch_network_matches_per_sequence_oracle(head):
    clamped = 0
    for seed in range(CASES):
        params, Xs, masks, labels = random_batch(seed)
        if head == "outcome":
            trace = network.forward_outcome(params, Xs, masks)
            old = ref.forward_outcome(params, Xs, masks)
            grad = network.backward(trace, labels, params)
            old_grads = ref.backward(old, labels, params)
            old_probs = [t.probs for t in old]
            clamped += int(np.any(np.abs(trace.probs - 0.5) > 0.5 - network.PROB_CLAMP))
        else:
            targets = [X[0] for X in Xs]
            trace = network.forward_pretrain(params, Xs)
            old = ref.forward_pretrain(params, Xs)
            grad = network.backward_pretrain(trace, targets, params)
            old_grads = ref.backward_pretrain(old, targets, params)
            old_probs = [t.pre_probs for t in old]
        for i, (t, probs) in enumerate(zip(old, old_probs)):
            assert trace.probs[i].tobytes() == probs.tobytes(), (seed, i)
            assert trace.pooled[i].tobytes() == t.pooled.tobytes(), (seed, i)
            hidden = trace.H[trace.rows[i], :trace.lengths[i]]
            assert hidden.tobytes() == t.gru.H.tobytes(), (seed, i)
        assert_same_layers(grad, summed(old_grads, params))
    if head == "outcome":
        assert clamped > 0
