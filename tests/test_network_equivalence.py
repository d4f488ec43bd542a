"""The batch network against `reference.network_v0`, its frozen per-sequence predecessor.

Over random batches, every row's probabilities, pooled vector and hidden states
must be within 1e-12 of the oracle's, and each layer of the batch gradient
must differ from the mean of the oracle's per-sequence gradients by at most
1e-12 times the sum of their norms, plus 1e-14. Not bit for bit: the batch
network runs each step as one matrix product over all its rows and sums each
layer gradient over the whole batch, which adds terms in another order than
the oracle's one product per row; and the gradient of a saturated head is itself
rounding noise, so only a bound relative to the terms summed holds.
(Measured: at most 1e-15 on values, 1.4e-14 relative and 3e-16 absolute on
gradients, over 400 batches per head.)

The summed loss is bit for bit: the oracle's per-row losses of the batch
network's own probabilities, added left to right in input order. Training
losses, and so `train_loss` and the pretraining losses, keep their bits.

The oracle takes a list of per-sequence dropout masks, None for no dropout; the
batch network takes one (B, k) array, a ones row for no dropout. A ones row is
no dropout bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from fedstudent import network
from fedstudent.params import ModelParams, layer_shapes
from reference import network_v0 as ref

CASES = 200


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


def mask_array(masks, k):
    """The (B, k) array of the oracle's per-sequence masks, a ones row for each None."""
    return None if masks is None else np.array([np.ones(k) if m is None else m for m in masks])


def summed(grads, params):
    total = params.zeros_like()
    for g in grads:
        total = total + g
    return total


def assert_close_layers(grad, old_grads, params):
    old_grads = [g * (1.0 / len(old_grads)) for g in old_grads]
    total = summed(old_grads, params)
    for name in grad.names():
        scale = sum(np.linalg.norm(g[name]) for g in old_grads)
        assert np.linalg.norm(grad[name] - total[name]) <= 1e-12 * scale + 1e-14, name


@pytest.mark.parametrize("head", ["outcome", "pretrain"])
def test_batch_network_matches_per_sequence_oracle(head):
    assert_matches_oracle(head, range(CASES))


@pytest.mark.parametrize("head", ["outcome", "pretrain"])
def test_row_blocked_products_match_per_sequence_oracle(head, monkeypatch):
    """With a limit of 100 multiply-adds per product, every product over the packed
    rows runs in two or more row blocks, many with a shorter last block, and the
    same oracle bounds hold."""
    monkeypatch.setattr(network, "ONE_THREAD_MADDS", 100)
    rows, blocks = [], []
    for name in ("_rows_times", "_rows_gram"):
        def product(a, b, run=getattr(network, name), **out):
            rows.append(a.shape[0])
            return run(a, b, **out)
        monkeypatch.setattr(network, name, product)

    def block(row_madds, run=network._block):
        blocks.append(run(row_madds))
        return blocks[-1]
    monkeypatch.setattr(network, "_block", block)
    seeds = range(1, 9)
    assert_matches_oracle(head, seeds)
    # Per seed two forward passes (input projection, attention scores, e, pooling)
    # and one backward pass (attn.p, attn.W_alpha, the gradient at H and the three
    # GRU weight gradients).
    assert len(rows) == len(blocks) == len(seeds) * (2 * 4 + 6)
    assert all(n >= 2 * b for n, b in zip(rows, blocks)), list(zip(rows, blocks))
    assert sum(n % b != 0 for n, b in zip(rows, blocks)) > len(rows) // 4


def assert_matches_oracle(head, seeds):
    saturated = 0
    for seed in seeds:
        params, Xs, masks, labels = random_batch(seed)
        if head == "outcome":
            targets, old_loss = labels, ref.outcome_loss
            old = ref.forward_outcome(params, Xs, masks)
            old_grads = ref.backward(old, labels, params)
            old_probs = [t.probs for t in old]
        else:
            targets, old_loss, masks = [X[0] for X in Xs], ref.pretrain_loss, None
            old = ref.forward_pretrain(params, Xs)
            old_grads = ref.backward_pretrain(old, targets, params)
            old_probs = [t.pre_probs for t in old]
        array = mask_array(masks, params.hidden_dim)
        trace = network._forward(params, Xs, head, array)
        loss, grad = network.loss_and_gradient(params, head, Xs, targets, array)
        expected = 0.0
        for probs, target in zip(trace.probs, targets):
            expected += old_loss(probs, target)
        assert loss == expected, seed
        saturated += int(np.any(np.abs(trace.probs - 0.5) > 0.5 - network.PROB_CLAMP))
        for i, (t, probs) in enumerate(zip(old, old_probs)):
            np.testing.assert_allclose(trace.probs[i], probs, rtol=0, atol=1e-12, err_msg=f"{seed} {i}")
            np.testing.assert_allclose(trace.pooled[i], t.pooled, rtol=0, atol=1e-12, err_msg=f"{seed} {i}")
            np.testing.assert_allclose(trace.sequence(i)[0], t.gru.H, rtol=0, atol=1e-12, err_msg=f"{seed} {i}")
        assert_close_layers(grad, old_grads, params)
    assert saturated > 0


@pytest.mark.parametrize("head", ["outcome", "pretrain"])
def test_ones_rows_are_no_dropout_bit_for_bit(head):
    """Over the random batches, every row of a mixed mask array that stands for the
    oracle's None leaves its pooled vector's bytes untouched, and an all-ones array
    gives the bytes of no mask in every trace array, the loss and the gradient."""
    for seed in range(CASES):
        params, Xs, masks, labels = random_batch(seed)
        targets = labels if head == "outcome" else [X[0] for X in Xs]
        if masks is not None:
            trace = network._forward(params, Xs, head, mask_array(masks, params.hidden_dim))
            for i, m in enumerate(masks):
                if m is None:
                    assert trace.head_input[i].tobytes() == trace.pooled[i].tobytes(), (seed, i)
        ones = np.ones((len(Xs), params.hidden_dim))
        plain, masked = (network._forward(params, Xs, head, m) for m in (None, ones))
        assert plain.order == masked.order
        for name in (f.name for f in dataclasses.fields(plain)):
            if name not in ("order", "active", "offsets"):
                assert getattr(plain, name).tobytes() == getattr(masked, name).tobytes(), name
        (l1, g1), (l2, g2) = (network.loss_and_gradient(params, head, Xs, targets, m) for m in (None, ones))
        assert l1 == l2 and g1.flat.tobytes() == g2.flat.tobytes(), seed


def test_outcome_losses_match_oracle_bits_at_the_clamp():
    """Rows at, inside and beyond the clamp, and on both sides of it, for both labels."""
    edge = network.PROB_CLAMP
    firsts = [0.0, 1e-300, edge / 2, edge, 2 * edge, 1e-9, 0.3, 0.5, 0.7, 1 - 1e-9,
              1 - 2 * edge, 1 - edge, 1 - edge / 2, 1.0]
    probs = np.array([[p, 1.0 - p] for p in firsts] * 2)
    labels = [1] * len(firsts) + [0] * len(firsts)
    losses, _ = network.HEADS["outcome"][2](probs, labels)
    for row, label, loss in zip(probs, labels, losses):
        assert loss == ref.outcome_loss(row, label), (row, label)
