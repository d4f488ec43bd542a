"""GRU encoder with additive attention pooling, linear heads, losses, and exact gradients.

Conventions fixed here so hand-written oracles can reproduce every number:

* GRU gates, stacked in the order update (z), reset (r), candidate (c):
      z_t = sigmoid(W_z x_t + U_z h_{t-1} + b_z)
      r_t = sigmoid(W_r x_t + U_r h_{t-1} + b_r)
      c_t = tanh(W_c x_t + U_c (r_t * h_{t-1}) + b_c)
      h_t = (1 - z_t) * h_{t-1} + z_t * c_t,   h_0 = 0
  with sigmoid(x) evaluated as 0.5 * tanh(0.5 * x) + 0.5, which never overflows.
* Attention over hidden states with a single learned context vector p:
      e_t = p . tanh(W_alpha h_t),  alpha = softmax(e),  pooled = sum_t alpha_t h_t
* Outcome head: probs = softmax(pooled @ W_l + b_l), slot 0 = pass.
* Outcome loss per student (two-term form over the 2-way softmax):
      -(log probs[slot] + log(1 - probs[other])),  slot 0 for a pass, 1 otherwise.
* Masked-activity head: softmax(pooled @ W_p + b_p) scored by mean squared error
  against the original activity vector.

Dropout (inverted scaling) is applied to the pooled vector before the head,
only when a mask is supplied; only outcome training supplies masks.

`loss_and_gradient` takes a list of (L, d) sequences of any lengths and runs
them as one padded, time-major batch under the named head: a forward pass
recorded in one `BatchTrace`, every row's loss, and a backward pass over that
trace. It returns the summed loss, added row by row in input order, and the
gradient of the mean loss. A sequence's numbers agree with a batch holding it
alone to rounding (about 1e-15), not bit for bit, because a matrix product adds
its terms in an order that depends on its row count.

Products over the whole (T, B, .) batch are stacked matmuls, which numpy runs
as one (B, .) BLAS product per step. One (T*B)-row product is a little faster
on a single BLAS thread, but it is large enough for OpenBLAS to start threads,
and while the cores are busy, as in a `--jobs` pool, each product then waits
for them: a two-worker PerFedAttn and FedAvg run on 2 vCPUs took 19 s that way
against 10-11 s stacked. Per-step products of training-sized batches stay on
one thread. Either way the results do not depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import Gradients, ModelParams

PROB_CLAMP = 1e-12
# Rows per `score` chunk. A chunk's GRU arrays are padded to its longest
# sequence, (L, rows, 3k) floats, so this bounds the scorer's memory. Scoring
# 2,000 students of lengths up to 116 (k = 24) on a 2-vCPU Xeon VM with one BLAS
# thread, 16 rows peaked at 4.5 MB and took 0.08 s, 64 rows 9.8 MB and 0.05 s,
# one student at a time 0.42-0.47 s.
SCORE_CHUNK = 16


def _longest_first(lengths: list[int]) -> tuple[list[int], list[int]]:
    """Batch columns ordered by decreasing length, and per step how many are still running.

    With columns in this order the sequences that reach step t are a leading
    block of columns, so a step works on one contiguous slice.
    """
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    active, n = [], len(order)
    for t in range(lengths[order[0]]):
        while lengths[order[n - 1]] <= t:
            n -= 1
        active.append(n)
    return order, active


@dataclass
class BatchTrace:
    """Everything a forward pass over a batch computed, sufficient for its exact backward pass.

    The GRU and attention arrays are time-major, (T, B, .), padded with zeros
    past each sequence's end, with columns ordered longest first: input
    `order[j]` sits in column j. `pooled`, `head_input` and `probs` are in
    input order.
    """

    X: np.ndarray                    # (T, B, d) padded inputs
    order: list[int]                 # input index of each column
    active: list[int]                # per step, how many leading columns are still running
    ZR: np.ndarray                   # (T, B, 2k) update and reset gates
    C: np.ndarray                    # (T, B, k) candidates
    H: np.ndarray                    # (T + 1, B, k) hidden states, H[0] = h_0 = 0
    A: np.ndarray                    # (T, B, k) tanh(H W_alpha^T)
    alpha: np.ndarray                # (T, B) attention weights, 0 past each end
    pooled: np.ndarray               # (B, k)
    mask: np.ndarray                 # (B, k) dropout mask, ones where none was given
    head_input: np.ndarray           # (B, k) pooled after dropout
    probs: np.ndarray                # (B, outputs) head probabilities


def _run_gru(params: ModelParams, Xs: list[np.ndarray]):
    """Run a batch of sequences of any lengths through the GRU, all columns of a step together.

    Returns the column order, the active column count per step, the padded
    inputs X (T, B, d), gates ZR (T, B, 2k), candidates C (T, B, k) and hidden
    states H (T + 1, B, k) with H[0] = 0.
    """
    k = params.hidden_dim
    W_in = params["gru.input_weights"]
    U = params["gru.recurrent_weights"]
    if not Xs:
        raise ValueError("a batch needs at least one sequence")
    for X in Xs:
        if X.shape[0] == 0:
            raise ValueError("sequence must be non-empty")
        if X.shape[1] != params.input_dim:
            raise ValueError(f"input width {X.shape[1]} does not match model input_dim {params.input_dim}")
    order, active = _longest_first([X.shape[0] for X in Xs])
    B, T = len(Xs), len(active)
    X = np.zeros((T, B, params.input_dim))
    for j, i in enumerate(order):
        X[: Xs[i].shape[0], j] = Xs[i]
    # Every step's input projection before the recurrence, biases folded in. The
    # gates' sigmoid is 0.5 * tanh(0.5 * x) + 0.5; its inner halving is folded into
    # their input projection and recurrent weights, which is exact in binary.
    XW = X @ W_in.T
    XW += params["gru.biases"]
    XW[:, :, : 2 * k] *= 0.5
    U_zr_T = 0.5 * U[: 2 * k].T
    U_c_T = U[2 * k:].T
    ZR = np.zeros((T, B, 2 * k))
    C = np.zeros((T, B, k))
    H = np.zeros((T + 1, B, k))
    for t, n in enumerate(active):
        h, zr, c, h_next = H[t, :n], ZR[t, :n], C[t, :n], H[t + 1, :n]
        np.matmul(h, U_zr_T, out=zr)
        zr += XW[t, :n, : 2 * k]
        np.tanh(zr, out=zr)
        zr *= 0.5
        zr += 0.5
        np.matmul(zr[:, k:] * h, U_c_T, out=c)
        c += XW[t, :n, 2 * k:]
        np.tanh(c, out=c)
        np.subtract(c, h, out=h_next)
        h_next *= zr[:, :k]
        h_next += h
    return order, active, X, ZR, C, H


def gru_forward(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Hidden states (L, k) for a non-empty (L, d) sequence."""
    return _run_gru(params, [X])[-1][1:, 0]


def _attend(params: ModelParams, H: np.ndarray, active: list[int]):
    """tanh(H W_alpha^T), the attention weights and the pooled vectors of (T, B, k) hidden states.

    Column j holds a sequence for the steps t with j < active[t]; the other
    steps get weight 0.
    """
    B = H.shape[1]
    A = H @ params["attn.W_alpha"].T
    np.tanh(A, out=A)
    e = A @ params["attn.p"]
    e[np.arange(B) >= np.array(active)[:, None]] = -np.inf
    ex = np.exp(e - e.max(axis=0))
    alpha = ex / ex.sum(axis=0)
    return A, alpha, np.einsum("tb,tbk->bk", alpha, H)


def attention_pool(params: ModelParams, states) -> tuple[np.ndarray, np.ndarray]:
    """Pooled representation and attention weights over hidden states."""
    H = np.asarray(states, dtype=np.float64)
    if H.shape[0] == 0:
        raise ValueError("states must be non-empty")
    _, alpha, pooled = _attend(params, H[:, None], [1] * H.shape[0])
    return pooled[0], alpha[:, 0]


def make_dropout_mask(rng: np.random.Generator, hidden_dim: int, rate: float) -> np.ndarray | None:
    """Inverted-scaling dropout mask; None when the rate is zero."""
    if rate <= 0.0:
        return None
    keep = 1.0 - rate
    return (rng.random(hidden_dim) >= rate).astype(np.float64) / keep


def _outcome_losses(probs: np.ndarray, labels: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each row's two-term cross entropy against its binary label, and the gradient at `probs`."""
    rows = np.arange(len(labels))
    slot = np.where(np.asarray(labels) == 1, 0, 1)   # slot 0 carries the pass class
    pc = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    losses = -(np.log(pc[rows, slot]) + np.log(1.0 - pc[rows, 1 - slot]))
    Y = np.zeros_like(probs)
    Y[rows, slot] = 1.0
    grad_probs = -Y / pc + (1.0 - Y) / (1.0 - pc)
    return losses, np.where(probs == pc, grad_probs, 0.0)  # clamp region is flat


def _pretrain_losses(probs: np.ndarray, targets: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Each row's mean squared error against its original activity vector, and the gradient at `probs`."""
    D = probs - np.array(targets)
    d = D.shape[1]
    # One dot product per row, rounded as `diff @ diff` rounds it; (D * D).sum(1)
    # and einsum add in another order and change the last bit of many rows.
    return (D[:, None, :] @ D[:, :, None])[:, 0, 0] / d, 2.0 * D / d


# Per head: its (weights, bias) layers, and the function that maps the
# (B, outputs) probabilities and the targets to every row's loss and the
# gradient at those probabilities.
HEADS = {
    "outcome": ("head.W_l", "head.b_l", _outcome_losses),
    "pretrain": ("pretrain.W_p", "pretrain.b_p", _pretrain_losses),
}


def _forward(params: ModelParams, sequences: list[np.ndarray], head: str,
             masks: list[np.ndarray | None] | None = None) -> BatchTrace:
    """A batch through the GRU, attention pooling and the named head, each
    sequence with its optional dropout mask."""
    if masks is None:
        masks = [None] * len(sequences)
    if len(masks) != len(sequences):
        raise ValueError(f"{len(masks)} dropout masks for {len(sequences)} sequences")
    order, active, X, ZR, C, H = _run_gru(params, sequences)
    A, alpha, by_column = _attend(params, H[1:], active)
    pooled = np.empty_like(by_column)
    pooled[order] = by_column
    mask = np.ones_like(pooled)
    for i, m in enumerate(masks):
        if m is not None:
            mask[i] = m
    head_input = pooled * mask
    W_name, b_name, _ = HEADS[head]
    logits = head_input @ params[W_name] + params[b_name]
    ex = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = ex / ex.sum(axis=1, keepdims=True)
    return BatchTrace(X, order, active, ZR, C, H, A, alpha, pooled, mask, head_input, probs)


def score(params: ModelParams, sequences: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Pass probability (B,) and pooled vector (B, k) of each sequence, without dropout.

    Sequences run in chunks of SCORE_CHUNK of similar length; results come back
    in input order, bit-identical to `_forward` over each chunk.
    """
    p_pass = np.empty(len(sequences))
    pooled = np.empty((len(sequences), params.hidden_dim))
    order = sorted(range(len(sequences)), key=lambda i: sequences[i].shape[0])
    for start in range(0, len(order), SCORE_CHUNK):
        chunk = order[start:start + SCORE_CHUNK]
        trace = _forward(params, [sequences[i] for i in chunk], "outcome")
        p_pass[chunk] = trace.probs[:, 0]
        pooled[chunk] = trace.pooled
    return p_pass, pooled


def _backward(params: ModelParams, trace: BatchTrace, head: str, grad_probs: np.ndarray) -> Gradients:
    """The batch's summed gradient, given the gradient at each sequence's (B, outputs) head probabilities."""
    k = params.hidden_dim
    W_name, b_name, _ = HEADS[head]
    W_alpha = params["attn.W_alpha"]
    g = params.zeros_like()

    # Head: probs = softmax(head_input @ W + b), head_input = pooled * mask.
    probs = trace.probs
    g_logits = probs * (grad_probs - (grad_probs * probs).sum(axis=1, keepdims=True))
    g[W_name] = trace.head_input.T @ g_logits
    g[b_name] = g_logits.sum(axis=0)
    g_pooled = ((g_logits @ params[W_name].T) * trace.mask)[trace.order]   # by column

    # Attention: pooled = sum_t alpha_t H_t with alpha = softmax(A @ p), A = tanh(H W_alpha^T).
    H, A, alpha = trace.H[1:], trace.A, trace.alpha
    T, B = alpha.shape
    galpha = np.einsum("tbk,bk->tb", H, g_pooled)
    ge = alpha * (galpha - (alpha * galpha).sum(axis=0))
    g["attn.p"] = np.einsum("tbk,tb->k", A, ge)
    Gpre = (ge[:, :, None] * (1.0 - A * A)) * params["attn.p"]
    g["attn.W_alpha"] = (Gpre.transpose(0, 2, 1) @ H).sum(axis=0)
    # Gradient at each hidden state.
    GH = alpha[:, :, None] * g_pooled + Gpre @ W_alpha

    # GRU backpropagation through time: only the recurrence stays in the loop.
    U = params["gru.recurrent_weights"]
    U_zr = U[: 2 * k]
    U_c = U[2 * k:]
    Z = trace.ZR[:, :, :k]
    R = trace.ZR[:, :, k:]
    C = trace.C
    Hprev = trace.H[:-1]
    one_minus_Z = 1.0 - Z
    dz_factor = (C - Hprev) * Z * one_minus_Z
    dc_factor = Z * (1.0 - C * C)
    dr_factor = Hprev * R * (1.0 - R)
    dgates = np.zeros((T, B, 3 * k))   # stays zero past each sequence's end
    gh = np.zeros((B, k))
    for t in range(T - 1, -1, -1):
        n = trace.active[t]
        gt = gh[:n] + GH[t, :n]
        dc = gt * dc_factor[t, :n]
        tmp = dc @ U_c
        dgates[t, :n, :k] = gt * dz_factor[t, :n]
        dgates[t, :n, k: 2 * k] = tmp * dr_factor[t, :n]
        dgates[t, :n, 2 * k:] = dc
        gh[:n] = gt * one_minus_Z[t, :n] + tmp * R[t, :n] + dgates[t, :n, : 2 * k] @ U_zr

    dgT = dgates.transpose(0, 2, 1)
    g["gru.input_weights"] = (dgT @ trace.X).sum(axis=0)
    g["gru.recurrent_weights"][: 2 * k] = (dgT[:, : 2 * k] @ Hprev).sum(axis=0)
    g["gru.recurrent_weights"][2 * k:] = (dgT[:, 2 * k:] @ (R * Hprev)).sum(axis=0)
    g["gru.biases"] = dgates.sum(axis=(0, 1))
    return g


def loss_and_gradient(params: ModelParams, head: str, sequences: list[np.ndarray], targets: list,
                      masks: list[np.ndarray | None] | None = None) -> tuple[float, Gradients]:
    """A batch's summed loss under the named head, and the gradient of its mean loss.

    `targets` holds each sequence's label (outcome head) or original activity
    vector (pretrain head); `masks` its dropout mask or None. The losses are
    added left to right in input order.
    """
    if len(targets) != len(sequences):
        raise ValueError(f"{len(targets)} targets for {len(sequences)} sequences")
    trace = _forward(params, sequences, head, masks)
    losses, grad_probs = HEADS[head][2](trace.probs, targets)
    total = 0.0
    for loss in losses:   # one row at a time, as np.sum's pairwise adds would not
        total += float(loss)
    return total, _backward(params, trace, head, grad_probs) * (1.0 / len(sequences))
