"""GRU encoder with additive attention pooling, linear heads, losses, and exact gradients.

Conventions fixed here so hand-written oracles can reproduce every number:

* GRU gates, stacked in the order update (z), reset (r), candidate (c):
      z_t = sigmoid(W_z x_t + U_z h_{t-1} + b_z)
      r_t = sigmoid(W_r x_t + U_r h_{t-1} + b_r)
      c_t = tanh(W_c x_t + U_c (r_t * h_{t-1}) + b_c)
      h_t = (1 - z_t) * h_{t-1} + z_t * c_t,   h_0 = 0
* Attention over hidden states with a single learned context vector p:
      e_t = p . tanh(W_alpha h_t),  alpha = softmax(e),  pooled = sum_t alpha_t h_t
* Outcome head: probs = softmax(pooled @ W_l + b_l), slot 0 = pass.
* Outcome loss per student (two-term form over the 2-way softmax):
      -(y . log probs + (1 - y) . log(1 - probs)),  y one-hot with pass in slot 0.
* Masked-activity head: softmax(pooled @ W_p + b_p) scored by mean squared error
  against the original activity vector.

Dropout (inverted scaling) is applied to the pooled vector before the outcome
head only, and only when a mask is supplied.

Every pass takes a list of (L, d) sequences of any lengths and runs them as one
batch, recorded in one `BatchTrace`; each sequence's numbers are bit-identical
to a batch holding it alone. A backward pass returns the batch's summed
gradient, added up in input order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import Gradients, ModelParams

PROB_CLAMP = 1e-12
# Rows per `score` chunk. A chunk's GRU arrays are padded to its longest
# sequence, (rows, L, 3k) floats, so this bounds the scorer's memory. Scoring
# 2,000 students of lengths up to 116 on a 2-vCPU Xeon VM, 16 rows peaked at
# 3.8 MB and took 0.21 s, 64 rows 8.3 MB and 0.15 s, one student at a time 0.73 s.
SCORE_CHUNK = 16
# The (weights, bias) layers of each head.
HEAD_LAYERS = {"outcome": ("head.W_l", "head.b_l"), "pretrain": ("pretrain.W_p", "pretrain.b_p")}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows: it is exp(-x) where x >= 0 and exp(x) elsewhere.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x)
    ex = np.exp(shifted)
    return ex / ex.sum()


def _longest_first(lengths: list[int]) -> tuple[list[int], list[int]]:
    """Batch rows ordered by decreasing length, and per step how many are still running.

    With rows in this order the sequences that reach step t are a leading
    block of rows, so a step works on one contiguous slice.
    """
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    active, n = [], len(order)
    for t in range(lengths[order[0]]):
        while lengths[order[n - 1]] <= t:
            n -= 1
        active.append(n)
    return order, active


def _rowwise_matvec(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M @ v for every row v of V.

    One matrix-vector product per row rather than one matrix product, so each
    row is rounded exactly as a lone vector would be. A single row takes the
    cheaper plain call, which makes the same product.
    """
    if len(V) == 1:
        return (M @ V[0])[None]
    return (M @ V[:, :, None])[:, :, 0]


@dataclass
class BatchTrace:
    """Everything a forward pass over a batch computed, sufficient for its exact backward pass.

    The GRU arrays are (B, T, .) with rows ordered longest first, as
    `_run_gru` steps them, and zeros past each sequence's end: input i sits in
    row `rows[i]` for its first `lengths[i]` steps. Every other field is in
    input order.
    """

    head: str                        # a key of HEAD_LAYERS
    sequences: list[np.ndarray]      # the (L, d) inputs
    masks: list[np.ndarray | None]   # dropout mask of each input
    rows: list[int]
    lengths: list[int]
    active: list[int]                # per step, how many leading rows are still running
    ZR: np.ndarray                   # (B, T, 2k) update and reset gates
    C: np.ndarray                    # (B, T, k) candidates
    H: np.ndarray                    # (B, T, k) hidden states
    A: list[np.ndarray]              # per input, (L, k) tanh(H @ W_alpha^T)
    alpha: list[np.ndarray]          # per input, (L,) attention weights
    pooled: np.ndarray               # (B, k)
    head_input: np.ndarray           # (B, k) pooled after dropout
    probs: np.ndarray                # (B, outputs) head probabilities


def _run_gru(params: ModelParams, Xs: list[np.ndarray]
             ) -> tuple[list[int], list[int], np.ndarray, np.ndarray, np.ndarray]:
    """Run a batch of sequences of any lengths through the GRU, all steps together.

    Returns each input's row, the active row count per step, and the padded
    (B, T, .) gates ZR, candidates C and hidden states H, rows longest first.
    Each row goes through exactly the operations it would alone, so a
    sequence's numbers do not depend on the batch it is in.
    """
    k = params.hidden_dim
    W_in = params["gru.input_weights"]
    U = params["gru.recurrent_weights"]
    b = params["gru.biases"]
    if not Xs:
        raise ValueError("a batch needs at least one sequence")
    for X in Xs:
        if X.shape[0] == 0:
            raise ValueError("sequence must be non-empty")
        if X.shape[1] != params.input_dim:
            raise ValueError(f"input width {X.shape[1]} does not match model input_dim {params.input_dim}")
    lengths = [X.shape[0] for X in Xs]
    order, active = _longest_first(lengths)
    B, T = len(Xs), len(active)
    rows = [0] * B
    XW = np.zeros((B, T, 3 * k))
    for row, i in enumerate(order):
        rows[i] = row
        XW[row, : lengths[i]] = Xs[i] @ W_in.T + b   # biases folded in
    U_zr = U[: 2 * k]
    U_c = U[2 * k:]
    ZR = np.zeros((B, T, 2 * k))
    C = np.zeros((B, T, k))
    H = np.zeros((B, T, k))
    h0 = np.zeros((B, k))
    for t, n in enumerate(active):
        h = H[:n, t - 1] if t else h0[:n]
        zr = _sigmoid(XW[:n, t, : 2 * k] + _rowwise_matvec(U_zr, h))
        z = zr[:, :k]
        c = np.tanh(XW[:n, t, 2 * k:] + _rowwise_matvec(U_c, zr[:, k:] * h))
        ZR[:n, t] = zr
        C[:n, t] = c
        H[:n, t] = (1.0 - z) * h + z * c
    return rows, active, ZR, C, H


def gru_forward(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Hidden states (L, k) for a non-empty (L, d) sequence."""
    return _run_gru(params, [X])[-1][0]


def _run_attention(params: ModelParams, H: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """tanh(H W_alpha^T), the attention weights and the pooled vector of one sequence."""
    A = np.tanh(H @ params["attn.W_alpha"].T)
    alpha = _softmax(A @ params["attn.p"])
    return A, alpha, alpha @ H


def attention_pool(params: ModelParams, states) -> tuple[np.ndarray, np.ndarray]:
    """Pooled representation and attention weights over hidden states."""
    H = np.asarray(states, dtype=np.float64)
    if H.shape[0] == 0:
        raise ValueError("states must be non-empty")
    _, alpha, pooled = _run_attention(params, H)
    return pooled, alpha


def make_dropout_mask(rng: np.random.Generator, hidden_dim: int, rate: float) -> np.ndarray | None:
    """Inverted-scaling dropout mask; None when the rate is zero."""
    if rate <= 0.0:
        return None
    keep = 1.0 - rate
    return (rng.random(hidden_dim) >= rate).astype(np.float64) / keep


def _forward(params: ModelParams, sequences: list[np.ndarray], head: str,
             masks: list[np.ndarray | None]) -> BatchTrace:
    """A batch through the GRU, attention pooling and the named head."""
    if len(masks) != len(sequences):
        raise ValueError(f"{len(masks)} dropout masks for {len(sequences)} sequences")
    rows, active, ZR, C, H = _run_gru(params, sequences)
    W, b = (params[name] for name in HEAD_LAYERS[head])
    lengths = [X.shape[0] for X in sequences]
    pooled = np.empty((len(sequences), params.hidden_dim))
    head_input = np.empty_like(pooled)
    probs = np.empty((len(sequences), b.shape[0]))
    As, alphas = [], []
    for i, (row, L, mask) in enumerate(zip(rows, lengths, masks)):
        A, alpha, vector = _run_attention(params, H[row, :L])
        x = vector if mask is None else vector * mask
        As.append(A)
        alphas.append(alpha)
        pooled[i] = vector
        head_input[i] = x
        probs[i] = _softmax(x @ W + b)
    return BatchTrace(head, sequences, masks, rows, lengths, active, ZR, C, H,
                      As, alphas, pooled, head_input, probs)


def forward_outcome(
    params: ModelParams,
    sequences: list[np.ndarray],
    dropout_masks: list[np.ndarray | None] | None = None,
) -> BatchTrace:
    """Forward pass of a batch to outcome probabilities, each sequence with its
    optional dropout mask, keeping what `backward` needs."""
    masks = dropout_masks if dropout_masks is not None else [None] * len(sequences)
    return _forward(params, sequences, "outcome", masks)


def score(params: ModelParams, sequences: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Pass probability (B,) and pooled vector (B, k) of each sequence, without dropout.

    Sequences run in chunks of SCORE_CHUNK of similar length; results come back
    in input order, bit-identical to `forward_outcome` over each one alone.
    """
    p_pass = np.empty(len(sequences))
    pooled = np.empty((len(sequences), params.hidden_dim))
    order = sorted(range(len(sequences)), key=lambda i: sequences[i].shape[0])
    for start in range(0, len(order), SCORE_CHUNK):
        chunk = order[start:start + SCORE_CHUNK]
        trace = forward_outcome(params, [sequences[i] for i in chunk])
        p_pass[chunk] = trace.probs[:, 0]
        pooled[chunk] = trace.pooled
    return p_pass, pooled


def forward_pretrain(params: ModelParams, masked_sequences: list[np.ndarray]) -> BatchTrace:
    """Forward pass of a batch through the masked-activity prediction path (no dropout)."""
    return _forward(params, masked_sequences, "pretrain", [None] * len(masked_sequences))


def _label_onehot(label: int) -> np.ndarray:
    # Slot 0 carries the pass class.
    return np.array([1.0, 0.0]) if label == 1 else np.array([0.0, 1.0])


def outcome_loss(probs: np.ndarray, label: int) -> float:
    """Two-term cross entropy of one probability pair against a binary label."""
    y = _label_onehot(label)
    pc = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(-(y @ np.log(pc) + (1.0 - y) @ np.log(1.0 - pc)))


def pretrain_loss(pre_probs: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error between the predicted and original activity vector."""
    diff = pre_probs - target
    return float(diff @ diff) / diff.shape[0]


def _softmax_backward(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    return probs * (grad_probs - float(grad_probs @ probs))


def _check_trace(trace: BatchTrace, params: ModelParams, head: str, n: int) -> None:
    if (trace.head != head or trace.H.shape[2] != params.hidden_dim
            or trace.sequences[0].shape[1] != params.input_dim or len(trace.rows) != n):
        raise ValueError(f"trace is not a {head} forward pass over {n} sequences "
                         "with the supplied parameters")


def _backward(params: ModelParams, trace: BatchTrace, grad_probs: np.ndarray) -> Gradients:
    """The batch's summed gradient, given the gradient at each sequence's head probabilities.

    Each layer adds up its per-sequence terms in input order, so the sum is
    bit-identical to per-sequence gradients added up in that order.
    """
    k = params.hidden_dim
    W_name, b_name = HEAD_LAYERS[trace.head]
    W_head = params[W_name]
    W_alpha = params["attn.W_alpha"]
    p = params["attn.p"]
    g = params.zeros_like()
    GH = np.zeros_like(trace.H)   # gradient at each hidden state from attention
    for i, (row, L, mask) in enumerate(zip(trace.rows, trace.lengths, trace.masks)):
        g_logits = _softmax_backward(trace.probs[i], grad_probs[i])
        g[W_name] += np.outer(trace.head_input[i], g_logits)
        g[b_name] += g_logits
        g_pooled = W_head @ g_logits
        if mask is not None:
            g_pooled = g_pooled * mask
        # Attention: pooled = alpha @ H with alpha = softmax(A @ p), A = tanh(H W_alpha^T).
        H, A, alpha = trace.H[row, :L], trace.A[i], trace.alpha[i]
        galpha = H @ g_pooled
        ge = alpha * (galpha - float(alpha @ galpha))
        g["attn.p"] += A.T @ ge
        Gpre = (ge[:, None] * (1.0 - A ** 2)) * p[None, :]
        g["attn.W_alpha"] += Gpre.T @ H
        GH[row, :L] = alpha[:, None] * g_pooled[None, :] + Gpre @ W_alpha

    # GRU backpropagation through time, all rows together.
    U = params["gru.recurrent_weights"]
    U_zr = U[: 2 * k]
    U_c = U[2 * k:]
    Z = trace.ZR[:, :, :k]
    R = trace.ZR[:, :, k:]
    C = trace.C
    Hprev = np.zeros_like(trace.H)
    Hprev[:, 1:] = trace.H[:, :-1]
    # Factors that do not depend on the incoming gradient, for every step at once.
    C_minus_H = C - Hprev
    one_minus_Z = 1.0 - Z
    one_minus_R = 1.0 - R
    one_minus_C2 = 1.0 - C * C
    B, T = GH.shape[:2]
    dgates = np.zeros((B, T, 3 * k))
    gh = np.zeros((B, k))
    for t in range(T - 1, -1, -1):
        n = trace.active[t]
        gt = gh[:n] + GH[:n, t]
        z = Z[:n, t]
        r = R[:n, t]
        dc_raw = gt * z * one_minus_C2[:n, t]
        tmp = _rowwise_matvec(U_c.T, dc_raw)
        dgates[:n, t, :k] = gt * C_minus_H[:n, t] * z * one_minus_Z[:n, t]
        dgates[:n, t, k: 2 * k] = tmp * Hprev[:n, t] * r * one_minus_R[:n, t]
        dgates[:n, t, 2 * k:] = dc_raw
        gh[:n] = gt * one_minus_Z[:n, t] + tmp * r + _rowwise_matvec(U_zr.T, dgates[:n, t, : 2 * k])

    for X, row, L in zip(trace.sequences, trace.rows, trace.lengths):
        dg = dgates[row, :L]
        hprev = Hprev[row, :L]
        g["gru.input_weights"] += dg.T @ X
        g["gru.recurrent_weights"][: 2 * k] += dg[:, : 2 * k].T @ hprev
        g["gru.recurrent_weights"][2 * k:] += dg[:, 2 * k:].T @ (R[row, :L] * hprev)
        g["gru.biases"] += dg.sum(axis=0)
    return g


def backward(trace: BatchTrace, labels: list[int], params: ModelParams) -> Gradients:
    """Exact gradient of the batch's summed outcome loss with respect to every layer."""
    _check_trace(trace, params, "outcome", len(labels))
    Y = np.array([_label_onehot(label) for label in labels])
    probs = trace.probs
    pc = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    grad_probs = -Y / pc + (1.0 - Y) / (1.0 - pc)
    grad_probs = np.where(probs == pc, grad_probs, 0.0)  # clamp region is flat
    return _backward(params, trace, grad_probs)


def backward_pretrain(trace: BatchTrace, targets: list[np.ndarray], params: ModelParams) -> Gradients:
    """Exact gradient of the batch's summed masked-activity MSE with respect to every layer."""
    _check_trace(trace, params, "pretrain", len(targets))
    targets = np.array(targets)
    grad_probs = 2.0 * (trace.probs - targets) / targets.shape[1]
    return _backward(params, trace, grad_probs)
