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
batch; each sequence's numbers are bit-identical to a batch holding it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedstudent.params import Gradients, ModelParams

PROB_CLAMP = 1e-12
# Rows per `score` chunk. A chunk's GRU arrays are padded to its longest
# sequence, (rows, L, 3k) floats, so this bounds the scorer's memory. Scoring
# 2,000 students of lengths up to 116 on a 2-vCPU Xeon VM, 16 rows peaked at
# 3.8 MB and took 0.21 s, 64 rows 8.3 MB and 0.15 s, one student at a time 0.73 s.
SCORE_CHUNK = 16


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
class GruCache:
    """Per-timestep quantities retained for backpropagation through time."""

    X: np.ndarray       # (L, d) inputs
    Z: np.ndarray       # (L, k) update gates
    R: np.ndarray       # (L, k) reset gates
    C: np.ndarray       # (L, k) candidates
    H: np.ndarray       # (L, k) hidden states


@dataclass
class AttnCache:
    A: np.ndarray       # (L, k) tanh(H @ W_alpha^T)
    alpha: np.ndarray   # (L,) attention weights
    pooled: np.ndarray  # (k,)


@dataclass
class ForwardTrace:
    """Everything a forward pass computed, sufficient for an exact backward pass."""

    hidden_dim: int
    input_dim: int
    gru: GruCache
    attn: AttnCache
    dropout_mask: np.ndarray | None = None
    pooled_final: np.ndarray | None = None   # pooled after dropout (outcome path)
    logits: np.ndarray | None = None
    probs: np.ndarray | None = None
    pre_logits: np.ndarray | None = None     # masked-activity head (pretraining path)
    pre_probs: np.ndarray | None = None

    @property
    def pooled(self) -> np.ndarray:
        return self.attn.pooled


def _run_gru(params: ModelParams, Xs: list[np.ndarray]) -> list[GruCache]:
    """GRU caches for a batch of sequences of any lengths, in the given order.

    All sequences advance together one step at a time; each row goes through
    exactly the operations it would alone, so a sequence's numbers do not
    depend on the batch it is in.
    """
    k = params.hidden_dim
    W_in = params["gru.input_weights"]
    U = params["gru.recurrent_weights"]
    b = params["gru.biases"]
    for X in Xs:
        if X.shape[0] == 0:
            raise ValueError("sequence must be non-empty")
        if X.shape[1] != params.input_dim:
            raise ValueError(f"input width {X.shape[1]} does not match model input_dim {params.input_dim}")
    lengths = [X.shape[0] for X in Xs]
    order, active = _longest_first(lengths)
    B, T = len(Xs), len(active)
    XW = np.zeros((B, T, 3 * k))
    for row, i in enumerate(order):
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
    caches: list[GruCache | None] = [None] * B
    for row, i in enumerate(order):
        L = lengths[i]
        caches[i] = GruCache(X=Xs[i], Z=ZR[row, :L, :k], R=ZR[row, :L, k:], C=C[row, :L], H=H[row, :L])
    return caches


def gru_forward(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Hidden states (L, k) for a non-empty (L, d) sequence."""
    return _run_gru(params, [X])[0].H


def _run_attention(params: ModelParams, H: np.ndarray) -> AttnCache:
    A = np.tanh(H @ params["attn.W_alpha"].T)
    e = A @ params["attn.p"]
    alpha = _softmax(e)
    pooled = alpha @ H
    return AttnCache(A=A, alpha=alpha, pooled=pooled)


def attention_pool(params: ModelParams, states) -> tuple[np.ndarray, np.ndarray]:
    """Pooled representation and attention weights over hidden states."""
    H = np.asarray(states, dtype=np.float64)
    if H.shape[0] == 0:
        raise ValueError("states must be non-empty")
    cache = _run_attention(params, H)
    return cache.pooled, cache.alpha


def predict_outcome(params: ModelParams, pooled: np.ndarray) -> np.ndarray:
    """Pass/fail probability pair from a pooled representation."""
    logits = pooled @ params["head.W_l"] + params["head.b_l"]
    return _softmax(logits)


def make_dropout_mask(rng: np.random.Generator, hidden_dim: int, rate: float) -> np.ndarray | None:
    """Inverted-scaling dropout mask; None when the rate is zero."""
    if rate <= 0.0:
        return None
    keep = 1.0 - rate
    return (rng.random(hidden_dim) >= rate).astype(np.float64) / keep


def forward_outcome(
    params: ModelParams,
    sequences: list[np.ndarray],
    dropout_masks: list[np.ndarray | None] | None = None,
) -> list[ForwardTrace]:
    """Forward passes to outcome probabilities, one trace per sequence (with its
    optional dropout mask), caching what `backward` needs."""
    masks = dropout_masks if dropout_masks is not None else [None] * len(sequences)
    traces = []
    for gru, mask in zip(_run_gru(params, sequences), masks):
        attn = _run_attention(params, gru.H)
        pooled = attn.pooled if mask is None else attn.pooled * mask
        logits = pooled @ params["head.W_l"] + params["head.b_l"]
        traces.append(ForwardTrace(
            hidden_dim=params.hidden_dim,
            input_dim=params.input_dim,
            gru=gru,
            attn=attn,
            dropout_mask=mask,
            pooled_final=pooled,
            logits=logits,
            probs=_softmax(logits),
        ))
    return traces


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
        for i, trace in zip(chunk, forward_outcome(params, [sequences[i] for i in chunk])):
            p_pass[i] = trace.probs[0]
            pooled[i] = trace.pooled
    return p_pass, pooled


def forward_pretrain(params: ModelParams, masked_sequences: list[np.ndarray]) -> list[ForwardTrace]:
    """Forward passes of the masked-activity prediction path (no dropout)."""
    traces = []
    for gru in _run_gru(params, masked_sequences):
        attn = _run_attention(params, gru.H)
        pre_logits = attn.pooled @ params["pretrain.W_p"] + params["pretrain.b_p"]
        traces.append(ForwardTrace(
            hidden_dim=params.hidden_dim,
            input_dim=params.input_dim,
            gru=gru,
            attn=attn,
            pre_logits=pre_logits,
            pre_probs=_softmax(pre_logits),
        ))
    return traces


def _label_onehot(label: int) -> np.ndarray:
    # Slot 0 carries the pass class.
    return np.array([1.0, 0.0]) if label == 1 else np.array([0.0, 1.0])


def outcome_loss(probs: np.ndarray, label: int) -> float:
    """Two-term cross entropy of one probability pair against a binary label."""
    y = _label_onehot(label)
    pc = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(-(y @ np.log(pc) + (1.0 - y) @ np.log(1.0 - pc)))


def bce_loss(predictions, labels) -> float:
    """Sum of per-student outcome losses over a cohort."""
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels must have equal length")
    return sum(outcome_loss(np.asarray(p, dtype=np.float64), y) for p, y in zip(predictions, labels))


def pretrain_loss(pre_probs: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error between the predicted and original activity vector."""
    diff = pre_probs - target
    return float(diff @ diff) / diff.shape[0]


def _check_trace(trace: ForwardTrace, params: ModelParams, need: str) -> None:
    if trace.hidden_dim != params.hidden_dim or trace.input_dim != params.input_dim:
        raise ValueError("trace does not match the supplied parameters")
    if need == "outcome" and trace.probs is None:
        raise ValueError("trace was not produced by an outcome forward pass")
    if need == "pretrain" and trace.pre_probs is None:
        raise ValueError("trace was not produced by a masked-activity forward pass")


def _softmax_backward(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    return probs * (grad_probs - float(grad_probs @ probs))


def _backward_shared(
    params: ModelParams,
    traces: list[ForwardTrace],
    grad_pooled: list[np.ndarray],
    grads: list[Gradients],
) -> None:
    """Backpropagate each trace's gradient at its pooled vector through attention
    and the GRU into its own gradients; the batch runs its time steps together."""
    k = params.hidden_dim
    lengths = [trace.gru.H.shape[0] for trace in traces]
    order, active = _longest_first(lengths)
    B, T = len(traces), len(active)
    GH, Hprev, Z, R, C = (np.zeros((B, T, k)) for _ in range(5))
    for row, i in enumerate(order):
        gru, attn, g_pooled, g = traces[i].gru, traces[i].attn, grad_pooled[i], grads[i]
        H = gru.H
        # Attention: pooled = alpha @ H with alpha = softmax(A @ p), A = tanh(H W_alpha^T).
        galpha = H @ g_pooled
        ge = attn.alpha * (galpha - float(attn.alpha @ galpha))
        g["attn.p"] += attn.A.T @ ge
        Gpre = (ge[:, None] * (1.0 - attn.A ** 2)) * params["attn.p"][None, :]
        g["attn.W_alpha"] += Gpre.T @ H
        L = lengths[i]
        GH[row, :L] = attn.alpha[:, None] * g_pooled[None, :] + Gpre @ params["attn.W_alpha"]
        Hprev[row, 1:L] = H[:-1]
        Z[row, :L] = gru.Z
        R[row, :L] = gru.R
        C[row, :L] = gru.C

    # GRU backpropagation through time.
    U = params["gru.recurrent_weights"]
    U_zr = U[: 2 * k]
    U_c = U[2 * k:]
    # Factors that do not depend on the incoming gradient, for every step at once.
    C_minus_H = C - Hprev
    one_minus_Z = 1.0 - Z
    one_minus_R = 1.0 - R
    one_minus_C2 = 1.0 - C * C
    dgates = np.zeros((B, T, 3 * k))
    gh = np.zeros((B, k))
    for t in range(T - 1, -1, -1):
        n = active[t]
        g = gh[:n] + GH[:n, t]
        z = Z[:n, t]
        r = R[:n, t]
        dc_raw = g * z * one_minus_C2[:n, t]
        tmp = _rowwise_matvec(U_c.T, dc_raw)
        dgates[:n, t, :k] = g * C_minus_H[:n, t] * z * one_minus_Z[:n, t]
        dgates[:n, t, k: 2 * k] = tmp * Hprev[:n, t] * r * one_minus_R[:n, t]
        dgates[:n, t, 2 * k:] = dc_raw
        gh[:n] = g * one_minus_Z[:n, t] + tmp * r + _rowwise_matvec(U_zr.T, dgates[:n, t, : 2 * k])

    for row, i in enumerate(order):
        L = lengths[i]
        dg = dgates[row, :L]
        hprev = Hprev[row, :L]
        g = grads[i]
        g["gru.input_weights"] += dg.T @ traces[i].gru.X
        g["gru.recurrent_weights"][: 2 * k] += dg[:, : 2 * k].T @ hprev
        g["gru.recurrent_weights"][2 * k:] += dg[:, 2 * k:].T @ (traces[i].gru.R * hprev)
        g["gru.biases"] += dg.sum(axis=0)


def backward(traces: list[ForwardTrace], labels: list[int], params: ModelParams) -> list[Gradients]:
    """Exact gradients of each student's outcome loss with respect to every layer."""
    grads, grad_pooled = [], []
    for trace, label in zip(traces, labels):
        _check_trace(trace, params, "outcome")
        g = params.zeros_like()
        y = _label_onehot(label)
        probs = trace.probs
        pc = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
        grad_probs = -y / pc + (1.0 - y) / (1.0 - pc)
        grad_probs = np.where(probs == pc, grad_probs, 0.0)  # clamp region is flat
        g_logits = _softmax_backward(probs, grad_probs)
        g["head.W_l"] += np.outer(trace.pooled_final, g_logits)
        g["head.b_l"] += g_logits
        g_pooled = params["head.W_l"] @ g_logits
        if trace.dropout_mask is not None:
            g_pooled = g_pooled * trace.dropout_mask
        grads.append(g)
        grad_pooled.append(g_pooled)
    _backward_shared(params, traces, grad_pooled, grads)
    return grads


def backward_pretrain(traces: list[ForwardTrace], targets: list[np.ndarray],
                      params: ModelParams) -> list[Gradients]:
    """Exact gradients of each masked-activity MSE with respect to every layer."""
    grads, grad_pooled = [], []
    for trace, target in zip(traces, targets):
        _check_trace(trace, params, "pretrain")
        g = params.zeros_like()
        d = target.shape[0]
        grad_probs = 2.0 * (trace.pre_probs - target) / d
        g_logits = _softmax_backward(trace.pre_probs, grad_probs)
        g["pretrain.W_p"] += np.outer(trace.pooled, g_logits)
        g["pretrain.b_p"] += g_logits
        grads.append(g)
        grad_pooled.append(params["pretrain.W_p"] @ g_logits)
    _backward_shared(params, traces, grad_pooled, grads)
    return grads
