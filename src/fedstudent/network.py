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

Dropout (inverted scaling) multiplies each pooled vector by its row of one
(B, k) mask array before the head; only outcome training supplies the array.

Sequences may hold any numeric dtype; records keep theirs as uint8 one-hot
rows. `_run_gru` casts a batch to float64 once, as it gathers the rows into
the packed layout, so every product, gradient, loss and score has the bits of
a float64 batch.

`loss_and_gradient` takes a list of (L, d) sequences of any lengths and runs
them as one packed batch under the named head: a forward pass recorded in one
`BatchTrace`, every row's loss, and a backward pass over that trace. It returns
the summed loss, added row by row in input order, and the gradient of the mean
loss. A sequence's numbers agree with a batch holding it alone to rounding
(about 1e-15), not bit for bit, because a matrix product adds its terms in an
order that depends on its row count.

A packed batch has one row per (step, sequence) cell and no padding: step t
holds the rows of the sequences still running at t (see `_pack`). Only the two
recurrences loop over steps, each step's products running over its contiguous
rows. Everything else runs once over all N rows: the input projection, the
attention scores and pooling, the backward pass's gate factors and its
weight-gradient products. Per-sequence sums (the attention softmax and the
pooled vectors) go through each row's column index. OpenBLAS runs a large
enough product on several threads, and while the cores are busy, as in a
`--jobs` pool, each such product waits for them: unblocked (T*B)-row
products over a padded batch made a two-worker PerFedAttn and FedAvg run on 2
vCPUs take 19 s against 10-11 s. So every product over the N rows runs in row
blocks of at most ONE_THREAD_MADDS multiply-adds, which OpenBLAS keeps on one
thread. The block bounds depend on the shapes alone, and the results do not
depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .params import Gradients, ModelParams

PROB_CLAMP = 1e-12
# Rows per `score` chunk. A chunk's packed arrays hold one row per (step,
# sequence) cell, so this bounds the scorer's memory. Scoring 2,000 students of
# lengths up to 116 (k = 24) on a 2-vCPU Xeon VM with one BLAS thread (quartiles
# of 21 runs), 16 rows peaked at 2.4 MB (tracemalloc) and took 0.035-0.037 s,
# 64 rows 5.8 MB and 0.025-0.029 s, one student at a time 0.26-0.28 s.
SCORE_CHUNK = 16
# Multiply-adds per BLAS call up to which OpenBLAS runs a product on one thread:
# its default gemm threshold, 65536 x GEMM_MULTITHREAD_THRESHOLD (4). Its gemv
# threshold is higher, and builds with a small-matrix kernel keep products of
# up to 1e6 on one thread.
ONE_THREAD_MADDS = 1 << 18


def _block(row_madds: int) -> int:
    """Rows per block of a product whose rows cost `row_madds` multiply-adds each:
    the most that stay within ONE_THREAD_MADDS. It depends on the shapes alone."""
    return max(1, ONE_THREAD_MADDS // row_madds)


def _rows_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for (N, p) rows `a` and a (p, q) or (p,) `b`, one product per row block."""
    n = _block(a.shape[1] * (b.size // b.shape[0]))
    out = np.empty(a.shape[:1] + b.shape[1:])
    for start in range(0, a.shape[0], n):
        np.matmul(a[start:start + n], b, out=out[start:start + n])
    return out


def _rows_gram(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a.T @ b for (N, p) or (N,) `a` and (N, q) `b`: one product per row block,
    added up block by block in row order, into `out` when one is given."""
    n = _block((a.size // a.shape[0]) * b.shape[1])
    out = np.matmul(a[:n].T, b[:n], out=out)
    for start in range(n, a.shape[0], n):
        out += a[start:start + n].T @ b[start:start + n]
    return out


def _pack(lengths: list[int]) -> tuple[list[int], list[int], list[int], np.ndarray, np.ndarray]:
    """The packed layout of a batch of sequences with these lengths.

    Columns are ordered by decreasing length, so the sequences that reach step t
    are a leading block of n_t columns. Step t occupies rows
    offsets[t]:offsets[t + 1], one per running column in column order, so there
    are sum(lengths) rows in all. Returns the input index of each column, n_t
    per step, the offsets (ending with the row count), and each row's step and
    column.
    """
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    active, n = [], len(order)
    for t in range(lengths[order[0]]):
        while lengths[order[n - 1]] <= t:
            n -= 1
        active.append(n)
    offsets = list(accumulate(active, initial=0))
    step = np.arange(len(active)).repeat(active)
    return order, active, offsets, step, np.arange(offsets[-1]) - np.array(offsets)[step]


@dataclass
class BatchTrace:
    """Everything a forward pass over a batch computed, sufficient for its exact backward pass.

    The GRU and attention arrays hold packed rows (`_pack`), one per (step,
    sequence) cell and none past a sequence's end: columns are ordered longest
    first, input `order[j]` in column j; step t occupies rows
    offsets[t]:offsets[t + 1], its `active[t]` running columns in order; `col`
    gives each row's column. `sequence(i)` reads input i's rows back.
    `pooled`, `head_input` and `probs` are in input order.
    """

    X: np.ndarray                    # (N, d) float64 inputs, cast from the sequences at the gather
    order: list[int]                 # input index of each column
    active: list[int]                # per step, how many leading columns are still running
    offsets: list[int]               # per step its first row, then N
    col: np.ndarray                  # (N,) column of each row
    ZR: np.ndarray                   # (N, 2k) update and reset gates
    C: np.ndarray                    # (N, k) candidates
    H: np.ndarray                    # (N, k) hidden states
    A: np.ndarray                    # (N, k) tanh(H W_alpha^T)
    alpha: np.ndarray                # (N,) attention weights
    pooled: np.ndarray               # (B, k)
    mask: np.ndarray                 # (B, k) dropout mask, ones where none was given
    head_input: np.ndarray           # (B, k) pooled after dropout
    probs: np.ndarray                # (B, outputs) head probabilities

    def rows(self, i: int) -> np.ndarray:
        """The rows of input sequence i, step by step."""
        j = self.order.index(i)
        return np.asarray(self.offsets[: sum(n > j for n in self.active)]) + j

    def sequence(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Input sequence i's hidden states (L, k) and attention weights (L,)."""
        rows = self.rows(i)
        return self.H[rows], self.alpha[rows]


def _run_gru(params: ModelParams, Xs: list[np.ndarray]):
    """Run a batch of sequences of any lengths through the GRU, the running rows of a step together.

    Returns the packed layout (`_pack`), then the packed float64 inputs X (N, d),
    gates ZR (N, 2k), candidates C (N, k) and hidden states H (N, k).
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
    lengths = [X.shape[0] for X in Xs]
    order, active, offsets, step, col = _pack(lengths)
    # Row (t, j) is row t of column j's sequence. The batch's one cast to float64.
    first = np.array(list(accumulate((lengths[i] for i in order[:-1]), initial=0)))
    X = np.concatenate([Xs[i] for i in order], dtype=np.float64).take(first[col] + step, axis=0)
    # Every step's input projection before the recurrence, biases folded in, is
    # where the gate arrays start; each step adds its recurrent product in place.
    # The gates' sigmoid is 0.5 * tanh(0.5 * x) + 0.5; its inner halving is folded
    # into their input projection and recurrent weights, which is exact in binary.
    # ZR and C are two contiguous arrays: as views into one (N, 3k) buffer they
    # give the same bits, but the backward pass then reads strided arrays and a
    # `loss_and_gradient` call at B = 8 takes 11-20% longer.
    b = params["gru.biases"]
    XW = _rows_times(X, W_in.T)
    ZR = XW[:, : 2 * k] + b[: 2 * k]
    ZR *= 0.5
    C = XW[:, 2 * k:] + b[2 * k:]
    del XW
    U_zr_T = 0.5 * U[: 2 * k].T
    U_c_T = U[2 * k:].T
    H = np.empty((len(col), k))
    h = np.zeros((active[0], k))
    for n, lo, hi in zip(active, offsets, offsets[1:]):
        h, zr, c, h_next = h[:n], ZR[lo:hi], C[lo:hi], H[lo:hi]
        zr += h @ U_zr_T
        np.tanh(zr, out=zr)
        zr *= 0.5
        zr += 0.5
        c += (zr[:, k:] * h) @ U_c_T
        np.tanh(c, out=c)
        np.subtract(c, h, out=h_next)
        h_next *= zr[:, :k]
        h_next += h
        h = h_next
    return order, active, offsets, col, X, ZR, C, H


def gru_forward(params: ModelParams, X: np.ndarray) -> np.ndarray:
    """Hidden states (L, k) for a non-empty (L, d) sequence."""
    return _run_gru(params, [X])[-1]


def _attend(params: ModelParams, H: np.ndarray, col: np.ndarray, B: int):
    """tanh(H W_alpha^T), the attention weights and the B pooled vectors of packed hidden states."""
    A = _rows_times(H, params["attn.W_alpha"].T)
    np.tanh(A, out=A)
    e = _rows_times(A, params["attn.p"])
    top = np.full(B, -np.inf)
    np.maximum.at(top, col, e)
    ex = np.exp(e - top[col])
    alpha = ex / np.bincount(col, ex, B)[col]
    weights = np.zeros((len(col), B))   # row r weighs column col[r]'s pooled vector by alpha[r]
    weights.ravel()[np.arange(len(col)) * B + col] = alpha
    return A, alpha, _rows_gram(weights, H)


def attention_pool(params: ModelParams, states) -> tuple[np.ndarray, np.ndarray]:
    """Pooled representation and attention weights over hidden states."""
    H = np.asarray(states, dtype=np.float64)
    if H.shape[0] == 0:
        raise ValueError("states must be non-empty")
    _, alpha, pooled = _attend(params, H, np.zeros(H.shape[0], dtype=np.intp), 1)
    return pooled[0], alpha


def make_dropout_mask(rng: np.random.Generator, shape: int | tuple[int, int], rate: float) -> np.ndarray | None:
    """Inverted-scaling dropout mask, of shape k or (B, k); None when the rate is zero."""
    if rate <= 0.0:
        return None
    keep = 1.0 - rate
    return (rng.random(shape) >= rate).astype(np.float64) / keep


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
             masks: np.ndarray | None = None) -> BatchTrace:
    """A batch through the GRU, attention pooling and the named head, with an
    optional (B, k) dropout mask array, one row per sequence."""
    shape = (len(sequences), params.hidden_dim)
    if masks is not None and not (isinstance(masks, np.ndarray) and masks.shape == shape):
        got = masks.shape if isinstance(masks, np.ndarray) else type(masks).__name__
        raise ValueError(f"dropout masks must be None or one {shape} array, got {got}")
    order, active, offsets, col, X, ZR, C, H = _run_gru(params, sequences)
    A, alpha, by_column = _attend(params, H, col, len(order))
    pooled = np.empty_like(by_column)
    pooled[order] = by_column
    mask = np.ones_like(pooled) if masks is None else masks
    head_input = pooled * mask
    W_name, b_name, _ = HEADS[head]
    logits = head_input @ params[W_name] + params[b_name]
    ex = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = ex / ex.sum(axis=1, keepdims=True)
    return BatchTrace(X, order, active, offsets, col, ZR, C, H, A, alpha, pooled, mask, head_input, probs)


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
        del trace  # so two chunks' packed arrays are never alive together
    return p_pass, pooled


def _backward(params: ModelParams, trace: BatchTrace, head: str, grad_probs: np.ndarray) -> Gradients:
    """The batch's summed gradient, given the gradient at each sequence's (B, outputs) head probabilities.

    Each layer gradient is written straight into its view of the gradient's
    flat vector; the other head's layers are zero.
    """
    k = params.hidden_dim
    W_name, b_name, _ = HEADS[head]
    g = params.zeros_like()

    # Head: probs = softmax(head_input @ W + b), head_input = pooled * mask.
    probs = trace.probs
    g_logits = probs * (grad_probs - (grad_probs * probs).sum(axis=1, keepdims=True))
    np.matmul(trace.head_input.T, g_logits, out=g[W_name])
    g_logits.sum(axis=0, out=g[b_name])
    g_pooled = ((g_logits @ params[W_name].T) * trace.mask)[trace.order]   # by column

    # Attention: pooled = sum_t alpha_t H_t with alpha = softmax(A @ p), A = tanh(H W_alpha^T).
    H, A, alpha, col = trace.H, trace.A, trace.alpha, trace.col
    G_row = g_pooled[col]   # each row's sequence's gradient at its pooled vector
    galpha = np.einsum("rk,rk->r", H, G_row)
    ge = alpha * (galpha - np.bincount(col, alpha * galpha, len(trace.order))[col])
    _rows_gram(ge, A, out=g["attn.p"])
    Gpre = (ge[:, None] * (1.0 - A * A)) * params["attn.p"]
    _rows_gram(Gpre, H, out=g["attn.W_alpha"])
    # Gradient at each hidden state.
    GH = alpha[:, None] * G_row
    GH += _rows_times(Gpre, params["attn.W_alpha"])

    # GRU backpropagation through time: only the recurrence stays in the loop.
    U = params["gru.recurrent_weights"]
    U_zr = U[: 2 * k]
    U_c = U[2 * k:]
    active, offsets = trace.active, trace.offsets
    # Each row's previous hidden state: the same column's row one step back, h_0 = 0.
    running = np.array(active)
    Hprev = np.zeros_like(H)
    Hprev[active[0]:] = H[np.arange(active[0], len(H)) - running[:-1].repeat(running[1:])]
    Z = trace.ZR[:, :k]
    R = trace.ZR[:, k:]
    C = trace.C
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

    _rows_gram(dgates, trace.X, out=g["gru.input_weights"])
    _rows_gram(dgates[:, : 2 * k], Hprev, out=g["gru.recurrent_weights"][: 2 * k])
    _rows_gram(dgates[:, 2 * k:], R * Hprev, out=g["gru.recurrent_weights"][2 * k:])
    dgates.sum(axis=0, out=g["gru.biases"])
    return g


def loss_and_gradient(params: ModelParams, head: str, sequences: list[np.ndarray], targets: list,
                      masks: np.ndarray | None = None) -> tuple[float, Gradients]:
    """A batch's summed loss under the named head, and the gradient of its mean loss.

    `targets` holds each sequence's label (outcome head) or original activity
    vector (pretrain head); `masks` is None or one (B, k) dropout mask array,
    row i for sequence i. The losses are added left to right in input order.
    """
    if len(targets) != len(sequences):
        raise ValueError(f"{len(targets)} targets for {len(sequences)} sequences")
    trace = _forward(params, sequences, head, masks)
    losses, grad_probs = HEADS[head][2](trace.probs, targets)
    total = 0.0
    for loss in losses:   # one row at a time, as np.sum's pairwise adds would not
        total += float(loss)
    gradient = _backward(params, trace, head, grad_probs)
    gradient.flat *= 1.0 / len(sequences)
    return total, gradient
