"""Self-supervised behavioral pretraining: mask one activity, predict it from the rest.

The pretraining corpus never includes labels; after training, the encoder and
attention layers transfer to a freshly initialized outcome predictor while the
prediction heads start fresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activity import EncodedActivity, sequence_matrix
from .network import backward_pretrain_batch, forward_pretrain_batch, pretrain_loss
from .optim import OptState, optimizer_step
from .params import ModelParams
from .splits import rng_for

TRANSFER_LAYERS = ("gru.input_weights", "gru.recurrent_weights", "gru.biases", "attn.W_alpha", "attn.p")


@dataclass
class CbowInstance:
    """One masked-position task: predict the zeroed activity from its context."""

    source: np.ndarray       # (L, d) original encoded sequence, shared, not copied
    target_position: int

    @property
    def target(self) -> np.ndarray:
        return self.source[self.target_position].copy()

    def masked_matrix(self) -> np.ndarray:
        masked = self.source.copy()
        masked[self.target_position] = 0.0
        return masked


def make_cbow_instances(sequence) -> list[CbowInstance]:
    """One instance per position; sequences shorter than 2 yield none (no context)."""
    if isinstance(sequence, np.ndarray):
        X = sequence
    elif sequence and isinstance(sequence[0], EncodedActivity):
        X = sequence_matrix(sequence)
    else:
        X = np.asarray(sequence, dtype=np.float64)
    if X.shape[0] < 2:
        return []
    return [CbowInstance(source=X, target_position=t) for t in range(X.shape[0])]


def _instance_step(model: ModelParams, batch: list[CbowInstance], opt: OptState) -> tuple[float, ModelParams]:
    traces = forward_pretrain_batch(model, [instance.masked_matrix() for instance in batch])
    targets = [instance.target for instance in batch]
    grads = model.zeros_like()
    total = 0.0
    for trace, target, g in zip(traces, targets, backward_pretrain_batch(traces, targets, model)):
        total += pretrain_loss(trace.pre_probs, target)
        grads = grads + g
    grads = grads * (1.0 / len(batch))
    return total, optimizer_step(model, grads, opt)


def pretrain_epoch(
    model: ModelParams,
    instances: list[CbowInstance],
    opt: OptState,
    batch_size: int = 8,
) -> tuple[float, ModelParams]:
    """One pass over the instances in their given order; returns (mean loss, updated model)."""
    if not instances:
        return 0.0, model
    total = 0.0
    for start in range(0, len(instances), batch_size):
        batch = instances[start:start + batch_size]
        batch_total, model = _instance_step(model, batch, opt)
        total += batch_total
    return total / len(instances), model


def run_pretraining(
    model: ModelParams,
    sequences: list[np.ndarray],
    epochs: int,
    opt: OptState,
    seed: int,
    batch_size: int = 8,
) -> tuple[ModelParams, list[float]]:
    """Shuffle all masked-position instances each epoch and train; returns per-epoch losses."""
    instances: list[CbowInstance] = []
    for X in sequences:
        instances.extend(make_cbow_instances(X))
    losses = []
    for epoch in range(epochs):
        rng = rng_for(seed, "pretrain-shuffle", epoch)
        order = rng.permutation(len(instances))
        shuffled = [instances[i] for i in order]
        loss, model = pretrain_epoch(model, shuffled, opt, batch_size=batch_size)
        losses.append(loss)
        opt.epoch += 1
    return model, losses


def transfer_weights(pretrained: ModelParams, fresh: ModelParams) -> ModelParams:
    """Copy encoder and attention layers from the pretrained model onto fresh heads."""
    pretrained._check_congruent(fresh)
    out = fresh.copy()
    for name in TRANSFER_LAYERS:
        out[name] = pretrained[name].copy()
    return out
