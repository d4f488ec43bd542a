"""Self-supervised behavioral pretraining: mask one activity, predict it from the rest.

The pretraining corpus never includes labels; after training, the encoder and
attention layers transfer to a freshly initialized outcome predictor while the
prediction heads start fresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import loss_and_gradient
from .optim import OptState, run_epoch
from .params import Gradients, ModelParams
from .splits import rng_for

TRANSFER_LAYERS = ("gru.input_weights", "gru.recurrent_weights", "gru.biases", "attn.W_alpha", "attn.p")


@dataclass
class CbowInstance:
    """One masked-position task: predict the zeroed activity from its context.

    `source` keeps the record's own dtype (uint8 for generated and ingested
    records); `target` is its row as a new float64 vector, the vector the
    pretraining loss compares float64 probabilities against.
    """

    source: np.ndarray       # (L, d) original encoded sequence, shared, not copied
    target_position: int

    @property
    def target(self) -> np.ndarray:
        return self.source[self.target_position].astype(np.float64)

    def masked_matrix(self) -> np.ndarray:
        masked = self.source.copy()
        masked[self.target_position] = 0.0
        return masked


def make_cbow_instances(X: np.ndarray) -> list[CbowInstance]:
    """One instance per position of an (L, d) sequence; shorter than 2 yields none (no context)."""
    if X.shape[0] < 2:
        return []
    return [CbowInstance(source=X, target_position=t) for t in range(X.shape[0])]


def _loss_and_gradient(model: ModelParams, batch: list[CbowInstance]) -> tuple[float, Gradients]:
    """The batch's summed masked-activity loss, and the gradient of its mean."""
    return loss_and_gradient(model, "pretrain", [instance.masked_matrix() for instance in batch],
                             [instance.target for instance in batch])


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
        model, loss = run_epoch(model, instances, batch_size, _loss_and_gradient, opt, rng)
        losses.append(loss)
    return model, losses


def transfer_weights(pretrained: ModelParams, fresh: ModelParams) -> ModelParams:
    """Copy encoder and attention layers from the pretrained model onto fresh heads."""
    pretrained._check_congruent(fresh)
    out = fresh.copy()
    for name in TRANSFER_LAYERS:
        out[name] = pretrained[name]
    return out
