"""SGD and Adam parameter updates with epoch-decayed learning rates, and the
one epoch loop that every kind of training steps through."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .params import Gradients, ModelParams

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
OPTIMIZER_KINDS = ("adam", "sgd")


@dataclass
class OptState:
    """Optimizer configuration plus mutable accumulators.

    The effective learning rate is lr / (1 + decay * epoch); `epoch` is
    advanced by the training loop at epoch boundaries, `step` by every update.
    Adam's moments `m` and `v` are flat float64 vectors laid out as
    `ModelParams.flat`, created at the first Adam step.
    """

    kind: str = "adam"
    lr: float = 1e-3
    decay: float = 1e-3
    step: int = 0
    epoch: int = 0
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")

    def effective_lr(self) -> float:
        return self.lr / (1.0 + self.decay * self.epoch)


def optimizer_step(params: ModelParams, grads: Gradients, opt: OptState) -> ModelParams:
    """One update of the flat vector; returns new parameters and mutates the optimizer state."""
    params._check_congruent(grads)
    if not grads.all_finite():
        bad = [n for n, a in grads.layers.items() if not np.isfinite(a).all()]
        raise ValueError(f"non-finite gradient entries in layers: {bad}")
    lr = opt.effective_lr()
    opt.step += 1
    g = grads.flat
    if opt.kind == "sgd":
        return params._with_flat(params.flat - lr * g)
    if opt.m is None:
        opt.m = np.zeros_like(params.flat)
        opt.v = np.zeros_like(params.flat)
    t = opt.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    opt.m = ADAM_BETA1 * opt.m + (1.0 - ADAM_BETA1) * g
    opt.v = ADAM_BETA2 * opt.v + (1.0 - ADAM_BETA2) * (g * g)
    m_hat = opt.m / bc1
    v_hat = opt.v / bc2
    return params._with_flat(params.flat - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))


def run_epoch(
    params: ModelParams,
    items: list,
    batch_size: int,
    loss_and_gradient: Callable[[ModelParams, list], tuple[float, Gradients]],
    opt: OptState,
    rng: np.random.Generator,
) -> tuple[ModelParams, float]:
    """One shuffled pass over `items`, one optimizer step per batch.

    `loss_and_gradient(params, batch)` returns the batch's summed loss and the
    gradient to step along. Advances `opt.epoch`; returns (params, mean loss
    per item), the mean 0.0 when there are no items.
    """
    order = rng.permutation(len(items))
    shuffled = [items[i] for i in order]
    total = 0.0
    for start in range(0, len(shuffled), batch_size):
        loss, grads = loss_and_gradient(params, shuffled[start:start + batch_size])
        total += loss
        params = optimizer_step(params, grads, opt)
    opt.epoch += 1
    return params, (total / len(items) if items else 0.0)
