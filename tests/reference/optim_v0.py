"""The optimizer step as it was when it updated one layer at a time.

Kept as a test oracle. `optimizer_step` ran SGD and Adam layer by layer, with
Adam's moments held as `ModelParams`. The package now runs both on each
model's flat vector, with flat moments. Each element takes the same
operations in the same order, so the new step must give the same parameters
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fedstudent.params import Gradients, ModelParams

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
OPTIMIZER_KINDS = ("adam", "sgd")


@dataclass
class OptState:
    """Optimizer configuration plus mutable accumulators.

    The effective learning rate is lr / (1 + decay * epoch); `epoch` is
    advanced by the training loop at epoch boundaries, `step` by every update.
    """

    kind: str = "adam"
    lr: float = 1e-3
    decay: float = 1e-3
    step: int = 0
    epoch: int = 0
    m: ModelParams | None = field(default=None, repr=False)
    v: ModelParams | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")

    def effective_lr(self) -> float:
        return self.lr / (1.0 + self.decay * self.epoch)


def optimizer_step(params: ModelParams, grads: Gradients, opt: OptState) -> ModelParams:
    """One update; returns new parameters and mutates the optimizer state."""
    params._check_congruent(grads)
    if not grads.all_finite():
        bad = [n for n, a in grads.layers.items() if not np.isfinite(a).all()]
        raise ValueError(f"non-finite gradient entries in layers: {bad}")
    lr = opt.effective_lr()
    if opt.kind == "sgd":
        opt.step += 1
        return ModelParams(
            params.hidden_dim, params.input_dim,
            {n: params[n] - lr * grads[n] for n in params.layers},
        )
    if opt.m is None:
        opt.m = params.zeros_like()
        opt.v = params.zeros_like()
    opt.step += 1
    t = opt.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    new_layers = {}
    for name in params.layers:
        g = grads[name]
        opt.m[name] = ADAM_BETA1 * opt.m[name] + (1.0 - ADAM_BETA1) * g
        opt.v[name] = ADAM_BETA2 * opt.v[name] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = opt.m[name] / bc1
        v_hat = opt.v[name] / bc2
        new_layers[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return ModelParams(params.hidden_dim, params.input_dim, new_layers)
