"""One-parameter logistic (Rasch) fitting and per-subgroup confidence weights.

Abilities and difficulties maximize the L2-penalized Bernoulli log-likelihood
by alternating damped Newton updates; the penalized objective is monotone
non-decreasing by construction (each one-dimensional step backtracks until it
improves). Difficulties are anchored to mean zero after fitting.

The likelihood does not change when all abilities and difficulties shift
together. Only the weak prior pins that shift, and the one-dimensional Newton
steps crawl along it, so each iteration ends by shifting both blocks by their
joint mean: the shift that minimizes the penalty (kept unless rounding lowers
the objective).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .activity import quiz_responses
from .splits import SubgroupKey

PRIOR_WEIGHT = 0.01  # quadratic penalty (PRIOR_WEIGHT/2) * sum of squares


class ResponseMatrixError(ValueError):
    """Raised when a response table cannot support a fit."""


@dataclass
class ResponseMatrix:
    """Students-by-items table of binary first-attempt scores with missing entries."""

    student_ids: list[str]
    item_ids: list[int]
    responses: np.ndarray   # (n_students, n_items) of {0.0, 1.0, nan}

    def __post_init__(self):
        self.responses = np.asarray(self.responses, dtype=np.float64)
        if self.responses.shape != (len(self.student_ids), len(self.item_ids)):
            raise ResponseMatrixError("response table shape does not match id lists")

    def observed(self) -> np.ndarray:
        return ~np.isnan(self.responses)

    def validate(self) -> None:
        obs = self.observed()
        if self.responses.size == 0:
            raise ResponseMatrixError("response table is empty")
        empty_students = [self.student_ids[i] for i in np.where(~obs.any(axis=1))[0]]
        if empty_students:
            raise ResponseMatrixError(f"students with no observed responses: {empty_students[:5]}")
        empty_items = [self.item_ids[j] for j in np.where(~obs.any(axis=0))[0]]
        if empty_items:
            raise ResponseMatrixError(f"items with no observed responses: {empty_items[:5]}")


def build_response_matrix(records) -> ResponseMatrix:
    """Assemble a response table from the quiz scores `quiz_responses` reads off each
    record's sequence, read once per record: the students with any response, and
    the quiz items any of them answered."""
    read = [(r.student_id, quiz_responses(r.sequence)) for r in records]
    kept = [(sid, responses) for sid, responses in read if responses]
    if not kept:
        raise ResponseMatrixError("no student has any quiz responses")
    items = sorted({v for _, responses in kept for v in responses})
    col = {v: j for j, v in enumerate(items)}
    table = np.full((len(kept), len(items)), np.nan)
    for i, (_, responses) in enumerate(kept):
        for video, score in responses.items():
            table[i, col[video]] = float(score)
    return ResponseMatrix(
        student_ids=[sid for sid, _ in kept],
        item_ids=items,
        responses=table,
    )


@dataclass
class RaschFit:
    abilities: dict[str, float]
    difficulties: dict[int, float]
    mean_log_likelihood: float
    converged: bool
    objective_history: list[float] = field(default_factory=list)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def _log_likelihood(theta, b, responses, obs) -> float:
    p = np.clip(_sigmoid(theta[:, None] - b[None, :]), 1e-12, 1.0 - 1e-12)
    return float(np.where(obs, np.log(np.where(responses == 1.0, p, 1.0 - p)), 0.0).sum())


def _penalized_ll(theta, b, responses, obs) -> float:
    return float(_log_likelihood(theta, b, responses, obs) - 0.5 * PRIOR_WEIGHT * (theta @ theta + b @ b))


def _newton_block(values, before, grad_fn, objective_fn):
    """Damped Newton step on each coordinate of one parameter block; returns the new
    values and the objective there.

    `before` is the objective at `values`. grad_fn(values) must return
    (gradient, curvature) of the penalized log-likelihood; the block step is
    halved until the objective does not decrease, preserving monotone ascent.
    """
    grad, curv = grad_fn(values)
    step = grad / curv
    scale = 1.0
    for _ in range(30):
        candidate = values + scale * step
        after = objective_fn(candidate)
        if after >= before:
            return candidate, after
        scale *= 0.5
    return values, before


def fit_rasch(matrix: ResponseMatrix, max_iters: int = 100, tol: float = 1e-6) -> RaschFit:
    """Alternating penalized-likelihood fit with mean-zero difficulty anchoring."""
    matrix.validate()
    responses = matrix.responses
    obs = matrix.observed()
    filled = np.where(obs, responses, 0.0)
    n_students, n_items = responses.shape
    theta = np.zeros(n_students)
    b = np.zeros(n_items)
    objective = _penalized_ll(theta, b, filled, obs)
    history = [objective]
    converged = False

    for _ in range(max_iters):
        theta_old, b_old = theta, b  # every update below rebinds, never writes in place

        def theta_grad(values):
            p = _sigmoid(values[:, None] - b[None, :])
            grad = np.where(obs, filled - p, 0.0).sum(axis=1) - PRIOR_WEIGHT * values
            curv = np.where(obs, p * (1.0 - p), 0.0).sum(axis=1) + PRIOR_WEIGHT
            return grad, curv

        theta, objective = _newton_block(theta, objective, theta_grad,
                                         lambda v: _penalized_ll(v, b, filled, obs))

        def b_grad(values):
            p = _sigmoid(theta[:, None] - values[None, :])
            grad = np.where(obs, p - filled, 0.0).sum(axis=0) - PRIOR_WEIGHT * values
            curv = np.where(obs, p * (1.0 - p), 0.0).sum(axis=0) + PRIOR_WEIGHT
            return grad, curv

        b, objective = _newton_block(b, objective, b_grad,
                                     lambda v: _penalized_ll(theta, v, filled, obs))
        center = (theta.sum() + b.sum()) / (n_students + n_items)
        centered = _penalized_ll(theta - center, b - center, filled, obs)
        if centered >= objective:
            theta, b, objective = theta - center, b - center, centered
        history.append(objective)
        change = max(np.abs(theta - theta_old).max(), np.abs(b - b_old).max())
        if change < tol:
            converged = True
            break

    shift = b.mean()
    b = b - shift
    theta = theta - shift
    return RaschFit(
        abilities={sid: float(t) for sid, t in zip(matrix.student_ids, theta)},
        difficulties={item: float(d) for item, d in zip(matrix.item_ids, b)},
        mean_log_likelihood=_log_likelihood(theta, b, filled, obs) / int(obs.sum()),
        converged=converged,
        objective_history=history,
    )


def irt_confidence(fits: dict[SubgroupKey, RaschFit]) -> dict[SubgroupKey, float]:
    """Normalized geometric-mean likelihoods: weights over subgroups summing to 1."""
    if not fits:
        raise ValueError("at least one subgroup fit is required")
    keys = sorted(fits)
    raw = np.array([np.exp(fits[k].mean_log_likelihood) for k in keys])
    weights = raw / raw.sum()
    return {k: float(w) for k, w in zip(keys, weights)}
