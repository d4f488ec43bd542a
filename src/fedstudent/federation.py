"""Round-based training strategies over demographic subgroups acting as clients.

Seven strategies share one round driver and differ only in their row of
`RULES`: how a client trains locally, how the global model is aggregated, and
how an evaluation model is adapted from it.

* Local        - each subgroup trains its own model, no aggregation
* Central      - one model over the union of subgroup training sets
* FedAvg       - local epochs, student-count-weighted model averaging
* FedAtt       - local epochs, per-layer attention-weighted aggregation
* FedIRT       - cosine-interpolated local starts, fit-confidence aggregation
* PerFedAvgAgg - meta-gradient local steps, averaged aggregation
* PerFedAttn   - meta-gradient local steps, attention aggregation

Every random choice derives from (run seed, a digest of the client's training
ids, round, epoch), so results do not depend on client execution order, and a
client holding the same data as a centralized run sees the same batch order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .irt import build_response_matrix, fit_rasch, irt_confidence
from .metrics import UndefinedAUCError, auc
from .network import loss_and_gradient, make_dropout_mask, score
from .optim import OptState, run_epoch
from .params import Gradients, ModelParams, params_axpy, params_cosine
from .pretrain import transfer_weights
from .splits import DatasetSplit, SubgroupKey, ids_digest, rng_for
from .tracking import NullMonitor


META_MODES = ("first_order", "hessian_fd")
AGG_MODES = ("per_layer", "scalar_sum")


class FederationError(RuntimeError):
    """Raised when a run fails; names its task, and its round and subgroup where it has them."""


@dataclass
class MetaConfig:
    """Inner/outer step sizes and Hessian handling for meta-gradient updates.

    outer_lr None steps at the training lr. meta_batch is the number of
    students drawn per meta iteration; None uses the training batch size.
    """

    inner_lr: float = 0.01
    outer_lr: float | None = None
    mode: str = "first_order"
    hessian_step: float = 1e-4
    meta_batch: int | None = None  # None: use the training batch size

    def make_opt(self, lr: float) -> OptState:
        """The outer step: plain SGD at outer_lr, or at the training `lr` without one,
        never decayed."""
        return OptState(kind="sgd", lr=lr if self.outer_lr is None else self.outer_lr, decay=0.0)


@dataclass
class AttnAggConfig:
    step: float = 1.0
    mode: str = "per_layer"  # one of AGG_MODES


@dataclass
class TrainSettings:
    """Model size and the plain-descent training hyperparameters."""

    hidden_dim: int = 48
    dropout: float = 0.5
    batch_size: int = 8
    opt_kind: str = "adam"
    lr: float = 1e-3
    decay: float = 1e-3

    def make_opt(self) -> OptState:
        return OptState(kind=self.opt_kind, lr=self.lr, decay=self.decay)


@dataclass
class ExperimentPlan:
    """Everything a cross-validated experiment needs besides the records. Its defaults
    are the defaults of a JSON config, and `config.check_plan` holds it to the bounds
    of the `config.KEYS` rows that set it."""

    variable: str = "G"
    include_unspecified: bool = False
    strategies: tuple = ("PerFedAttn",)
    rounds: int = 10
    local_iters: int = 5
    settings: TrainSettings = field(default_factory=TrainSettings)
    meta: MetaConfig = field(default_factory=MetaConfig)
    attn: AttnAggConfig = field(default_factory=AttnAggConfig)
    pretrain_enabled: bool = False
    pretrain_epochs: int = 10
    folds: int = 5
    seeds: tuple = (0, 1, 2, 3, 4)
    fold_seed: int = 1234


@dataclass(frozen=True)
class Rules:
    local_update: str  # "plain" epochs, "irt" (interpolated start, then plain epochs) or "meta" epochs
    aggregate: str     # "none", "pooled" (one client holding the union), "count", "attention" or "irt"
    adapt: str         # evaluation-time adaptation: "none", "plain" or "meta"


RULES = {
    "Local": Rules("plain", "none", "none"),
    "Central": Rules("plain", "pooled", "none"),
    "FedAvg": Rules("plain", "count", "none"),
    "FedAtt": Rules("plain", "attention", "none"),
    "FedIRT": Rules("irt", "irt", "plain"),
    "PerFedAvgAgg": Rules("meta", "count", "meta"),
    "PerFedAttn": Rules("meta", "attention", "meta"),
}
STRATEGIES = tuple(RULES)


@dataclass
class ClientState:
    """One subgroup (or, for Central, the union of them) acting as a federated client."""

    key: SubgroupKey
    train_ids: list[str]
    val_ids: list[str]
    records: dict                            # student id -> record, shared by every client of a run
    settings: TrainSettings
    seed: int
    prev_model: ModelParams | None = None   # previous round's local endpoint
    opt: OptState = field(init=False)        # persists across the client's rounds
    digest: str = field(init=False)

    def __post_init__(self):
        if not self.train_ids:
            raise FederationError(f"subgroup {self.key} has an empty training split")
        self.train_ids = sorted(self.train_ids)
        self.digest = ids_digest(self.train_ids)
        self.opt = self.settings.make_opt()

    @property
    def count(self) -> int:
        return len(self.train_ids)


class BatchObjective:
    """BCE objective over a fixed batch with frozen dropout masks.

    Freezing the masks makes the objective a deterministic function of the
    parameters, which meta-gradient and finite-difference evaluations require.
    """

    def __init__(self, client: ClientState, student_ids: list[str], rng: np.random.Generator | None):
        dropout = client.settings.dropout
        k = client.settings.hidden_dim
        self.matrices = [client.records[sid].sequence for sid in student_ids]
        self.labels = [client.records[sid].label for sid in student_ids]
        self.masks = make_dropout_mask(rng, (len(student_ids), k), dropout) if rng is not None else None

    def loss_and_gradient(self, params: ModelParams) -> tuple[float, Gradients]:
        """The batch's summed loss, and the gradient of its mean loss."""
        return loss_and_gradient(params, "outcome", self.matrices, self.labels, self.masks)


def meta_gradient(params: ModelParams, objective, cfg: MetaConfig) -> tuple[float, Gradients]:
    """The objective's loss at `params`, and the gradient of its after-one-inner-step loss.

    first_order drops the curvature term; hessian_fd restores it through a
    central-difference Hessian-vector product:
        g = v - inner_lr * (grad(theta + dv) - grad(theta - dv)) / (2d),
        v = grad(theta - inner_lr * grad(theta)).
    """
    loss, g0 = objective.loss_and_gradient(params)
    inner = params_axpy(-cfg.inner_lr, g0, params)
    v = objective.loss_and_gradient(inner)[1]
    if cfg.mode == "first_order":
        result = v
    elif cfg.mode == "hessian_fd":
        delta = cfg.hessian_step
        g_plus = objective.loss_and_gradient(params_axpy(delta, v, params))[1]
        g_minus = objective.loss_and_gradient(params_axpy(-delta, v, params))[1]
        hvp = (g_plus - g_minus) * (1.0 / (2.0 * delta))
        result = params_axpy(-cfg.inner_lr, hvp, v)
    else:
        raise ValueError(f"MetaConfig.mode must be one of {META_MODES}, got {cfg.mode!r}")
    if not result.all_finite():
        raise FederationError("meta-gradient produced non-finite values")
    return loss, result


def train_epoch(
    params: ModelParams,
    client: ClientState,
    opt: OptState,
    rng: np.random.Generator,
    meta_cfg: MetaConfig | None = None,
) -> tuple[ModelParams, float]:
    """One shuffled epoch over the client's training split; returns (params, mean student loss).

    Without `meta_cfg` each batch takes a plain descent step on its dropout
    loss. With it, each batch of meta_batch students steps along its
    meta-gradient; the meta loss is a deterministic function of the
    parameters, so meta objectives carry no dropout.
    """
    if meta_cfg is None:
        def batch_gradient(p: ModelParams, batch: list[str]) -> tuple[float, Gradients]:
            return BatchObjective(client, batch, rng).loss_and_gradient(p)
        batch_size = client.settings.batch_size
    else:
        def batch_gradient(p: ModelParams, batch: list[str]) -> tuple[float, Gradients]:
            return meta_gradient(p, BatchObjective(client, batch, None), meta_cfg)
        batch_size = meta_cfg.meta_batch or client.settings.batch_size
    return run_epoch(params, client.train_ids, batch_size, batch_gradient, opt, rng)


def local_update(
    rule: str,
    start: ModelParams,
    client: ClientState,
    epochs: range,
    round_idx: int,
    meta_cfg: MetaConfig,
) -> tuple[ModelParams, float]:
    """The client's local training from `start`; returns (params, last epoch's mean loss).

    Each rule runs the given epochs of `train_epoch`. plain and irt step the
    client's persistent optimizer with one RNG stream per epoch; irt first
    starts from lambda * previous local + (1 - lambda) * start, lambda the
    cosine of the two (no previous local on the first round). meta takes
    outer SGD steps with one RNG stream for the round.
    """
    params = start
    if rule == "irt" and client.prev_model is not None:
        lam = params_cosine(client.prev_model, start)
        params = params_axpy(lam, client.prev_model, (1.0 - lam) * start)
    if rule == "meta":
        opt = meta_cfg.make_opt(client.settings.lr)
        rng = rng_for(client.seed, "meta", client.digest, round_idx)
    for e in epochs:
        if rule == "meta":
            params, loss = train_epoch(params, client, opt, rng, meta_cfg)
        else:
            rng = rng_for(client.seed, "epoch", client.digest, round_idx, e)
            params, loss = train_epoch(params, client, client.opt, rng)
    client.prev_model = params
    return params, loss


def _content_digest(params: ModelParams, extra: bytes = b"") -> bytes:
    h = hashlib.sha256()
    h.update(params.flat.tobytes())
    h.update(extra)
    return h.digest()


def fedavg_aggregate(locals_: list[tuple[ModelParams, float]]) -> ModelParams:
    """Student-count-weighted mean of local models; exact identity for one client."""
    if not locals_:
        raise ValueError("cannot aggregate zero local models")
    total = float(sum(count for _, count in locals_))
    if total <= 0:
        raise ValueError("total client weight must be positive")
    if len(locals_) == 1:
        return locals_[0][0].copy()
    # Canonical summation order keeps the result independent of list order.
    ordered = sorted(locals_, key=lambda item: _content_digest(item[0], repr(item[1]).encode()))
    acc = ordered[0][0].zeros_like()
    for params, count in ordered:
        acc = params_axpy(count / total, params, acc)
    return acc


def fedatt_aggregate(
    global_params: ModelParams,
    locals_: list[ModelParams],
    cfg: AttnAggConfig,
) -> ModelParams:
    """Pull the global model toward locals, weighted by per-layer parameter distance."""
    if not locals_:
        raise ValueError("cannot aggregate zero local models")
    ordered = sorted(locals_, key=_content_digest)
    names = global_params.names()
    distances = np.array([
        [float(np.linalg.norm(global_params[name] - loc[name])) for loc in ordered]
        for name in names
    ])  # (n_layers, n_clients)
    shifted = distances - distances.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    per_layer_alpha = expd / expd.sum(axis=1, keepdims=True)
    if cfg.mode == "scalar_sum":
        summed = per_layer_alpha.sum(axis=0)
        weights = summed / summed.sum()
        per_layer_alpha = np.tile(weights, (len(names), 1))
    elif cfg.mode != "per_layer":
        raise ValueError(f"AttnAggConfig.mode must be one of {AGG_MODES}, got {cfg.mode!r}")
    new_layers = {}
    for i, name in enumerate(names):
        delta = np.zeros_like(global_params[name])
        for j, loc in enumerate(ordered):
            delta += per_layer_alpha[i, j] * (global_params[name] - loc[name])
        new_layers[name] = global_params[name] - cfg.step * delta
    return ModelParams(global_params.hidden_dim, global_params.input_dim, new_layers)


def irt_aggregate(
    locals_: dict[SubgroupKey, ModelParams],
    confidence: dict[SubgroupKey, float],
) -> ModelParams:
    """Confidence-weighted sum of local models, summed in subgroup order."""
    missing = [str(key) for key in locals_ if key not in confidence]
    if missing:
        raise ValueError(f"confidence weights missing for subgroups: {missing}")
    weight_sum = sum(confidence[key] for key in locals_)
    if abs(weight_sum - 1.0) > 1e-9:
        raise ValueError(f"confidence weights must sum to 1, got {weight_sum}")
    keys = sorted(locals_)
    acc = locals_[keys[0]].zeros_like()
    for key in keys:
        acc = params_axpy(confidence[key], locals_[key], acc)
    return acc


def _aggregate(rule: str, global_params: ModelParams, updates: list[tuple[ClientState, ModelParams]],
               attn_cfg: AttnAggConfig, confidence) -> ModelParams:
    if rule == "pooled":
        return updates[0][1]
    if rule == "count":
        return fedavg_aggregate([(params, client.count) for client, params in updates])
    if rule == "attention":
        return fedatt_aggregate(global_params, [params for _, params in updates], attn_cfg)
    return irt_aggregate({client.key: params for client, params in updates}, confidence)


def _fit_confidence(clients: list[ClientState]) -> dict[SubgroupKey, float]:
    fits = {}
    for client in clients:
        try:
            matrix = build_response_matrix([client.records[sid] for sid in client.train_ids])
            fits[client.key] = fit_rasch(matrix)
        except ValueError as exc:
            raise FederationError(f"subgroup {client.key}: cannot fit responses: {exc}") from exc
    return irt_confidence(fits)


def adapt_for_eval(
    params: ModelParams,
    client: ClientState,
    mode: str,
    meta_cfg: MetaConfig,
    step: int = 0,
) -> ModelParams:
    """One local epoch of the strategy's update rule, for evaluation only.

    `step` is the validation step the model is evaluated at (0 before any);
    it keys the epoch's RNG. plain and meta are one `train_epoch` with a
    fresh optimizer of the rule's kind.
    """
    if mode == "none":
        return params
    rng = rng_for(client.seed, "adapt", client.digest, step)
    if mode == "plain":
        return train_epoch(params, client, client.settings.make_opt(), rng)[0]
    if mode == "meta":
        return train_epoch(params, client, meta_cfg.make_opt(client.settings.lr), rng, meta_cfg)[0]
    raise ValueError(f"unknown adaptation mode {mode!r}")


@dataclass
class RoundRow:
    round: int
    subgroup: str
    val_auc: float | None
    train_loss: float | None


@dataclass
class FederationResult:
    strategy: str
    rounds: list[RoundRow]
    eval_models: dict[SubgroupKey, ModelParams]   # what validation selected, per subgroup
    best_round: int                               # the latest step selected for any subgroup
    final_params: ModelParams
    warnings: list[str] = field(default_factory=list)


def scored_auc(params: ModelParams, ids: list[str], records: dict) -> float:
    """The AUC of `params`' pass probabilities over the students `ids`;
    `UndefinedAUCError` when they hold one label only."""
    p_pass, _ = score(params, [records[sid].sequence for sid in ids])
    return auc(p_pass, [records[sid].label for sid in ids])


def _val_auc(params: ModelParams, client: ClientState, monitor) -> float | None:
    if not client.val_ids:
        return None
    with monitor.phase("validate"):
        try:
            return scored_auc(params, client.val_ids, client.records)
        except UndefinedAUCError:
            return None


def _mean_defined(values) -> float | None:
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else None


def run_federation(
    records: dict,
    split: DatasetSplit,
    plan: ExperimentPlan,
    strategy: str,
    seed: int,
    pretrained: ModelParams | None = None,
    monitor=None,
) -> FederationResult:
    """Execute one strategy over one split with the plan's rounds, local iterations,
    training settings, meta and aggregation configs; deterministic given (plan, split,
    strategy, seed). Without a monitor no data access is counted.

    Every strategy runs the same steps. In a step each training client runs
    its local update from the model it was handed, the aggregate rule forms the
    global model, and each subgroup's evaluation model (its base model after
    the adapt rule) is validated. The base is the global model, or for Local
    the subgroup's own. For each distinct base, the step with the highest mean
    validation AUC over the subgroups it serves is selected, and those
    evaluation models are returned.
    """
    settings, meta_cfg = plan.settings, plan.meta
    if monitor is None:
        monitor = NullMonitor()
    rules = RULES.get(strategy)
    if rules is None:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")

    clients = [
        ClientState(key=key, train_ids=split.assignments[key].train,
                    val_ids=split.assignments[key].val, records=records, settings=settings, seed=seed)
        for key in split.subgroups()
    ]
    input_dim = records[clients[0].train_ids[0]].sequence.shape[1]
    init = ModelParams.initialized(settings.hidden_dim, input_dim, rng_for(seed, "init"))
    # Pretrained weights initialize the shared global model; purely local
    # training has no global model and starts from scratch.
    if pretrained is not None and strategy != "Local":
        init = transfer_weights(pretrained, init)

    trainers = clients
    if rules.aggregate == "pooled":
        union = sorted({sid for c in clients for sid in c.train_ids})
        trainers = [ClientState(SubgroupKey(clients[0].key.variable, "union"), union, [],
                                records, settings, seed)]
    # The training client that holds each subgroup's data.
    home = {c.key: trainers[0].key if rules.aggregate == "pooled" else c.key for c in clients}
    confidence = None
    if rules.aggregate == "irt":
        with monitor.phase("train"):
            confidence = _fit_confidence(clients)

    # Without aggregation a round is only a count of epochs, so Local and
    # Central validate after every epoch and number their rows by epoch.
    per_epoch = rules.aggregate in ("none", "pooled")
    epochs_per_step = 1 if per_epoch else plan.local_iters
    n_steps = plan.rounds * plan.local_iters // epochs_per_step
    groups = [[c] for c in clients] if rules.aggregate == "none" else [clients]
    chosen: list[tuple | None] = [None] * len(groups)   # (mean val AUC, step, eval models)

    global_params = init
    starts = {t.key: init for t in trainers}   # the model each trainer is handed next

    def evaluation_models(step: int) -> dict[SubgroupKey, ModelParams]:
        with monitor.phase("train"):
            return {c.key: adapt_for_eval(starts[home[c.key]], c, rules.adapt, meta_cfg, step)
                    for c in clients}

    evaluated = evaluation_models(0) if n_steps == 0 else {}
    rows: list[RoundRow] = []
    for step in range(1, n_steps + 1):
        round_idx, first = divmod((step - 1) * epochs_per_step, plan.local_iters)
        try:
            with monitor.phase("train"):
                updates, losses = [], {}
                for t in trainers:
                    params, losses[t.key] = local_update(
                        rules.local_update, starts[t.key], t,
                        range(first, first + epochs_per_step), round_idx, meta_cfg,
                    )
                    updates.append((t, params))
                if rules.aggregate == "none":
                    starts = {t.key: params for t, params in updates}
                else:
                    global_params = _aggregate(rules.aggregate, global_params, updates,
                                               plan.attn, confidence)
                    starts = dict.fromkeys(starts, global_params)
            evaluated = evaluation_models(step)
            val = {c.key: _val_auc(evaluated[c.key], c, monitor) for c in clients}
        except Exception as exc:
            raise FederationError(f"round {step} ({strategy}): {exc}") from exc
        rows.extend(RoundRow(step, str(c.key), val[c.key], losses[home[c.key]]) for c in clients)
        for i, group in enumerate(groups):
            mean_val = _mean_defined(val[c.key] for c in group)
            if mean_val is not None and (chosen[i] is None or mean_val > chosen[i][0]):
                chosen[i] = (mean_val, step, {c.key: evaluated[c.key] for c in group})

    warnings: list[str] = []
    eval_models: dict[SubgroupKey, ModelParams] = {}
    best_round = 0
    for group, pick in zip(groups, chosen):
        if pick is None:
            if n_steps:
                names = ", ".join(str(c.key) for c in group)
                warnings.append(f"{strategy}: validation AUC never defined for {names}; "
                                "using the final model")
            pick = (None, n_steps, {c.key: evaluated[c.key] for c in group})
        eval_models.update(pick[2])
        best_round = max(best_round, pick[1])
    return FederationResult(strategy, rows, eval_models, best_round, global_params, warnings)
