"""Round-based training strategies over demographic subgroups acting as clients.

Seven strategies share one orchestration surface:

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

Kept as a test oracle. Records now hold their sequence as an (L, d) matrix and
the network passes take lists, so the call sites are adapted without changing
the arithmetic: `sequence_matrix(x)` became `x` (and the input width is the
matrix's column count), and each one-sequence `forward_outcome(p, X,
dropout_mask=m)` and `backward(t, y, p)` became a batch of one,
`forward_outcome(p, [X], [m])[0]` and `backward([t], [y], p)[0]`, which runs
exactly the operations the one-sequence call ran. Those calls go to
`reference.network_v0`, the frozen per-sequence network, so this oracle keeps
one trace and one gradient per student while the package's network returns one
trace and one summed gradient per batch.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field

import numpy as np

from fedstudent.irt import build_response_matrix, fit_rasch, irt_confidence
from fedstudent.metrics import ScoredStudent, UndefinedAUCError, auc
from fedstudent.optim import OptState, optimizer_step
from fedstudent.params import Gradients, ModelParams, params_axpy, params_cosine
from fedstudent.pretrain import transfer_weights
from fedstudent.splits import DatasetSplit, SubgroupKey, ids_digest, rng_for
from fedstudent.tracking import NullMonitor
from reference.network_v0 import backward, forward_outcome, make_dropout_mask, outcome_loss

logger = logging.getLogger(__name__)

STRATEGIES = ("Local", "Central", "FedAvg", "FedAtt", "FedIRT", "PerFedAvgAgg", "PerFedAttn")
META_STRATEGIES = ("PerFedAvgAgg", "PerFedAttn")


class FederationError(RuntimeError):
    """Raised when a round fails; carries round and subgroup context."""


@dataclass
class MetaConfig:
    """Inner/outer step sizes and Hessian handling for meta-gradient updates.

    meta_batch is the number of students drawn per meta iteration; None uses
    the client's whole training split, the literal full-dataset meta loss.
    """

    inner_lr: float = 0.01
    outer_lr: float = 1e-3
    mode: str = "first_order"
    hessian_step: float = 1e-4
    meta_batch: int | None = None  # None: use the training batch size

    def __post_init__(self):
        if self.mode not in ("first_order", "hessian_fd"):
            raise ValueError(f"unknown meta mode {self.mode!r}")
        if self.inner_lr < 0 or self.outer_lr < 0 or self.hessian_step <= 0:
            raise ValueError("meta step sizes must be non-negative (hessian_step positive)")
        if self.meta_batch is not None and self.meta_batch < 1:
            raise ValueError("meta_batch must be >= 1 when given")


@dataclass
class AttnAggConfig:
    step: float = 1.0
    mode: str = "per_layer"  # or "scalar_sum"

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("aggregation step size must be positive")
        if self.mode not in ("per_layer", "scalar_sum"):
            raise ValueError(f"unknown aggregation mode {self.mode!r}")


@dataclass
class FederationSchedule:
    strategy: str
    rounds: int = 10
    local_iters: int = 5

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.rounds < 0 or self.local_iters < 1:
            raise ValueError("need rounds >= 0 and local_iters >= 1")


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


class TrainContext:
    """Shared access point for record matrices and labels during a run."""

    def __init__(self, records: dict, settings: TrainSettings):
        self.records = records
        self.settings = settings
        self._matrices: dict[str, np.ndarray] = {}
        first = next(iter(records.values()))
        self.input_dim = first.sequence.shape[1]
        self._matrices[first.student_id] = first.sequence

    def matrix(self, student_id: str) -> np.ndarray:
        cached = self._matrices.get(student_id)
        if cached is None:
            cached = self.records[student_id].sequence
            self._matrices[student_id] = cached
        return cached

    def label(self, student_id: str) -> int:
        return self.records[student_id].label


@dataclass
class ClientState:
    """One subgroup acting as a federated client."""

    key: SubgroupKey
    train_ids: list[str]
    val_ids: list[str]
    ctx: TrainContext
    seed: int
    model: ModelParams | None = None
    prev_model: ModelParams | None = None   # previous round's local endpoint
    opt: OptState | None = None
    digest: str = field(init=False)

    def __post_init__(self):
        if not self.train_ids:
            raise FederationError(f"subgroup {self.key} has an empty training split")
        self.train_ids = sorted(self.train_ids)
        self.digest = ids_digest(self.train_ids)

    @property
    def count(self) -> int:
        return len(self.train_ids)


class BatchObjective:
    """BCE objective over a fixed batch with frozen dropout masks.

    Freezing the masks makes the objective a deterministic function of the
    parameters, which meta-gradient and finite-difference evaluations require.
    """

    def __init__(self, ctx: TrainContext, student_ids: list[str], rng: np.random.Generator | None):
        dropout = ctx.settings.dropout
        k = ctx.settings.hidden_dim
        self.items = []
        for sid in student_ids:
            mask = make_dropout_mask(rng, k, dropout) if rng is not None and dropout > 0 else None
            self.items.append((ctx.matrix(sid), ctx.label(sid), mask))

    def loss_and_gradient(self, params: ModelParams) -> tuple[float, Gradients]:
        grads = params.zeros_like()
        total = 0.0
        for X, label, mask in self.items:
            trace = forward_outcome(params, [X], [mask])[0]
            total += outcome_loss(trace.probs, label)
            grads = grads + backward([trace], [label], params)[0]
        scale = 1.0 / len(self.items)
        return total * scale, grads * scale

    def loss(self, params: ModelParams) -> float:
        total = 0.0
        for X, label, mask in self.items:
            trace = forward_outcome(params, [X], [mask])[0]
            total += outcome_loss(trace.probs, label)
        return total / len(self.items)

    def gradient(self, params: ModelParams) -> Gradients:
        return self.loss_and_gradient(params)[1]


def meta_gradient(params: ModelParams, objective, cfg: MetaConfig) -> Gradients:
    """Gradient of the after-one-inner-step loss.

    first_order drops the curvature term; hessian_fd restores it through a
    central-difference Hessian-vector product:
        g = v - inner_lr * (grad(theta + dv) - grad(theta - dv)) / (2d),
        v = grad(theta - inner_lr * grad(theta)).
    """
    g0 = objective.gradient(params)
    inner = params_axpy(-cfg.inner_lr, g0, params)
    v = objective.gradient(inner)
    if cfg.mode == "first_order":
        result = v
    else:
        delta = cfg.hessian_step
        g_plus = objective.gradient(params_axpy(delta, v, params))
        g_minus = objective.gradient(params_axpy(-delta, v, params))
        hvp = (g_plus - g_minus) * (1.0 / (2.0 * delta))
        result = params_axpy(-cfg.inner_lr, hvp, v)
    if not result.all_finite():
        raise FederationError("meta-gradient produced non-finite values")
    return result


def local_adaptation(
    global_params: ModelParams,
    client: ClientState,
    local_iters: int,
    cfg: MetaConfig,
    round_idx: int = 0,
) -> tuple[ModelParams, float]:
    """E local iterations of mini-batched meta-updates from the global model.

    Each local iteration sweeps the client's training split once, applying the
    meta-update rule per drawn batch, so one iteration is the same unit of
    work as one epoch of the conventional strategies. Returns the adapted
    parameters and the mean pre-step batch loss.
    """
    if local_iters < 1:
        raise ValueError("local_iters must be >= 1")
    params = global_params.copy()
    rng = rng_for(client.seed, "meta", client.digest, round_idx)
    batch_size = min(cfg.meta_batch or client.ctx.settings.batch_size, len(client.train_ids))
    losses = []
    for _ in range(local_iters):
        order = rng.permutation(len(client.train_ids))
        shuffled = [client.train_ids[i] for i in order]
        for start in range(0, len(shuffled), batch_size):
            # The meta loss is a deterministic function of the parameters, so
            # meta objectives carry no dropout (rng=None).
            objective = BatchObjective(client.ctx, shuffled[start:start + batch_size], None)
            losses.append(objective.loss(params))
            grad = meta_gradient(params, objective, cfg)
            params = params_axpy(-cfg.outer_lr, grad, params)
    return params, float(np.mean(losses))


def train_epoch(
    params: ModelParams,
    ctx: TrainContext,
    train_ids: list[str],
    opt: OptState,
    rng: np.random.Generator,
) -> tuple[ModelParams, float]:
    """One shuffled epoch of mini-batch descent; returns (params, mean student loss)."""
    order = rng.permutation(len(train_ids))
    shuffled = [train_ids[i] for i in order]
    total = 0.0
    bs = ctx.settings.batch_size
    for start in range(0, len(shuffled), bs):
        batch = shuffled[start:start + bs]
        objective = BatchObjective(ctx, batch, rng)
        loss, grads = objective.loss_and_gradient(params)
        total += loss * len(batch)
        params = optimizer_step(params, grads, opt)
    opt.epoch += 1
    return params, total / len(shuffled)


def _content_digest(params: ModelParams, extra: bytes = b"") -> bytes:
    h = hashlib.sha256()
    for name in params.names():
        h.update(params[name].tobytes())
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
    cfg: AttnAggConfig | None = None,
) -> ModelParams:
    """Pull the global model toward locals, weighted by per-layer parameter distance."""
    cfg = cfg or AttnAggConfig()
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
    new_layers = {}
    for i, name in enumerate(names):
        delta = np.zeros_like(global_params[name])
        for j, loc in enumerate(ordered):
            delta += per_layer_alpha[i, j] * (global_params[name] - loc[name])
        new_layers[name] = global_params[name] - cfg.step * delta
    return ModelParams(global_params.hidden_dim, global_params.input_dim, new_layers)


def fedirt_round(
    global_params: ModelParams,
    clients: list[ClientState],
    confidence: dict[SubgroupKey, float],
    local_iters: int,
    round_idx: int,
) -> ModelParams:
    """One round of interpolated local descent plus confidence-weighted aggregation.

    Each client starts from lambda * previous_local + (1 - lambda) * global with
    lambda the cosine of the two models (0 on the first round), runs E epochs of
    conventional descent, and the new global is the confidence-weighted sum.
    """
    missing = [str(c.key) for c in clients if c.key not in confidence]
    if missing:
        raise ValueError(f"confidence weights missing for subgroups: {missing}")
    weight_sum = sum(confidence[c.key] for c in clients)
    if abs(weight_sum - 1.0) > 1e-9:
        raise ValueError(f"confidence weights must sum to 1, got {weight_sum}")
    locals_after = []
    for client in clients:
        if client.prev_model is None:
            lam = 0.0
            params = global_params.copy()
        else:
            lam = params_cosine(client.prev_model, global_params)
            params = params_axpy(lam, client.prev_model, (1.0 - lam) * global_params)
        if client.opt is None:
            client.opt = client.ctx.settings.make_opt()
        for e in range(local_iters):
            rng = rng_for(client.seed, "epoch", client.digest, round_idx, e)
            params, _ = train_epoch(params, client.ctx, client.train_ids, client.opt, rng)
        client.prev_model = params
        client.model = params
        locals_after.append((client.key, params))
    acc = global_params.zeros_like()
    for key, params in sorted(locals_after, key=lambda item: item[0]):
        acc = params_axpy(confidence[key], params, acc)
    return acc


def adapt_for_eval(
    params: ModelParams,
    client: ClientState,
    mode: str,
    meta_cfg: MetaConfig,
    round_tag=0,
) -> ModelParams:
    """One full local epoch of the strategy's update rule, for evaluation only."""
    if mode == "none":
        return params
    rng = rng_for(client.seed, "adapt", client.digest, round_tag)
    order = rng.permutation(len(client.train_ids))
    shuffled = [client.train_ids[i] for i in order]
    bs = client.ctx.settings.batch_size
    adapted = params.copy()
    if mode == "meta":
        meta_bs = min(meta_cfg.meta_batch or bs, len(shuffled))
        for start in range(0, len(shuffled), meta_bs):
            objective = BatchObjective(client.ctx, shuffled[start:start + meta_bs], None)
            grad = meta_gradient(adapted, objective, meta_cfg)
            adapted = params_axpy(-meta_cfg.outer_lr, grad, adapted)
        return adapted
    if mode == "plain":
        opt = client.ctx.settings.make_opt()
        for start in range(0, len(shuffled), bs):
            objective = BatchObjective(client.ctx, shuffled[start:start + bs], rng)
            _, grads = objective.loss_and_gradient(adapted)
            adapted = optimizer_step(adapted, grads, opt)
        return adapted
    raise ValueError(f"unknown adaptation mode {mode!r}")


ADAPT_MODE = {
    "Local": "none",
    "Central": "none",
    "FedAvg": "none",
    "FedAtt": "none",
    "FedIRT": "plain",
    "PerFedAvgAgg": "meta",
    "PerFedAttn": "meta",
}


@dataclass
class RoundRow:
    round: int
    subgroup: str
    val_auc: float | None
    train_loss: float | None


@dataclass
class GlobalState:
    strategy: str
    round: int
    params: ModelParams


@dataclass
class FederationResult:
    strategy: str
    rounds: list[RoundRow]
    eval_bases: dict[SubgroupKey, ModelParams]
    adapt_mode: str
    best_round: int
    final: GlobalState
    warnings: list[str] = field(default_factory=list)
    clients: list[ClientState] = field(default_factory=list)


def _probability_of_pass(params: ModelParams, X: np.ndarray) -> float:
    return float(forward_outcome(params, [X])[0].probs[0])


def _val_auc(params: ModelParams, client: ClientState, monitor) -> float | None:
    if not client.val_ids:
        return None
    with monitor.phase("validate"):
        scored = [
            ScoredStudent(sid, _probability_of_pass(params, client.ctx.matrix(sid)),
                          client.ctx.label(sid), client.key)
            for sid in client.val_ids
        ]
    try:
        return auc(scored)
    except UndefinedAUCError:
        return None


def _mean_defined(values) -> float | None:
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else None


def run_federation(
    records: dict,
    split: DatasetSplit,
    schedule: FederationSchedule,
    seed: int,
    settings: TrainSettings | None = None,
    meta_cfg: MetaConfig | None = None,
    attn_cfg: AttnAggConfig | None = None,
    pretrained: ModelParams | None = None,
    monitor=None,
) -> FederationResult:
    """Execute one strategy over one split; deterministic given (schedule, split, seed)."""
    settings = settings or TrainSettings()
    meta_cfg = meta_cfg or MetaConfig(outer_lr=settings.lr)
    attn_cfg = attn_cfg or AttnAggConfig()
    monitor = monitor or NullMonitor()

    ctx = TrainContext(records, settings)
    clients = [
        ClientState(key=key, train_ids=split.assignments[key].train,
                    val_ids=split.assignments[key].val, ctx=ctx, seed=seed)
        for key in split.subgroups()
    ]
    init = ModelParams.initialized(settings.hidden_dim, ctx.input_dim, rng_for(seed, "init"))
    # Pretrained weights initialize the shared global model; purely local
    # training has no global model and starts from scratch.
    if pretrained is not None and schedule.strategy != "Local":
        init = transfer_weights(pretrained, init)

    strategy = schedule.strategy
    adapt_mode = ADAPT_MODE[strategy]
    warnings: list[str] = []
    try:
        if strategy == "Local":
            return _run_local(clients, schedule, seed, init, monitor, warnings)
        if strategy == "Central":
            return _run_central(clients, schedule, seed, init, monitor, warnings)
        return _run_federated(
            clients, schedule, seed, init, monitor, warnings,
            strategy, adapt_mode, meta_cfg, attn_cfg,
        )
    except FederationError:
        raise
    except Exception as exc:
        raise FederationError(f"strategy {strategy} failed: {exc}") from exc


def _run_local(clients, schedule, seed, init, monitor, warnings) -> FederationResult:
    rows: list[RoundRow] = []
    eval_bases: dict[SubgroupKey, ModelParams] = {}
    total_epochs = schedule.rounds * schedule.local_iters
    best_rounds = {}
    with monitor.phase("train"):
        for client in clients:
            params = init.copy()
            opt = client.ctx.settings.make_opt()
            best_auc, best_params, best_epoch = -np.inf, params.copy(), 0
            for j in range(total_epochs):
                rng = rng_for(seed, "epoch", client.digest, j // schedule.local_iters,
                              j % schedule.local_iters)
                params, loss = train_epoch(params, client.ctx, client.train_ids, opt, rng)
                val = _val_auc(params, client, monitor)
                rows.append(RoundRow(j + 1, str(client.key), val, loss))
                if val is not None and val > best_auc:
                    best_auc, best_params, best_epoch = val, params.copy(), j + 1
            if best_auc == -np.inf:
                warnings.append(f"subgroup {client.key}: validation AUC never defined; using final model")
                best_params, best_epoch = params, total_epochs
            eval_bases[client.key] = best_params
            best_rounds[client.key] = best_epoch
            client.model = params
    final = GlobalState("Local", total_epochs, init)
    return FederationResult("Local", rows, eval_bases, "none",
                            max(best_rounds.values(), default=0), final, warnings, clients)


def _run_central(clients, schedule, seed, init, monitor, warnings) -> FederationResult:
    ctx = clients[0].ctx
    union_ids = sorted({sid for c in clients for sid in c.train_ids})
    digest = ids_digest(union_ids)
    params = init.copy()
    opt = ctx.settings.make_opt()
    rows: list[RoundRow] = []
    best_auc, best_params, best_epoch = -np.inf, params.copy(), 0
    total_epochs = schedule.rounds * schedule.local_iters
    with monitor.phase("train"):
        for j in range(total_epochs):
            rng = rng_for(seed, "epoch", digest, j // schedule.local_iters,
                          j % schedule.local_iters)
            params, loss = train_epoch(params, ctx, union_ids, opt, rng)
            per_client = {c.key: _val_auc(params, c, monitor) for c in clients}
            for c in clients:
                rows.append(RoundRow(j + 1, str(c.key), per_client[c.key], loss))
            mean_val = _mean_defined(per_client.values())
            if mean_val is not None and mean_val > best_auc:
                best_auc, best_params, best_epoch = mean_val, params.copy(), j + 1
    if best_auc == -np.inf:
        warnings.append("validation AUC never defined; using final model")
        best_params, best_epoch = params, total_epochs
    eval_bases = {c.key: best_params for c in clients}
    return FederationResult("Central", rows, eval_bases, "none", best_epoch,
                            GlobalState("Central", total_epochs, params), warnings, clients)


def _run_federated(clients, schedule, seed, init, monitor, warnings,
                   strategy, adapt_mode, meta_cfg, attn_cfg) -> FederationResult:
    global_params = init.copy()
    rows: list[RoundRow] = []
    best_auc, best_params, best_round = -np.inf, global_params.copy(), 0

    confidence = None
    if strategy == "FedIRT":
        with monitor.phase("train"):
            fits = {}
            for client in clients:
                try:
                    matrix = build_response_matrix(
                        [client.ctx.records[sid] for sid in client.train_ids]
                    )
                    fits[client.key] = fit_rasch(matrix)
                except ValueError as exc:
                    raise FederationError(f"subgroup {client.key}: cannot fit responses: {exc}") from exc
            confidence = irt_confidence(fits)

    for round_idx in range(schedule.rounds):
        try:
            with monitor.phase("train"):
                losses: dict[SubgroupKey, float | None] = {}
                if strategy == "FedIRT":
                    global_params = fedirt_round(
                        global_params, clients, confidence, schedule.local_iters, round_idx
                    )
                    for client in clients:
                        losses[client.key] = None
                elif strategy in META_STRATEGIES:
                    locals_ = []
                    for client in clients:
                        adapted, loss = local_adaptation(
                            global_params, client, schedule.local_iters, meta_cfg, round_idx
                        )
                        client.model = adapted
                        losses[client.key] = loss
                        locals_.append((client, adapted))
                    if strategy == "PerFedAttn":
                        global_params = fedatt_aggregate(
                            global_params, [p for _, p in locals_], attn_cfg
                        )
                    else:
                        global_params = fedavg_aggregate(
                            [(p, c.count) for c, p in locals_]
                        )
                else:  # FedAvg / FedAtt
                    locals_ = []
                    for client in clients:
                        if client.opt is None:
                            client.opt = client.ctx.settings.make_opt()
                        params = global_params.copy()
                        loss = None
                        for e in range(schedule.local_iters):
                            rng = rng_for(seed, "epoch", client.digest, round_idx, e)
                            params, loss = train_epoch(
                                params, client.ctx, client.train_ids, client.opt, rng
                            )
                        client.model = params
                        losses[client.key] = loss
                        locals_.append((client, params))
                    if strategy == "FedAtt":
                        global_params = fedatt_aggregate(
                            global_params, [p for _, p in locals_], attn_cfg
                        )
                    else:
                        global_params = fedavg_aggregate(
                            [(p, c.count) for c, p in locals_]
                        )

            per_client_val = {}
            for client in clients:
                model = global_params
                if adapt_mode != "none":
                    # round_tag matches best_round so the final evaluation can
                    # reproduce exactly the adaptation that won validation.
                    with monitor.phase("train"):
                        model = adapt_for_eval(global_params, client, adapt_mode,
                                               meta_cfg, round_tag=round_idx + 1)
                per_client_val[client.key] = _val_auc(model, client, monitor)
            for client in clients:
                rows.append(RoundRow(round_idx + 1, str(client.key),
                                     per_client_val[client.key], losses[client.key]))
            mean_val = _mean_defined(per_client_val.values())
            if mean_val is not None and mean_val > best_auc:
                best_auc, best_params, best_round = mean_val, global_params.copy(), round_idx + 1
        except FederationError:
            raise
        except Exception as exc:
            raise FederationError(f"round {round_idx + 1} ({strategy}): {exc}") from exc

    if best_auc == -np.inf:
        if schedule.rounds > 0:
            warnings.append("validation AUC never defined; using final global model")
        best_params, best_round = global_params.copy(), schedule.rounds
    eval_bases = {c.key: best_params for c in clients}
    return FederationResult(strategy, rows, eval_bases, adapt_mode, best_round,
                            GlobalState(strategy, schedule.rounds, global_params), warnings, clients)


# The evaluation-model replay that `evaluate.execute_run` ran on this version:
# each subgroup's evaluation model is rebuilt from the selected base by
# repeating the adaptation with the selected round as its RNG tag.
def replay_eval_models(result: FederationResult, split: DatasetSplit, meta_cfg: MetaConfig):
    clients = {c.key: c for c in result.clients}
    eval_models = {}
    for key in split.subgroups():
        base = result.eval_bases[key]
        model = base
        if result.adapt_mode != "none":
            model = adapt_for_eval(base, clients[key], result.adapt_mode,
                                   meta_cfg, round_tag=result.best_round)
        eval_models[key] = model
    return eval_models
