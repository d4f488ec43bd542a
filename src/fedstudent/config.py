"""Versioned JSON experiment configuration with strict key checking."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .activity import VARIABLES
from .evaluate import ExperimentPlan
from .federation import STRATEGIES, AttnAggConfig, MetaConfig, TrainSettings
from .optim import OPTIMIZER_KINDS

CONFIG_VERSION = 1

_TOP_KEYS = {
    "version", "dataset", "variable", "include_unspecified", "strategies",
    "rounds", "local_iters", "model", "optimizer", "meta", "aggregation",
    "pretrain", "folds", "seeds", "fold_seed", "output_dir",
}
_DATASET_KEYS_GENERATED = {"kind", "spec_path", "seed"}
_DATASET_KEYS_CSV = {"kind", "events_path", "students_path", "n_videos", "max_sequence"}
_MODEL_KEYS = {"hidden_dim", "dropout", "batch_size"}
_OPT_KEYS = {"kind", "lr", "decay"}
_META_KEYS = {"inner_lr", "outer_lr", "mode", "hessian_step", "meta_batch"}
_AGG_KEYS = {"step", "mode"}
_PRETRAIN_KEYS = {"enabled", "epochs"}


class ConfigError(ValueError):
    """Raised for any malformed or inconsistent experiment configuration."""


@dataclass
class DatasetSource:
    kind: str                     # "generated" or "csv"
    spec_path: str | None = None
    seed: int = 0
    events_path: str | None = None
    students_path: str | None = None
    n_videos: int | None = None
    max_sequence: int = 256


@dataclass
class ExperimentConfig:
    dataset: DatasetSource
    plan: ExperimentPlan
    output_dir: str
    raw: dict


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return section[key]


def _coerce(kind, value, name: str):
    """`value` converted by `kind` (int or float); one it cannot take, or a float
    that is not finite, is an error naming the key."""
    try:
        converted = kind(value)
    except (TypeError, ValueError) as exc:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {expected}, got {value!r}") from exc
    if kind is float and not math.isfinite(converted):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return converted


def _boolean(value, name: str) -> bool:
    """`value` if it is a JSON boolean; anything else, the string "false" too, is an
    error naming the key."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _path_exists(path: str, where: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"{where}: path does not exist: {path}")
    return path


def parse_config(data: dict, base_dir: str = ".") -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    _check_keys(data, _TOP_KEYS, "config")
    if data.get("version") != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {data.get('version')!r}; expected {CONFIG_VERSION}")

    dataset_raw = _require(data, "dataset", "config")
    kind = _require(dataset_raw, "kind", "dataset")
    if kind == "generated":
        _check_keys(dataset_raw, _DATASET_KEYS_GENERATED, "dataset")
        spec_path = os.path.join(base_dir, _require(dataset_raw, "spec_path", "dataset"))
        dataset = DatasetSource(kind="generated",
                                spec_path=_path_exists(spec_path, "dataset.spec_path"),
                                seed=_coerce(int, dataset_raw.get("seed", 0), "dataset.seed"))
    elif kind == "csv":
        _check_keys(dataset_raw, _DATASET_KEYS_CSV, "dataset")
        events = os.path.join(base_dir, _require(dataset_raw, "events_path", "dataset"))
        students = os.path.join(base_dir, _require(dataset_raw, "students_path", "dataset"))
        dataset = DatasetSource(
            kind="csv",
            events_path=_path_exists(events, "dataset.events_path"),
            students_path=_path_exists(students, "dataset.students_path"),
            n_videos=_coerce(int, _require(dataset_raw, "n_videos", "dataset"), "dataset.n_videos"),
            max_sequence=_coerce(int, dataset_raw.get("max_sequence", 256), "dataset.max_sequence"),
        )
        # A cap below 1 would not cap: load_records keeps rows[-max_sequence:].
        for name in ("n_videos", "max_sequence"):
            value = getattr(dataset, name)
            if value < 1:
                raise ConfigError(f"dataset.{name} must be >= 1, got {value!r}")
    else:
        raise ConfigError(f"dataset.kind must be 'generated' or 'csv', got {kind!r}")

    variable = data.get("variable", "G")
    if variable not in VARIABLES:
        raise ConfigError(f"variable must be one of {VARIABLES}, got {variable!r}")

    strategies = data.get("strategies", ["PerFedAttn"])
    if not isinstance(strategies, list) or not strategies:
        raise ConfigError("strategies must be a non-empty list")
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if len(set(strategies)) != len(strategies):
        raise ConfigError(f"strategies must be distinct, got {strategies!r}")

    model_raw = data.get("model", {})
    _check_keys(model_raw, _MODEL_KEYS, "model")
    opt_raw = data.get("optimizer", {})
    _check_keys(opt_raw, _OPT_KEYS, "optimizer")
    opt_kind = opt_raw.get("kind", "adam")
    if opt_kind not in OPTIMIZER_KINDS:
        raise ConfigError(f"optimizer.kind must be one of {OPTIMIZER_KINDS}, got {opt_kind!r}")
    try:
        settings = TrainSettings(
            hidden_dim=_coerce(int, model_raw.get("hidden_dim", 48), "model.hidden_dim"),
            dropout=_coerce(float, model_raw.get("dropout", 0.5), "model.dropout"),
            batch_size=_coerce(int, model_raw.get("batch_size", 8), "model.batch_size"),
            opt_kind=opt_kind,
            lr=_coerce(float, opt_raw.get("lr", 1e-3), "optimizer.lr"),
            decay=_coerce(float, opt_raw.get("decay", 1e-3), "optimizer.decay"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if settings.hidden_dim < 1 or settings.batch_size < 1:
        raise ConfigError("model.hidden_dim and model.batch_size must be >= 1")
    if not 0.0 <= settings.dropout < 1.0:
        raise ConfigError("model.dropout must lie in [0, 1)")
    if settings.lr <= 0.0:
        raise ConfigError(f"optimizer.lr must be > 0, got {settings.lr!r}")
    if settings.decay < 0.0:
        raise ConfigError(f"optimizer.decay must be >= 0, got {settings.decay!r}")

    meta_raw = data.get("meta", {})
    _check_keys(meta_raw, _META_KEYS, "meta")
    try:
        meta_batch = meta_raw.get("meta_batch")
        meta = MetaConfig(
            inner_lr=_coerce(float, meta_raw.get("inner_lr", 0.01), "meta.inner_lr"),
            outer_lr=_coerce(float, meta_raw.get("outer_lr", settings.lr), "meta.outer_lr"),
            mode=str(meta_raw.get("mode", "first_order")),
            hessian_step=_coerce(float, meta_raw.get("hessian_step", 1e-4), "meta.hessian_step"),
            meta_batch=_coerce(int, meta_batch, "meta.meta_batch") if meta_batch is not None else None,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    agg_raw = data.get("aggregation", {})
    _check_keys(agg_raw, _AGG_KEYS, "aggregation")
    try:
        attn = AttnAggConfig(
            step=_coerce(float, agg_raw.get("step", 1.0), "aggregation.step"),
            mode=str(agg_raw.get("mode", "per_layer")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    pretrain_raw = data.get("pretrain", {})
    _check_keys(pretrain_raw, _PRETRAIN_KEYS, "pretrain")
    pretrain_enabled = _boolean(pretrain_raw.get("enabled", False), "pretrain.enabled")
    pretrain_epochs = _coerce(int, pretrain_raw.get("epochs", 10), "pretrain.epochs")
    if pretrain_epochs < 0:
        raise ConfigError("pretrain.epochs must be >= 0")

    rounds = _coerce(int, data.get("rounds", 10), "rounds")
    local_iters = _coerce(int, data.get("local_iters", 5), "local_iters")
    folds = _coerce(int, data.get("folds", 5), "folds")
    seeds = data.get("seeds", [0, 1, 2, 3, 4])
    if rounds < 0 or local_iters < 1:
        raise ConfigError("need rounds >= 0 and local_iters >= 1")
    if folds < 1:
        raise ConfigError("folds must be >= 1")
    if not isinstance(seeds, list) or not seeds or not all(isinstance(s, int) for s in seeds):
        raise ConfigError("seeds must be a non-empty list of integers")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")

    plan = ExperimentPlan(
        variable=variable,
        include_unspecified=_boolean(data.get("include_unspecified", False), "include_unspecified"),
        strategies=tuple(strategies),
        rounds=rounds,
        local_iters=local_iters,
        settings=settings,
        meta=meta,
        attn=attn,
        pretrain_enabled=pretrain_enabled,
        pretrain_epochs=pretrain_epochs,
        folds=folds,
        seeds=tuple(seeds),
        fold_seed=_coerce(int, data.get("fold_seed", 1234), "fold_seed"),
    )
    output_dir = os.path.join(base_dir, data.get("output_dir", "out"))
    return ExperimentConfig(dataset=dataset, plan=plan, output_dir=output_dir, raw=data)


def load_config(path: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file does not exist: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data, base_dir=os.path.dirname(os.path.abspath(path)))
