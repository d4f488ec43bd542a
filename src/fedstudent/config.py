"""Versioned JSON experiment configuration, read through one table of keys.

`KEYS` has one row per dotted key: its JSON type, its default, and the values
it may take. `parse_config` walks the table; a key the table does not name, a
value of another JSON type or outside its bounds is a `ConfigError` that names
the dotted key.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

from .activity import VARIABLES
from .evaluate import ExperimentPlan
from .federation import AGG_MODES, META_MODES, STRATEGIES, AttnAggConfig, MetaConfig, TrainSettings
from .optim import OPTIMIZER_KINDS

CONFIG_VERSION = 1
DATASET_KINDS = ("generated", "csv")


class ConfigError(ValueError):
    """Raised for any malformed or inconsistent experiment configuration."""


# JSON type name -> (Python types, what the error message asks for).
_JSON_TYPES = {
    "integer": (int, "an integer"),
    "number": ((int, float), "a finite number"),
    "boolean": (bool, "true or false"),
    "string": (str, "a string"),
    "object": (dict, "a JSON object"),
    "array": (list, "a JSON array"),
}


def json_value(value, kind: str, name: str, error: type[Exception] = ConfigError):
    """`value` if it has the JSON type `kind`, a number as a float; else `error` naming `name`.

    `kind` is a name in `_JSON_TYPES`, or "<kind> array" for an array whose
    items each have that kind. Booleans are neither integers nor numbers, and
    a number must be finite.
    """
    if kind.endswith(" array"):
        items = json_value(value, "array", name, error)
        return [json_value(item, kind[:-len(" array")], f"{name}[{i}]", error)
                for i, item in enumerate(items)]
    types, wanted = _JSON_TYPES[kind]
    if (not isinstance(value, types) or (isinstance(value, bool) and kind != "boolean")
            or (kind == "number" and not abs(value) <= sys.float_info.max)):
        raise error(f"{name} must be {wanted}, got {value!r}")
    return float(value) if kind == "number" else value


REQUIRED = object()


@dataclass(frozen=True)
class Ref:
    """A default that is the value read for another key."""

    key: str


@dataclass(frozen=True)
class Key:
    """One config key.

    `type` is a JSON type for `json_value`, "file" (a path relative to the
    config's directory that must name a file) or "dir" (a path relative to it).
    A value must be > `low` when `strict`, else >= `low`, and < `high`, or
    <= `high` when `closed`, and lie in `choices`; these hold for each item of
    an array, and a config array must be non-empty and distinct. A config key
    whose default is None may also be given as null. A key with `dataset`
    applies only when dataset.kind is that kind.
    """

    name: str
    type: str
    default: object = REQUIRED
    low: float | None = None
    strict: bool = False
    high: float | None = None
    closed: bool = False
    choices: tuple | None = None
    dataset: str | None = None


KEYS = (
    Key("version", "integer", choices=(CONFIG_VERSION,)),
    Key("dataset.kind", "string", choices=DATASET_KINDS),
    Key("dataset.spec_path", "file", dataset="generated"),
    Key("dataset.seed", "integer", 0, dataset="generated"),
    Key("dataset.events_path", "file", dataset="csv"),
    Key("dataset.students_path", "file", dataset="csv"),
    Key("dataset.n_videos", "integer", low=1, dataset="csv"),
    # A cap below 1 would not cap: load_records keeps rows[-max_sequence:].
    Key("dataset.max_sequence", "integer", 256, low=1, dataset="csv"),
    Key("variable", "string", "G", choices=VARIABLES),
    Key("include_unspecified", "boolean", False),
    Key("strategies", "string array", ["PerFedAttn"], choices=STRATEGIES),
    Key("rounds", "integer", 10, low=0),
    Key("local_iters", "integer", 5, low=1),
    Key("model.hidden_dim", "integer", 48, low=1),
    Key("model.dropout", "number", 0.5, low=0, high=1),
    Key("model.batch_size", "integer", 8, low=1),
    Key("optimizer.kind", "string", "adam", choices=OPTIMIZER_KINDS),
    Key("optimizer.lr", "number", 1e-3, low=0, strict=True),
    Key("optimizer.decay", "number", 1e-3, low=0),
    Key("meta.inner_lr", "number", 0.01, low=0),
    Key("meta.outer_lr", "number", Ref("optimizer.lr"), low=0),
    Key("meta.mode", "string", "first_order", choices=META_MODES),
    Key("meta.hessian_step", "number", 1e-4, low=0, strict=True),
    Key("meta.meta_batch", "integer", None, low=1),  # None: the training batch size
    Key("aggregation.step", "number", 1.0, low=0, strict=True),
    Key("aggregation.mode", "string", "per_layer", choices=AGG_MODES),
    Key("pretrain.enabled", "boolean", False),
    Key("pretrain.epochs", "integer", 10, low=0),
    Key("folds", "integer", 5, low=1),
    Key("seeds", "integer array", [0, 1, 2, 3, 4]),
    Key("fold_seed", "integer", 1234),
    Key("output_dir", "dir", "out"),
)


def violation(key: Key, value, name: str) -> str | None:
    """How `value`, already of `key`'s JSON type, breaks `key`'s bounds or choices,
    naming it `name`; checked for each item of an array. None if it keeps them."""
    for item in value if isinstance(value, list) else [value]:
        if key.choices is not None and item not in key.choices:
            return f"{name} must be one of {list(key.choices)}, got {item!r}"
        if key.low is not None and (item < key.low or (key.strict and item == key.low)):
            return f"{name} must be {'>' if key.strict else '>='} {key.low}, got {item!r}"
        if key.high is not None and (item > key.high or (not key.closed and item == key.high)):
            return f"{name} must be {'<=' if key.closed else '<'} {key.high}, got {item!r}"
    return None


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


def _check(key: Key, raw, base_dir: str):
    """`raw` read as `key` says: an array as a tuple, a path joined to `base_dir`."""
    if raw is None and key.default is None:
        return None
    value = json_value(raw, "string" if key.type in ("file", "dir") else key.type, key.name)
    if isinstance(value, list) and (not value or len(set(value)) != len(value)):
        raise ConfigError(f"{key.name} must be a non-empty array of distinct values, got {raw!r}")
    problem = violation(key, value, key.name)
    if problem:
        raise ConfigError(problem)
    if key.type in ("file", "dir"):
        value = os.path.join(base_dir, value)
        if key.type == "file" and not os.path.isfile(value):
            raise ConfigError(f"{key.name}: no such file: {value}")
    return tuple(value) if isinstance(value, list) else value


def _read(data, base_dir: str) -> dict:
    """The value of every key in `KEYS` that applies to `data`, by dotted name."""
    json_value(data, "object", "the configuration root")
    values: dict = {}
    for key in KEYS:
        if key.dataset not in (None, values.get("dataset.kind")):
            continue
        section, _, field = key.name.rpartition(".")
        holder = json_value(data.get(section, {}), "object", section) if section else data
        raw = holder.get(field, key.default)
        if raw is REQUIRED:
            raise ConfigError(f"{key.name} is required")
        values[key.name] = _check(key, values[raw.key] if isinstance(raw, Ref) else raw, base_dir)
    sections = {name.partition(".")[0] for name in values if "." in name}
    given = set()
    for top, value in data.items():
        given |= {f"{top}.{field}" for field in value} if top in sections else {top}
    unknown = given - set(values)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    return values


def parse_config(data: dict, base_dir: str = ".") -> ExperimentConfig:
    values = _read(data, base_dir)

    def section(name: str) -> dict:
        return {key.partition(".")[2]: value for key, value in values.items()
                if key.startswith(name + ".")}

    opt = section("optimizer")
    plan = ExperimentPlan(
        variable=values["variable"],
        include_unspecified=values["include_unspecified"],
        strategies=values["strategies"],
        rounds=values["rounds"],
        local_iters=values["local_iters"],
        settings=TrainSettings(**section("model"), opt_kind=opt["kind"], lr=opt["lr"], decay=opt["decay"]),
        meta=MetaConfig(**section("meta")),
        attn=AttnAggConfig(**section("aggregation")),
        pretrain_enabled=values["pretrain.enabled"],
        pretrain_epochs=values["pretrain.epochs"],
        folds=values["folds"],
        seeds=values["seeds"],
        fold_seed=values["fold_seed"],
    )
    return ExperimentConfig(dataset=DatasetSource(**section("dataset")), plan=plan,
                            output_dir=values["output_dir"], raw=data)


def load_config(path: str) -> ExperimentConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"config: no such file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data, base_dir=os.path.dirname(os.path.abspath(path)))
