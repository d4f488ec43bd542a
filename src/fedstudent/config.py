"""Versioned JSON experiment configuration, read through one table of keys.

`KEYS` has one row per dotted key: its JSON type, its default, the values it
may take and, for a key of the experiment plan, the plan attribute it sets.
A plan key's default is not written here: it is `ExperimentPlan()`'s value
of that attribute, so the plan dataclasses in `federation` hold every plan
default once. `parse_config` walks the table to read a JSON config, and
`check_plan` walks it to check a plan built in code; a key the table does not
name, a value of another JSON type or outside its bounds is a `ConfigError`
that names the dotted key.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, replace
from operator import attrgetter

from .activity import DEFAULT_MAX_SEQUENCE, VARIABLES, InputError
from .federation import AGG_MODES, META_MODES, STRATEGIES, ExperimentPlan
from .optim import OPTIMIZER_KINDS

CONFIG_VERSION = 1
DATASET_KINDS = ("generated", "csv")


class ConfigError(InputError):
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
class Key:
    """One config key.

    `type` is a JSON type for `json_value`, "file" (a path relative to the
    config's directory that must name a file) or "dir" (a path relative to it).
    A value must be > `low` when `strict`, else >= `low`, and < `high`, or
    <= `high` when `closed`, and lie in `choices`; these hold for each item of
    an array, and a config array must be non-empty and distinct. A config key
    whose default is None may also be given as null. A key with `dataset`
    applies only when dataset.kind is that kind. A key with `attr` sets the
    `ExperimentPlan` attribute at that dotted path; `_plan_key` makes its row.
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
    attr: str | None = None


def _plan_key(name: str, kind: str, attr: str, **rule) -> Key:
    """The row of config key `name` of JSON type `kind`, which sets the `ExperimentPlan`
    attribute at the dotted path `attr` and defaults to `ExperimentPlan()`'s value there."""
    return Key(name, kind, attrgetter(attr)(ExperimentPlan()), attr=attr, **rule)


KEYS = (
    Key("version", "integer", choices=(CONFIG_VERSION,)),
    Key("dataset.kind", "string", choices=DATASET_KINDS),
    Key("dataset.spec_path", "file", dataset="generated"),
    Key("dataset.seed", "integer", 0, dataset="generated"),
    Key("dataset.events_path", "file", dataset="csv"),
    Key("dataset.students_path", "file", dataset="csv"),
    Key("dataset.n_videos", "integer", low=1, dataset="csv"),
    # A cap below 1 would not cap: load_records keeps rows[-max_sequence:].
    Key("dataset.max_sequence", "integer", DEFAULT_MAX_SEQUENCE, low=1, dataset="csv"),
    _plan_key("variable", "string", "variable", choices=VARIABLES),
    _plan_key("include_unspecified", "boolean", "include_unspecified"),
    _plan_key("strategies", "string array", "strategies", choices=STRATEGIES),
    _plan_key("rounds", "integer", "rounds", low=0),
    _plan_key("local_iters", "integer", "local_iters", low=1),
    _plan_key("model.hidden_dim", "integer", "settings.hidden_dim", low=1),
    _plan_key("model.dropout", "number", "settings.dropout", low=0, high=1),
    _plan_key("model.batch_size", "integer", "settings.batch_size", low=1),
    _plan_key("optimizer.kind", "string", "settings.opt_kind", choices=OPTIMIZER_KINDS),
    _plan_key("optimizer.lr", "number", "settings.lr", low=0, strict=True),
    _plan_key("optimizer.decay", "number", "settings.decay", low=0),
    _plan_key("meta.inner_lr", "number", "meta.inner_lr", low=0),
    # None: optimizer.lr.
    _plan_key("meta.outer_lr", "number", "meta.outer_lr", low=0),
    _plan_key("meta.mode", "string", "meta.mode", choices=META_MODES),
    _plan_key("meta.hessian_step", "number", "meta.hessian_step", low=0, strict=True),
    # None: the training batch size.
    _plan_key("meta.meta_batch", "integer", "meta.meta_batch", low=1),
    _plan_key("aggregation.step", "number", "attn.step", low=0, strict=True),
    _plan_key("aggregation.mode", "string", "attn.mode", choices=AGG_MODES),
    _plan_key("pretrain.enabled", "boolean", "pretrain_enabled"),
    _plan_key("pretrain.epochs", "integer", "pretrain_epochs", low=0),
    _plan_key("folds", "integer", "folds", low=1),
    _plan_key("seeds", "integer array", "seeds"),
    _plan_key("fold_seed", "integer", "fold_seed"),
    Key("output_dir", "dir", "out"),
)
PLAN_KEYS = tuple(key for key in KEYS if key.attr)


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
    max_sequence: int = DEFAULT_MAX_SEQUENCE


@dataclass
class ExperimentConfig:
    dataset: DatasetSource
    plan: ExperimentPlan
    output_dir: str
    raw: dict


def _check(key: Key, raw, base_dir: str):
    """`raw` read as `key` says; a tuple reads as an array. An array comes back as a
    tuple, and a path joined to `base_dir`."""
    if raw is None and key.default is None:
        return None
    if isinstance(raw, tuple):
        raw = list(raw)
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
        section, _, leaf = key.name.rpartition(".")
        holder = json_value(data.get(section, {}), "object", section) if section else data
        raw = holder.get(leaf, key.default)
        if raw is REQUIRED:
            raise ConfigError(f"{key.name} is required")
        values[key.name] = _check(key, raw, base_dir)
    sections = {name.partition(".")[0] for name in values if "." in name}
    given = set()
    for top, value in data.items():
        given |= {f"{top}.{leaf}" for leaf in value} if top in sections else {top}
    unknown = given - set(values)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    return values


def check_plan(plan: ExperimentPlan) -> None:
    """Hold a plan built in code to its `KEYS` rows, as a JSON config is held. Raises
    `ConfigError` naming the dotted key of the first value that a config could not give."""
    for key in PLAN_KEYS:
        _check(key, attrgetter(key.attr)(plan), "")


def parse_config(data: dict, base_dir: str = ".") -> ExperimentConfig:
    values = _read(data, base_dir)
    parts: dict = {"": {}}
    for key in PLAN_KEYS:
        part, _, name = key.attr.rpartition(".")
        parts.setdefault(part, {})[name] = values[key.name]
    default = ExperimentPlan()
    plan = ExperimentPlan(**parts.pop(""), **{part: replace(getattr(default, part), **fields)
                                              for part, fields in parts.items()})
    dataset = DatasetSource(**{name.partition(".")[2]: value for name, value in values.items()
                               if name.startswith("dataset.")})
    return ExperimentConfig(dataset=dataset, plan=plan, output_dir=values["output_dir"], raw=data)


def load_json(path: str, parse, error: type[Exception]):
    """`parse` of the JSON value in the file at `path`. A file that is not UTF-8 JSON,
    or an `error` from `parse`, raises `error` naming `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc
    try:
        return parse(data)
    except error as exc:
        raise error(f"{path}: {exc}") from exc


def write_json(path: str, value) -> None:
    """Write `value` to `path` as JSON indented by two, keys sorted, ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path: str) -> ExperimentConfig:
    base_dir = os.path.dirname(os.path.abspath(path))
    return load_json(path, lambda data: parse_config(data, base_dir), ConfigError)
