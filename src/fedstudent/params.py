"""Named-layer parameter collections with vector algebra and binary serialization.

The same container is used for model parameters and for gradients: both are
ordered collections of float64 arrays with identical names and shapes, so
aggregation rules and optimizer updates can treat models as vectors.
"""

from __future__ import annotations

import json
import math

import numpy as np

FORMAT_MAGIC = "fedstudent-params"
FORMAT_VERSION = 1

# Stacked GRU gate order used throughout: update (z), reset (r), candidate (c).
GATES = 3


class ParamFormatError(ValueError):
    """Raised when a serialized parameter file cannot be parsed."""


def layer_shapes(hidden_dim: int, input_dim: int) -> dict[str, tuple[int, ...]]:
    """Declared shape of every named layer for a (hidden_dim, input_dim) model."""
    k, d = hidden_dim, input_dim
    return {
        "gru.input_weights": (GATES * k, d),
        "gru.recurrent_weights": (GATES * k, k),
        "gru.biases": (GATES * k,),
        "attn.W_alpha": (k, k),
        "attn.p": (k,),
        "head.W_l": (k, 2),
        "head.b_l": (2,),
        "pretrain.W_p": (k, d),
        "pretrain.b_p": (d,),
    }


# (fan_in, fan_out) per weight layer, used by the uniform initializer.
def _layer_fans(hidden_dim: int, input_dim: int) -> dict[str, tuple[int, int]]:
    k, d = hidden_dim, input_dim
    return {
        "gru.input_weights": (d, k),
        "gru.recurrent_weights": (k, k),
        "attn.W_alpha": (k, k),
        "attn.p": (k, 1),
        "head.W_l": (k, 2),
        "pretrain.W_p": (k, d),
    }


class ModelParams:
    """Ordered named layers of float64 arrays.

    Supports elementwise arithmetic (`+`, `-`, scalar `*`) so that update and
    aggregation rules read like the vector expressions they implement.
    """

    __slots__ = ("hidden_dim", "input_dim", "layers")

    def __init__(self, hidden_dim: int, input_dim: int, layers: dict[str, np.ndarray]):
        expected = layer_shapes(hidden_dim, input_dim)
        if set(layers) != set(expected):
            missing = sorted(set(expected) - set(layers))
            extra = sorted(set(layers) - set(expected))
            raise ValueError(f"layer name mismatch: missing={missing} extra={extra}")
        self.hidden_dim = hidden_dim
        self.input_dim = input_dim
        self.layers: dict[str, np.ndarray] = {}
        for name, shape in expected.items():
            arr = np.asarray(layers[name], dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"layer {name}: expected shape {shape}, got {arr.shape}")
            self.layers[name] = arr

    @classmethod
    def zeros(cls, hidden_dim: int, input_dim: int) -> "ModelParams":
        shapes = layer_shapes(hidden_dim, input_dim)
        return cls(hidden_dim, input_dim, {n: np.zeros(s) for n, s in shapes.items()})

    @classmethod
    def initialized(cls, hidden_dim: int, input_dim: int, rng: np.random.Generator) -> "ModelParams":
        """Uniform(-sqrt(6/(fan_in+fan_out))) weights, zero biases."""
        shapes = layer_shapes(hidden_dim, input_dim)
        fans = _layer_fans(hidden_dim, input_dim)
        layers = {}
        for name, shape in shapes.items():
            if name in fans:
                fan_in, fan_out = fans[name]
                limit = math.sqrt(6.0 / (fan_in + fan_out))
                layers[name] = rng.uniform(-limit, limit, size=shape)
            else:
                layers[name] = np.zeros(shape)
        return cls(hidden_dim, input_dim, layers)

    def names(self) -> list[str]:
        return list(self.layers)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.layers[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=np.float64)
        if value.shape != self.layers[name].shape:
            raise ValueError(f"layer {name}: expected shape {self.layers[name].shape}, got {value.shape}")
        self.layers[name] = value

    def copy(self) -> "ModelParams":
        return ModelParams(self.hidden_dim, self.input_dim, {n: a.copy() for n, a in self.layers.items()})

    def zeros_like(self) -> "ModelParams":
        return ModelParams.zeros(self.hidden_dim, self.input_dim)

    def congruent(self, other: "ModelParams") -> bool:
        return self.hidden_dim == other.hidden_dim and self.input_dim == other.input_dim

    def all_finite(self) -> bool:
        return all(np.isfinite(a).all() for a in self.layers.values())

    def _check_congruent(self, other: "ModelParams") -> None:
        if not isinstance(other, ModelParams) or not self.congruent(other):
            raise ValueError("parameter collections are not shape-congruent")

    def __add__(self, other: "ModelParams") -> "ModelParams":
        self._check_congruent(other)
        return ModelParams(
            self.hidden_dim, self.input_dim,
            {n: self.layers[n] + other.layers[n] for n in self.layers},
        )

    def __sub__(self, other: "ModelParams") -> "ModelParams":
        self._check_congruent(other)
        return ModelParams(
            self.hidden_dim, self.input_dim,
            {n: self.layers[n] - other.layers[n] for n in self.layers},
        )

    def __mul__(self, scalar: float) -> "ModelParams":
        return ModelParams(
            self.hidden_dim, self.input_dim,
            {n: self.layers[n] * float(scalar) for n in self.layers},
        )

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"ModelParams(hidden_dim={self.hidden_dim}, input_dim={self.input_dim})"


# Gradients share the exact container; the alias records intent at call sites.
Gradients = ModelParams


def params_axpy(a: float, x: ModelParams, y: ModelParams) -> ModelParams:
    """Elementwise a*x + y."""
    x._check_congruent(y)
    return ModelParams(
        x.hidden_dim, x.input_dim,
        {n: float(a) * x.layers[n] + y.layers[n] for n in x.layers},
    )


def params_norm(x: ModelParams, layer: str | None = None) -> float:
    """Euclidean norm of the whole collection or of a single named layer."""
    if layer is not None:
        return float(np.linalg.norm(x.layers[layer]))
    total = 0.0
    for arr in x.layers.values():
        total += float(np.dot(arr.ravel(), arr.ravel()))
    return math.sqrt(total)


def params_dot(x: ModelParams, y: ModelParams) -> float:
    x._check_congruent(y)
    total = 0.0
    for name in x.layers:
        total += float(np.dot(x.layers[name].ravel(), y.layers[name].ravel()))
    return total


def params_cosine(x: ModelParams, y: ModelParams) -> float:
    """Cosine of the flattened parameter vectors; 0.0 when either side is zero."""
    nx = params_norm(x)
    ny = params_norm(y)
    if nx == 0.0 or ny == 0.0:
        return 0.0
    value = params_dot(x, y) / (nx * ny)
    return max(-1.0, min(1.0, value))


def save_params(params: ModelParams, path: str) -> None:
    """Write a flat binary file: one-line magic+version, one-line JSON header, raw float64 data."""
    header = {
        "hidden_dim": params.hidden_dim,
        "input_dim": params.input_dim,
        "layers": [{"name": n, "shape": list(a.shape)} for n, a in params.layers.items()],
    }
    with open(path, "wb") as fh:
        fh.write(f"{FORMAT_MAGIC} {FORMAT_VERSION}\n".encode("ascii"))
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for arr in params.layers.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_params(path: str) -> ModelParams:
    with open(path, "rb") as fh:
        magic_line = fh.readline().decode("ascii", errors="replace").strip()
        parts = magic_line.split()
        if len(parts) != 2 or parts[0] != FORMAT_MAGIC:
            raise ParamFormatError(f"not a parameter file (bad magic line): {path}")
        if parts[1] != str(FORMAT_VERSION):
            raise ParamFormatError(f"unsupported format version {parts[1]!r}, expected {FORMAT_VERSION}")
        try:
            header = json.loads(fh.readline().decode("ascii"))
            k = int(header["hidden_dim"])
            d = int(header["input_dim"])
            entries = header["layers"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ParamFormatError(f"corrupt parameter header in {path}: {exc}") from exc
        layers = {}
        for entry in entries:
            shape = tuple(int(s) for s in entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise ParamFormatError(f"truncated parameter data in {path}")
            layers[entry["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    try:
        return ModelParams(k, d, layers)
    except ValueError as exc:
        raise ParamFormatError(f"inconsistent parameter header in {path}: {exc}") from exc
