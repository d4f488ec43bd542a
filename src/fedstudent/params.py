"""Named-layer parameter collections with vector algebra and binary serialization.

The same container is used for model parameters and for gradients: both are
ordered collections of float64 arrays with identical names and shapes. Each
collection keeps its layers in one contiguous float64 vector, `flat`, in
`layer_shapes` order, and every named layer is a view into it, so aggregation
rules and optimizer updates treat a model as one vector.
"""

from __future__ import annotations

import functools
import json
import math
import os

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


@functools.lru_cache(maxsize=8)
def _layout(hidden_dim: int, input_dim: int) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
    """(name, start, stop, shape) of every layer's span of the flat vector."""
    spans, start = [], 0
    for name, shape in layer_shapes(hidden_dim, input_dim).items():
        spans.append((name, start, start + math.prod(shape), shape))
        start += math.prod(shape)
    return tuple(spans)


class ModelParams:
    """Ordered named layers of float64 arrays, held in one contiguous vector.

    `flat` holds every layer in `layer_shapes` order, and each named layer is
    a reshaped view into it. The constructor copies the given arrays into a
    new vector, so a model never aliases its caller's arrays. Assigning a
    layer writes the values into the vector; it never rebinds the layer.

    Supports elementwise arithmetic (`+`, `-`, scalar `*`), each one operation
    on `flat`, so that update and aggregation rules read like the vector
    expressions they implement.
    """

    __slots__ = ("hidden_dim", "input_dim", "flat", "layers")

    def __init__(self, hidden_dim: int, input_dim: int, layers: dict[str, np.ndarray]):
        expected = layer_shapes(hidden_dim, input_dim)
        if set(layers) != set(expected):
            missing = sorted(set(expected) - set(layers))
            extra = sorted(set(layers) - set(expected))
            raise ValueError(f"layer name mismatch: missing={missing} extra={extra}")
        self._bind(hidden_dim, input_dim, np.empty(_layout(hidden_dim, input_dim)[-1][2]))
        for name in expected:
            self[name] = layers[name]

    def _bind(self, hidden_dim: int, input_dim: int, flat: np.ndarray) -> None:
        self.hidden_dim = hidden_dim
        self.input_dim = input_dim
        self.flat = flat
        self.layers: dict[str, np.ndarray] = {
            name: flat[start:stop].reshape(shape) for name, start, stop, shape in _layout(hidden_dim, input_dim)}

    # Pickle the vector alone, so that a model sent to a worker process keeps its views.
    def __getstate__(self) -> tuple[int, int, np.ndarray]:
        return self.hidden_dim, self.input_dim, self.flat

    def __setstate__(self, state: tuple[int, int, np.ndarray]) -> None:
        self._bind(*state)

    def _with_flat(self, flat: np.ndarray) -> "ModelParams":
        """A model of these dimensions over the float64 vector `flat` itself, not a copy."""
        params = object.__new__(ModelParams)
        params._bind(self.hidden_dim, self.input_dim, flat)
        return params

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
        layer = self.layers[name]
        value = np.asarray(value, dtype=np.float64)
        if value.shape != layer.shape:
            raise ValueError(f"layer {name}: expected shape {layer.shape}, got {value.shape}")
        layer[...] = value

    def copy(self) -> "ModelParams":
        return self._with_flat(self.flat.copy())

    def zeros_like(self) -> "ModelParams":
        return self._with_flat(np.zeros_like(self.flat))

    def congruent(self, other: "ModelParams") -> bool:
        return self.hidden_dim == other.hidden_dim and self.input_dim == other.input_dim

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())

    def _check_congruent(self, other: "ModelParams") -> None:
        if not isinstance(other, ModelParams) or not self.congruent(other):
            raise ValueError("parameter collections are not shape-congruent")

    def __add__(self, other: "ModelParams") -> "ModelParams":
        self._check_congruent(other)
        return self._with_flat(self.flat + other.flat)

    def __sub__(self, other: "ModelParams") -> "ModelParams":
        self._check_congruent(other)
        return self._with_flat(self.flat - other.flat)

    def __mul__(self, scalar: float) -> "ModelParams":
        return self._with_flat(self.flat * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"ModelParams(hidden_dim={self.hidden_dim}, input_dim={self.input_dim})"


# Gradients share the exact container; the alias records intent at call sites.
Gradients = ModelParams


def params_axpy(a: float, x: ModelParams, y: ModelParams) -> ModelParams:
    """Elementwise a*x + y."""
    x._check_congruent(y)
    return x._with_flat(float(a) * x.flat + y.flat)


def params_norm(x: ModelParams) -> float:
    """Euclidean norm of the whole collection, added layer by layer."""
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
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


def load_params(path: str) -> ModelParams:
    """Read a `save_params` file. Any fault raises `ParamFormatError` naming `path`: the
    magic line or version, a header entry, layer sizes other than the bytes that follow
    the header, a shape other than the model's, or a weight that is not finite."""
    with open(path, "rb") as fh:
        magic_line = fh.readline().decode("ascii", errors="replace").strip()
        parts = magic_line.split()
        if len(parts) != 2 or parts[0] != FORMAT_MAGIC:
            raise ParamFormatError(f"not a parameter file (bad magic line): {path}")
        if parts[1] != str(FORMAT_VERSION):
            raise ParamFormatError(
                f"unsupported format version {parts[1]!r} in {path}, expected {FORMAT_VERSION}")
        try:
            header = json.loads(fh.readline().decode("ascii"))
            k = int(header["hidden_dim"])
            d = int(header["input_dim"])
            entries = [(str(entry["name"]), entry["shape"]) for entry in header["layers"]]
            for name, shape in entries:
                if not (isinstance(shape, list) and all(type(s) is int and s >= 0 for s in shape)):
                    raise ValueError(f"layer {name}: shape must be a list of non-negative "
                                     f"integers, got {shape!r}")
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ParamFormatError(f"corrupt parameter header in {path}: {exc}") from exc
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        layers = {}
        for name, shape in entries:
            size = 8 * math.prod(shape)
            if size > left:
                raise ParamFormatError(
                    f"truncated parameter data in {path}: layer {name} needs {size} bytes, {left} left")
            left -= size
            layers[name] = np.frombuffer(fh.read(size), dtype="<f8").reshape(shape)
            if not np.isfinite(layers[name]).all():
                raise ParamFormatError(f"non-finite weight in layer {name} of {path}")
        if left:
            raise ParamFormatError(f"{left} bytes after the last layer in {path}")
    try:
        return ModelParams(k, d, layers)
    except ValueError as exc:
        raise ParamFormatError(f"inconsistent parameter header in {path}: {exc}") from exc
