import ast
import json
import pathlib
import pickle

import numpy as np
import pytest

from fedstudent.params import (
    ModelParams,
    ParamFormatError,
    layer_shapes,
    load_params,
    params_axpy,
    params_cosine,
    params_norm,
    save_params,
)


def random_params(k, d, seed):
    rng = np.random.default_rng(seed)
    shapes = layer_shapes(k, d)
    return ModelParams(k, d, {n: rng.normal(size=s) for n, s in shapes.items()})


def test_layer_shapes_match_declared_dimensions():
    p = ModelParams.zeros(4, 10)
    assert p["gru.input_weights"].shape == (12, 10)
    assert p["gru.recurrent_weights"].shape == (12, 4)
    assert p["attn.W_alpha"].shape == (4, 4)
    assert p["attn.p"].shape == (4,)
    assert p["head.W_l"].shape == (4, 2)
    assert p["head.b_l"].shape == (2,)
    assert p["pretrain.W_p"].shape == (4, 10)
    assert p["pretrain.b_p"].shape == (10,)


def test_initialized_weights_bounded_and_biases_zero():
    p = ModelParams.initialized(8, 12, np.random.default_rng(0))
    limit = np.sqrt(6.0 / (12 + 8))
    assert np.abs(p["gru.input_weights"]).max() <= limit
    assert np.all(p["gru.biases"] == 0.0)
    assert np.all(p["head.b_l"] == 0.0)


def test_axpy_identity_when_a_is_zero():
    x = random_params(3, 5, 1)
    y = random_params(3, 5, 2)
    out = params_axpy(0.0, x, y)
    for name in y.names():
        assert np.array_equal(out[name], y[name])


def test_axpy_bilinearity_on_random_instances():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=2)
        x = random_params(3, 5, seed)
        y = random_params(3, 5, seed + 100)
        z = random_params(3, 5, seed + 200)
        left = params_axpy(a + b, x, y)
        right = params_axpy(a, x, params_axpy(b, x, y))
        for name in x.names():
            np.testing.assert_allclose(left[name], right[name], atol=1e-12)
        lhs = params_axpy(a, x + z, y)
        rhs = params_axpy(a, x, params_axpy(a, z, y))
        for name in x.names():
            np.testing.assert_allclose(lhs[name], rhs[name], atol=1e-12)


def test_norm_pythagorean_layer():
    p = ModelParams.zeros(3, 5)
    p["head.b_l"] = np.array([3.0, 4.0])
    assert params_norm(p) == pytest.approx(5.0)


def test_cosine_self_similarity_and_bounds():
    for seed in range(10):
        x = random_params(3, 5, seed)
        y = random_params(3, 5, seed + 50)
        assert params_cosine(x, x) == pytest.approx(1.0)
        assert -1.0 <= params_cosine(x, y) <= 1.0


def test_cosine_of_zero_vector_is_zero():
    x = random_params(3, 5, 0)
    z = ModelParams.zeros(3, 5)
    assert params_cosine(x, z) == 0.0


def test_one_module_builds_a_model_from_layers():
    """Only `params.py` calls `ModelParams(...)`, whose argument is a layer dict: every
    other module builds a model by arithmetic on flat vectors, never layer by layer."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "fedstudent"
    callers = {
        path.name for path in package.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ModelParams"
    }
    assert callers == {"params.py"}


def test_shape_mismatch_rejected():
    x = random_params(3, 5, 0)
    y = random_params(3, 6, 0)
    with pytest.raises(ValueError):
        params_axpy(1.0, x, y)


def test_serialization_round_trip_bit_exact(tmp_path):
    p = random_params(4, 9, 7)
    path = tmp_path / "model.params"
    save_params(p, str(path))
    q = load_params(str(path))
    assert q.hidden_dim == 4 and q.input_dim == 9
    for name in p.names():
        assert np.array_equal(p[name], q[name])


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.params"
    path.write_bytes(b"not a parameter file\n")
    with pytest.raises(ParamFormatError):
        load_params(str(path))


def test_load_rejects_wrong_version(tmp_path):
    p = random_params(2, 4, 0)
    path = tmp_path / "model.params"
    save_params(p, str(path))
    data = path.read_bytes().replace(b"fedstudent-params 1", b"fedstudent-params 9", 1)
    path.write_bytes(data)
    with pytest.raises(ParamFormatError, match="version"):
        load_params(str(path))


def test_load_rejects_truncated_payload(tmp_path):
    p = random_params(2, 4, 0)
    path = tmp_path / "model.params"
    save_params(p, str(path))
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ParamFormatError, match="truncated"):
        load_params(str(path))


def rewrite_header(path, change):
    """Rewrite the JSON header line of the parameter file at `path` by `change(header)`."""
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    change(header)
    path.write_bytes(magic + b"\n" + json.dumps(header).encode("ascii") + b"\n" + payload)


def set_first_shape(value):
    def change(header):
        header["layers"][0]["shape"] = value
    return change


# Header faults that each escaped load_params as a KeyError, ValueError, TypeError,
# a negative read length or a MemoryError.
@pytest.mark.parametrize("change, message", [
    (lambda header: header["layers"][0].pop("shape"), "corrupt parameter header"),
    (set_first_shape("ab"), "corrupt parameter header"),
    (set_first_shape("12"), "corrupt parameter header"),
    (lambda header: header.update(layers=3), "corrupt parameter header"),
    (lambda header: header.update(layers=[3]), "corrupt parameter header"),
    (lambda header: header.update(hidden_dim=float("inf")), "corrupt parameter header"),
    (set_first_shape([-1]), "corrupt parameter header"),
    (set_first_shape([2.0, 4]), "corrupt parameter header"),
    (set_first_shape([10**9, 10**9]), "truncated parameter data"),
    (set_first_shape([4, 6]), "inconsistent parameter header"),
], ids=["no_shape", "shape_string", "shape_digits", "layers_int", "entry_int", "dim_inf",
        "shape_negative", "shape_float", "shape_huge", "shape_wrong"])
def test_load_rejects_bad_header_naming_path(tmp_path, change, message):
    path = tmp_path / "model.params"
    save_params(random_params(2, 4, 0), str(path))
    rewrite_header(path, change)
    with pytest.raises(ParamFormatError, match=message) as info:
        load_params(str(path))
    assert str(path) in str(info.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_weight_naming_layer(tmp_path, value):
    p = random_params(2, 4, 0)
    p["attn.p"][1] = value
    path = tmp_path / "model.params"
    save_params(p, str(path))
    with pytest.raises(ParamFormatError, match="non-finite weight in layer attn.p") as info:
        load_params(str(path))
    assert str(path) in str(info.value)


def test_load_rejects_bytes_after_the_last_layer(tmp_path):
    path = tmp_path / "model.params"
    save_params(random_params(2, 4, 0), str(path))
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(ParamFormatError, match="8 bytes after the last layer") as info:
        load_params(str(path))
    assert str(path) in str(info.value)


class TestFlatBuffer:
    """Every model keeps its layers in one contiguous vector, `flat`, in `layer_shapes` order."""

    def models(self):
        x = random_params(3, 5, 0)
        y = random_params(3, 5, 1)
        return {"built": x, "copy": x.copy(), "zeros_like": x.zeros_like(), "sum": x + y,
                "difference": x - y, "scaled": 2.0 * x, "axpy": params_axpy(0.5, x, y),
                "zeros": ModelParams.zeros(3, 5), "initialized": ModelParams.initialized(3, 5, np.random.default_rng(0))}

    def test_each_layer_is_a_view_of_flat_in_layer_order(self):
        shapes = layer_shapes(3, 5)
        for label, p in self.models().items():
            assert p.flat.dtype == np.float64 and p.flat.flags.c_contiguous, label
            assert p.flat.size == sum(int(np.prod(s)) for s in shapes.values()), label
            start = 0
            for name, shape in shapes.items():
                size = int(np.prod(shape))
                assert p[name].shape == shape, (label, name)
                assert np.shares_memory(p[name], p.flat), (label, name)
                assert p[name].tobytes() == p.flat[start:start + size].tobytes(), (label, name)
                start += size

    def test_setitem_writes_through_and_keeps_the_view(self):
        p = random_params(3, 5, 2)
        view = p["attn.W_alpha"]
        before = p.flat.copy()
        p["attn.W_alpha"] = np.arange(9.0).reshape(3, 3)
        assert p["attn.W_alpha"] is view
        np.testing.assert_array_equal(view, np.arange(9.0).reshape(3, 3))
        start = 45 + 27 + 9   # after the (9, 5), (9, 3) and (9,) GRU layers
        np.testing.assert_array_equal(p.flat[start:start + 9], np.arange(9.0))
        changed = np.flatnonzero(p.flat != before)
        assert changed.min() >= start and changed.max() < start + 9

    def test_setitem_copies_the_value(self):
        p = ModelParams.zeros(3, 5)
        value = np.ones(2)
        p["head.b_l"] = value
        value[0] = 7.0
        np.testing.assert_array_equal(p["head.b_l"], [1.0, 1.0])

    def test_setitem_rejects_wrong_shape_and_leaves_flat_unchanged(self):
        p = random_params(3, 5, 3)
        before = p.flat.copy()
        with pytest.raises(ValueError, match=r"layer head.b_l: expected shape \(2,\), got \(3,\)"):
            p["head.b_l"] = np.zeros(3)
        with pytest.raises(ValueError, match="expected shape"):
            p["attn.W_alpha"] = np.zeros(9)   # same size, wrong shape
        assert p.flat.tobytes() == before.tobytes()

    def test_copy_shares_no_memory(self):
        p = random_params(3, 5, 4)
        q = p.copy()
        assert not np.shares_memory(p.flat, q.flat)
        q["gru.biases"] = np.full(9, 5.0)
        assert not np.any(p["gru.biases"] == 5.0)

    def test_built_model_does_not_alias_the_callers_arrays(self):
        rng = np.random.default_rng(5)
        layers = {n: rng.normal(size=s) for n, s in layer_shapes(3, 5).items()}
        p = ModelParams(3, 5, layers)
        for name, arr in layers.items():
            assert not np.shares_memory(arr, p.flat), name
            assert np.array_equal(arr, p[name]), name
        layers["attn.p"][:] = 9.0
        assert not np.any(p["attn.p"] == 9.0)

    def test_arithmetic_leaves_its_operands_unchanged(self):
        x = random_params(3, 5, 6)
        y = random_params(3, 5, 7)
        before = (x.flat.tobytes(), y.flat.tobytes())
        for out in (x + y, x - y, x * 3.0, params_axpy(2.0, x, y)):
            assert not np.shares_memory(out.flat, x.flat) and not np.shares_memory(out.flat, y.flat)
        assert (x.flat.tobytes(), y.flat.tobytes()) == before

    def test_all_finite_sees_every_layer(self):
        for name, shape in layer_shapes(3, 5).items():
            p = random_params(3, 5, 8)
            assert p.all_finite()
            p[name].flat[-1] = np.nan
            assert not p.all_finite(), name

    def test_pickled_model_keeps_its_views(self):
        p = random_params(3, 5, 10)
        q = pickle.loads(pickle.dumps(p))
        assert q.flat.tobytes() == p.flat.tobytes() and (q.hidden_dim, q.input_dim) == (3, 5)
        for name in q.names():
            assert np.shares_memory(q[name], q.flat), name
        q["head.b_l"] = np.array([4.0, 5.0])
        assert q.flat[-22:-20].tolist() == [4.0, 5.0]   # before the (3, 5) and (5,) pretraining layers

    def test_save_writes_layers_in_order(self, tmp_path):
        p = random_params(3, 5, 9)
        path = tmp_path / "model.params"
        save_params(p, str(path))
        payload = path.read_bytes().split(b"\n", 2)[2]
        assert payload == b"".join(p[name].astype("<f8").tobytes() for name in p.names())
