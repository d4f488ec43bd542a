import json

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
    assert params_norm(p, "head.b_l") == pytest.approx(5.0)
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
