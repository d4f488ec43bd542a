import ast
import pathlib
import re

import numpy as np
import pytest

from fedstudent.optim import OptState, optimizer_step
from fedstudent.params import ModelParams
from reference import optim_v0


def unit_params(value=0.0):
    p = ModelParams.zeros(2, 9)
    p["head.b_l"] = np.array([value, 0.0])
    return p


def unit_grads(value):
    g = ModelParams.zeros(2, 9)
    g["head.b_l"] = np.array([value, 0.0])
    return g


def test_sgd_single_step():
    opt = OptState(kind="sgd", lr=0.1, decay=0.0)
    out = optimizer_step(unit_params(1.0), unit_grads(2.0), opt)
    assert out["head.b_l"][0] == pytest.approx(0.8)


def test_sgd_epoch_decay():
    opt = OptState(kind="sgd", lr=0.1, decay=0.5)
    opt.epoch = 2
    out = optimizer_step(unit_params(1.0), unit_grads(1.0), opt)
    # effective lr = 0.1 / (1 + 0.5*2) = 0.05
    assert out["head.b_l"][0] == pytest.approx(0.95)


def test_zero_gradient_leaves_parameters_unchanged():
    for kind in ("sgd", "adam"):
        opt = OptState(kind=kind, lr=0.1, decay=0.0)
        p = unit_params(1.0)
        out = optimizer_step(p, ModelParams.zeros(2, 9), opt)
        for name in p.names():
            np.testing.assert_array_equal(out[name], p[name])


def test_adam_first_step_is_bias_corrected_unit_move():
    opt = OptState(kind="adam", lr=1e-3, decay=0.0)
    out = optimizer_step(unit_params(0.0), unit_grads(1.0), opt)
    assert out["head.b_l"][0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_moments_persist_across_steps():
    opt = OptState(kind="adam", lr=1e-3, decay=0.0)
    p = unit_params(0.0)
    p = optimizer_step(p, unit_grads(1.0), opt)
    p = optimizer_step(p, unit_grads(1.0), opt)
    assert opt.step == 2
    assert opt.m is not None
    assert p["head.b_l"][0] < -1.5e-3


def test_non_finite_gradient_rejected():
    opt = OptState(kind="sgd", lr=0.1)
    with pytest.raises(ValueError, match="non-finite"):
        optimizer_step(unit_params(0.0), unit_grads(float("nan")), opt)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        OptState(kind="rmsprop")


def test_only_the_epoch_loop_steps_an_optimizer():
    """Every kind of training goes through `run_epoch`, so no second batch loop comes back."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "fedstudent"
    for path in package.rglob("*.py"):
        if path.stem not in ("optim", "__init__"):
            assert "optimizer_step" not in path.read_text(encoding="utf-8"), path
    tree = ast.parse((package / "optim.py").read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "optimizer_step"]
    loop = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "run_epoch")
    assert len(calls) == 1 and loop.lineno <= calls[0] <= loop.end_lineno


def random_grads(rng, k, d):
    """Normal gradients at a random scale, with some exact zeros."""
    g = ModelParams.zeros(k, d)
    for name in g.names():
        values = rng.normal(size=g[name].shape) * 10.0 ** rng.uniform(-4, 2)
        values[rng.random(values.shape) < 0.1] = 0.0
        g[name] = values
    return g


def layer_bytes(params):
    """Every layer's bytes in layer order, read layer by layer."""
    return b"".join(params[name].tobytes() for name in params.names())


@pytest.mark.parametrize("kind, decay", [("sgd", 0.0), ("sgd", 0.3), ("adam", 0.0), ("adam", 0.05)])
def test_flat_step_matches_per_layer_oracle_bit_for_bit(kind, decay):
    """200 random steps of the flat update against the per-layer step it replaced,
    with the epoch advanced every 25 steps: parameters and Adam moments agree to the bit."""
    rng = np.random.default_rng(17)
    opt = OptState(kind=kind, lr=0.01, decay=decay)
    ref_opt = optim_v0.OptState(kind=kind, lr=0.01, decay=decay)
    params = ref = ModelParams.initialized(5, 7, rng)
    for step in range(200):
        grads = random_grads(rng, 5, 7)
        params = optimizer_step(params, grads, opt)
        ref = optim_v0.optimizer_step(ref, grads, ref_opt)
        assert params.flat.tobytes() == layer_bytes(ref), step
        if step % 25 == 24:
            opt.epoch += 1
            ref_opt.epoch += 1
    assert (opt.step, opt.epoch) == (ref_opt.step, ref_opt.epoch) == (200, 8)
    if kind == "adam":
        assert opt.m.tobytes() == layer_bytes(ref_opt.m)
        assert opt.v.tobytes() == layer_bytes(ref_opt.v)
    else:
        assert opt.m is None and opt.v is None


def test_adam_moments_are_flat_vectors():
    opt = OptState(kind="adam", lr=1e-3, decay=0.0)
    p = unit_params(0.0)
    optimizer_step(p, unit_grads(1.0), opt)
    assert opt.m.shape == opt.v.shape == p.flat.shape


def test_non_finite_gradient_error_names_the_bad_layers_and_takes_no_step():
    opt = OptState(kind="adam", lr=0.1)
    grads = ModelParams.zeros(2, 9)
    grads["attn.p"] = np.array([float("nan"), 0.0])
    grads["pretrain.b_p"][3] = float("inf")
    with pytest.raises(ValueError, match=re.escape("layers: ['attn.p', 'pretrain.b_p']")):
        optimizer_step(unit_params(0.0), grads, opt)
    assert opt.step == 0 and opt.m is None
