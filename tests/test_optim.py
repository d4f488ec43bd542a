import ast
import pathlib

import numpy as np
import pytest

from fedstudent.optim import OptState, optimizer_step
from fedstudent.params import ModelParams


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
