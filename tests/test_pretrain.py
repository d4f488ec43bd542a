import numpy as np
import pytest

from fedstudent.optim import OptState
from fedstudent.params import ModelParams, layer_shapes
from fedstudent.pretrain import (
    make_cbow_instances,
    run_pretraining,
    transfer_weights,
)


def random_params(k, d, seed):
    rng = np.random.default_rng(seed)
    shapes = layer_shapes(k, d)
    return ModelParams(k, d, {n: 0.3 * rng.normal(size=s) for n, s in shapes.items()})


def random_sequence(L, d, seed):
    rng = np.random.default_rng(seed)
    n = d - 7
    X = np.zeros((L, d))
    for t in range(L):
        if rng.random() < 0.6:
            X[t, rng.integers(0, n)] = 1.0
            X[t, n + rng.integers(0, 4)] = 1.0
        else:
            X[t, n + 4 + rng.integers(0, 3)] = 1.0
    return X


class TestMakeCbowInstances:
    def test_one_instance_per_position(self):
        X = random_sequence(4, 10, 0)
        instances = make_cbow_instances(X)
        assert len(instances) == 4
        for t, inst in enumerate(instances):
            masked = inst.masked_matrix()
            assert np.all(masked[t] == 0.0)
            others = [s for s in range(4) if s != t]
            assert np.array_equal(masked[others], X[others])

    def test_short_sequence_yields_nothing(self):
        assert make_cbow_instances(random_sequence(1, 10, 1)) == []

    def test_one_byte_source_gives_a_float64_target(self):
        X = random_sequence(3, 10, 3).astype(np.uint8)
        inst = make_cbow_instances(X)[2]
        assert inst.target.dtype == np.float64
        assert np.array_equal(inst.target, X[2])
        assert inst.masked_matrix().dtype == np.uint8
        assert not np.shares_memory(inst.target, X)

    def test_target_is_original_vector(self):
        X = random_sequence(3, 10, 2)
        inst = make_cbow_instances(X)[1]
        assert np.array_equal(inst.target, X[1])
        assert np.all(inst.masked_matrix()[1] == 0.0)


class TestPretrainEpoch:
    def test_zero_model_loss_matches_closed_form(self):
        # Uniform prediction over d slots against a two-hot target.
        d = 12
        params = ModelParams.zeros(3, d)
        X = np.zeros((3, d))
        X[:, 0] = 1.0
        X[:, d - 7 + 1] = 1.0  # two set bits per row
        opt = OptState(kind="sgd", lr=0.0)
        _, (loss,) = run_pretraining(params, [X], epochs=1, opt=opt, seed=0)
        m = 2
        expected = (m * (1 - 1 / d) ** 2 + (d - m) * (1 / d) ** 2) / d
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_loss_nonnegative(self):
        params = random_params(3, 10, 3)
        opt = OptState(kind="sgd", lr=0.1)
        _, (loss,) = run_pretraining(params, [random_sequence(6, 10, 4)], epochs=1, opt=opt, seed=0)
        assert loss >= 0.0

    def test_zero_lr_loss_constant_across_epochs(self):
        params = random_params(3, 10, 5)
        sequences = [random_sequence(5, 10, s) for s in range(4)]
        opt = OptState(kind="sgd", lr=0.0)
        _, losses = run_pretraining(params, sequences, epochs=3, opt=opt, seed=0)
        assert losses[0] == pytest.approx(losses[1], rel=1e-12)
        assert losses[1] == pytest.approx(losses[2], rel=1e-12)

    def test_training_reduces_loss(self):
        params = random_params(4, 10, 6)
        sequences = [random_sequence(8, 10, s) for s in range(10)]
        opt = OptState(kind="adam", lr=5e-3, decay=0.0)
        _, losses = run_pretraining(params, sequences, epochs=5, opt=opt, seed=1)
        assert losses[-1] < losses[0]

    def test_no_instances_leave_model_unchanged(self):
        params = random_params(3, 10, 12)
        sequences = [random_sequence(1, 10, s) for s in range(3)]
        opt = OptState(kind="adam", lr=5e-3, decay=0.0)
        model, losses = run_pretraining(params, sequences, epochs=2, opt=opt, seed=0)
        assert losses == [0.0, 0.0]
        for name in params.names():
            assert np.array_equal(model[name], params[name])


class TestTransferWeights:
    def test_encoder_layers_come_from_pretrained(self):
        pre = random_params(3, 10, 7)
        fresh = random_params(3, 10, 8)
        out = transfer_weights(pre, fresh)
        for name in ("gru.input_weights", "gru.recurrent_weights", "gru.biases",
                     "attn.W_alpha", "attn.p"):
            assert np.array_equal(out[name], pre[name])

    def test_heads_come_from_fresh(self):
        pre = random_params(3, 10, 9)
        fresh = random_params(3, 10, 10)
        out = transfer_weights(pre, fresh)
        assert np.array_equal(out["head.W_l"], fresh["head.W_l"])
        assert np.array_equal(out["head.b_l"], fresh["head.b_l"])

    def test_self_transfer_is_identity_on_shared_layers(self):
        p = random_params(3, 10, 11)
        out = transfer_weights(p, p)
        for name in p.names():
            assert np.array_equal(out[name], p[name])

    def test_result_shares_no_memory_with_either_model(self):
        pre = random_params(3, 10, 12)
        fresh = random_params(3, 10, 13)
        out = transfer_weights(pre, fresh)
        assert not np.shares_memory(out.flat, pre.flat)
        assert not np.shares_memory(out.flat, fresh.flat)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            transfer_weights(random_params(3, 10, 0), random_params(4, 10, 0))
