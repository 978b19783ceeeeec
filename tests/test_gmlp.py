import numpy as np
import pytest

from tkgmlp.gmlp import (
    GmlpBlockParams,
    gmlp_block_backward,
    gmlp_block_forward,
    swiglu,
    swiglu_backward,
)
from tkgmlp.nn_core import BN_EPSILON, LinearParams, ShapeError, silu

from .helpers import finite_difference_grad, rel_err


def make_block(in_dim=3, hidden_dim=4, dropout=0.0, seed=0):
    return GmlpBlockParams.create(in_dim, hidden_dim, dropout, np.random.default_rng(seed))


class TestSwiglu:
    def test_zero_input_zero_bias(self):
        p = make_block()
        p.gate.bias[...] = 0.0
        p.value.bias[...] = 0.0
        y, _ = swiglu(np.zeros((5, 3)), p)
        assert np.all(y == 0.0)

    def test_scalar_identity_maps(self):
        p = make_block(in_dim=1, hidden_dim=1)
        p.gate.weight[...] = 1.0
        p.value.weight[...] = 1.0
        p.gate.bias[...] = 0.0
        p.value.bias[...] = 0.0
        y, _ = swiglu(np.array([[1.0]]), p)
        assert y[0, 0] == pytest.approx(0.7310586, abs=1e-7)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        p = make_block()
        x = rng.normal(size=(6, 3))
        up = rng.normal(size=(6, 4))

        def loss():
            y, _ = swiglu(x, p)
            return float((y * up).sum())

        _, cache = swiglu(x, p)
        p.zero_grads()
        dx = swiglu_backward(up, cache, p)
        assert rel_err(dx, finite_difference_grad(loss, x)) < 1e-5
        for arr, grad in (
            (p.gate.weight, p.gate.grad_weight),
            (p.gate.bias, p.gate.grad_bias),
            (p.value.weight, p.value.grad_weight),
            (p.value.bias, p.value.grad_bias),
        ):
            assert rel_err(grad, finite_difference_grad(loss, arr)) < 1e-5

    def test_branches_compose(self):
        p = make_block()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3))
        y, _ = swiglu(x, p)
        gate = silu(x @ p.gate.weight + p.gate.bias)
        value = x @ p.value.weight + p.value.bias
        np.testing.assert_allclose(y, gate * value, atol=1e-15)


class TestBlock:
    def test_inference_identity_composition(self):
        # running stats at identity, V = U = I, zero bias, no dropout
        p = make_block(in_dim=3, hidden_dim=3)
        p.gate.weight[...] = np.eye(3)
        p.value.weight[...] = np.eye(3)
        p.gate.bias[...] = 0.0
        p.value.bias[...] = 0.0
        x = np.random.default_rng(0).normal(size=(5, 3))
        y, _ = gmlp_block_forward(x, p, train=False)
        scaled = x / np.sqrt(1.0 + BN_EPSILON)
        np.testing.assert_allclose(y, silu(scaled) * scaled, atol=1e-12)

    def test_constant_input_in_train_mode(self):
        p = make_block()
        x = np.full((6, 3), 2.5)
        y, _ = gmlp_block_forward(x, p, train=True, rng=np.random.default_rng(0))
        expected = silu(p.gate.bias) * p.value.bias
        np.testing.assert_allclose(y, np.tile(expected, (6, 1)), atol=1e-12)

    def test_output_dim_is_hidden(self):
        p = make_block(in_dim=3, hidden_dim=7)
        y, _ = gmlp_block_forward(np.zeros((4, 3)), p, train=False)
        assert y.shape == (4, 7)

    def test_full_block_gradients_frozen_mask(self):
        rng = np.random.default_rng(9)
        p = make_block(dropout=0.4)
        x = rng.normal(size=(8, 3))
        up = rng.normal(size=(8, 4))

        def loss():
            y, _ = gmlp_block_forward(x, p, train=True, rng=np.random.default_rng(77))
            return float((y * up).sum())

        _, cache = gmlp_block_forward(x, p, train=True, rng=np.random.default_rng(77))
        p.zero_grads()
        dx = gmlp_block_backward(up, cache, p)
        assert rel_err(dx, finite_difference_grad(loss, x)) < 1e-4
        for arr, grad in (
            (p.bn.gamma, p.bn.grad_gamma),
            (p.bn.beta, p.bn.grad_beta),
            (p.gate.weight, p.gate.grad_weight),
            (p.value.weight, p.value.grad_weight),
            (p.gate.bias, p.gate.grad_bias),
            (p.value.bias, p.value.grad_bias),
        ):
            assert rel_err(grad, finite_difference_grad(loss, arr)) < 1e-4

    def test_zero_upstream_zero_gradients(self):
        p = make_block(dropout=0.2)
        x = np.random.default_rng(0).normal(size=(5, 3))
        _, cache = gmlp_block_forward(x, p, train=True, rng=np.random.default_rng(1))
        p.zero_grads()
        gmlp_block_backward(np.zeros((5, 4)), cache, p)
        for _, grad in [(None, p.bn.grad_gamma), (None, p.gate.grad_weight), (None, p.value.grad_weight)]:
            assert np.all(grad == 0.0)

    def test_masked_positions_block_gradient(self):
        p = make_block(dropout=0.5)
        x = np.random.default_rng(0).normal(size=(6, 3))
        _, cache = gmlp_block_forward(x, p, train=True, rng=np.random.default_rng(2))
        keep, _ = cache[2]
        up = np.ones((6, 4))
        dropped = ~keep
        assert dropped.any()
        # gradient of the dropped outputs w.r.t. anything upstream is zero:
        # feeding upstream supported only on dropped positions changes nothing
        p.zero_grads()
        gmlp_block_backward(np.where(dropped, up, 0.0), cache, p)
        assert np.all(p.gate.grad_weight == 0.0)
        assert np.all(p.value.grad_weight == 0.0)

    def test_branch_width_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError):
            GmlpBlockParams(
                bn=make_block().bn,
                gate=LinearParams.create(3, 4, rng),
                value=LinearParams.create(3, 5, rng),
            )
