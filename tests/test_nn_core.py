import numpy as np
import pytest

from tkgmlp import nn_core
from tkgmlp.nn_core import (
    BatchNormState,
    DegenerateBatchError,
    LinearParams,
    ShapeError,
    as_batch,
    batchnorm_backward,
    batchnorm_forward,
    bce_loss,
    dropout_apply,
    dropout_backward,
    glorot_uniform,
    linear_backward,
    linear_forward,
    sigmoid,
    silu,
    silu_derivative,
)

from .helpers import finite_difference_grad, rel_err, two_branch_sigmoid


class TestBatchValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            as_batch([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_batch([[np.inf, 0.0]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ShapeError):
            as_batch([1.0, 2.0])

    def test_accepts_and_converts(self):
        x = as_batch([[1, 2], [3, 4]])
        assert x.dtype == np.float64
        assert x.shape == (2, 2)


class TestSilu:
    def test_zero(self):
        assert silu(0.0) == 0.0

    def test_at_one(self):
        # 1 * sigma(1), sigma(1) = 1 / (1 + e^-1)
        assert silu(1.0) == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_saturates_to_identity(self):
        assert abs(silu(50.0) - 50.0) < 1e-12

    def test_large_negative_is_stable(self):
        assert silu(-1000.0) == 0.0
        assert np.isfinite(silu_derivative(-1000.0))

    def test_derivative_at_zero(self):
        assert silu_derivative(0.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("x", [-3.0, -1.0, 0.5, 4.0])
    def test_derivative_matches_finite_differences(self, x):
        eps = 1e-6
        fd = (silu(x + eps) - silu(x - eps)) / (2 * eps)
        assert abs(silu_derivative(x) - fd) / max(abs(fd), 1e-12) < 1e-6

    def test_derivative_asymptote(self):
        assert silu_derivative(50.0) == pytest.approx(1.0, abs=1e-12)

    def test_array_input(self):
        x = np.array([[0.0, 1.0], [-1.0, 2.0]])
        out = silu(x)
        assert out.shape == x.shape
        assert out[0, 0] == 0.0

    def test_sigmoid_symmetry(self):
        x = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_given_sigmoid_is_used_bit_for_bit(self):
        x = np.random.default_rng(4).normal(0.0, 6.0, size=(7, 5))
        sig = sigmoid(x)
        assert np.array_equal(silu(x, sig), silu(x))
        assert np.array_equal(silu_derivative(x, sig), silu_derivative(x))
        assert silu(1.5, sigmoid(1.5)) == silu(1.5)
        assert silu_derivative(-2.5, sigmoid(-2.5)) == silu_derivative(-2.5)


# each edge value on both sides of zero, the smallest subnormal included
SIGMOID_EDGES = [s * v for v in (0.0, 5e-324, 1e-310, 36.7, 709.0, 745.0, np.inf) for s in (1.0, -1.0)]


class TestSigmoidOracle:
    """The one-pass sigmoid equals the two-branch formula bit for bit."""

    @pytest.mark.parametrize("x", SIGMOID_EDGES)
    def test_scalar_edges(self, x):
        got = sigmoid(x)
        want = float(two_branch_sigmoid(x))
        assert type(got) is float
        assert got == want and np.signbit(got) == np.signbit(want)

    def test_array_edges_and_random(self):
        rng = np.random.default_rng(6)
        x = np.concatenate([SIGMOID_EDGES, rng.normal(0.0, 20.0, 5000), rng.uniform(-800.0, 800.0, 5000)])
        want = two_branch_sigmoid(x)
        got = sigmoid(x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_shape_kept(self):
        x = np.random.default_rng(7).normal(size=(3, 4, 2))
        assert sigmoid(x).shape == x.shape
        assert np.array_equal(sigmoid(x), two_branch_sigmoid(x))

    def test_nan_propagates(self):
        assert np.isnan(sigmoid(np.nan))


class TestBatchNorm:
    def test_constant_column_maps_to_zero(self):
        s = BatchNormState.create(2)
        x = np.full((5, 2), 3.7)
        y, _ = batchnorm_forward(x, s, train=True)
        np.testing.assert_allclose(y, 0.0, atol=1e-12)

    def test_train_output_moments(self):
        rng = np.random.default_rng(3)
        s = BatchNormState.create(4)
        x = rng.normal(2.0, 5.0, size=(64, 4))
        y, _ = batchnorm_forward(x, s, train=True)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-10)
        v = x.var(axis=0)
        target = v / (v + nn_core.BN_EPSILON)  # epsilon-corrected unit variance
        np.testing.assert_allclose(y.var(axis=0), target, atol=1e-6)

    def test_inference_identity_statistics(self):
        s = BatchNormState.create(3)
        x = np.random.default_rng(0).normal(size=(7, 3))
        y, cache = batchnorm_forward(x, s, train=False)
        # identity up to the 1/sqrt(1 + epsilon) factor
        np.testing.assert_allclose(y, x, rtol=1e-5, atol=1e-8)
        assert cache is None

    def test_single_row_train_rejected(self):
        s = BatchNormState.create(2)
        with pytest.raises(DegenerateBatchError):
            batchnorm_forward(np.ones((1, 2)), s, train=True)

    def test_running_stats_update(self):
        s = BatchNormState.create(1)
        x = np.array([[0.0], [2.0]])
        batchnorm_forward(x, s, train=True)
        assert s.running_mean[0] == pytest.approx(0.1 * 1.0)
        assert s.running_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        s = BatchNormState.create(3)
        s.gamma[...] = rng.normal(size=3)
        s.beta[...] = rng.normal(size=3)
        x = rng.normal(size=(6, 3))
        up = rng.normal(size=(6, 3))

        def loss():
            y, _ = batchnorm_forward(x, s, train=True)
            return float((y * up).sum())

        y, cache = batchnorm_forward(x, s, train=True)
        s.zero_grads()
        dx = batchnorm_backward(up, cache, s)
        assert rel_err(dx, finite_difference_grad(loss, x)) < 1e-4
        assert rel_err(s.grad_gamma, finite_difference_grad(loss, s.gamma)) < 1e-4
        assert rel_err(s.grad_beta, finite_difference_grad(loss, s.beta)) < 1e-4

    def test_backward_requires_train_cache(self):
        s = BatchNormState.create(2)
        with pytest.raises(ValueError):
            batchnorm_backward(np.ones((2, 2)), None, s)

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError, match="running_var"):
            BatchNormState(np.ones(2), np.zeros(2), np.zeros(2), np.array([1.0, -1e-9]))


class TestDropout:
    def test_rate_zero_is_noop(self):
        x = np.random.default_rng(0).normal(size=(4, 5))
        y, mask = dropout_apply(x, 0.0, np.random.default_rng(1), train=True)
        assert y is x and mask is None
        up = np.random.default_rng(2).normal(size=(4, 5))
        assert dropout_backward(up, mask) is up

    def test_inference_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 5))
        y, mask = dropout_apply(x, 0.8, None, train=False)
        assert y is x and mask is None

    def test_expectation_preserved(self):
        x = np.ones((1000, 1000))
        y, _ = dropout_apply(x, 0.5, np.random.default_rng(42), train=True)
        assert 0.99 <= y.mean() <= 1.01

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            dropout_apply(np.ones((2, 2)), 1.0, np.random.default_rng(0), train=True)

    def test_deterministic_given_seed(self):
        x = np.ones((8, 8))
        y1, (keep1, scale1) = dropout_apply(x, 0.3, np.random.default_rng(5), train=True)
        y2, (keep2, scale2) = dropout_apply(x, 0.3, np.random.default_rng(5), train=True)
        assert keep1.dtype == bool and np.array_equal(keep1, keep2)
        assert np.array_equal(y1, y2) and scale1 == scale2 == 1.0 / (1.0 - 0.3)

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 0.7])
    def test_keep_mask_matches_float_multiplier(self, rate):
        # the float multiplier keep / (1 - rate), entry by entry, bit for bit
        rng = np.random.default_rng(8)
        x = rng.normal(size=(64, 16))
        up = rng.normal(size=(64, 16))
        float_mask = (np.random.default_rng(3).random(x.shape) >= rate) / (1.0 - rate)
        y, mask = dropout_apply(x, rate, np.random.default_rng(3), train=True)
        assert np.array_equal(y, x * float_mask)
        assert np.array_equal(np.signbit(y), np.signbit(x * float_mask))
        dx = dropout_backward(up, mask)
        assert np.array_equal(dx, up * float_mask)
        assert np.array_equal(np.signbit(dx), np.signbit(up * float_mask))


class TestLinear:
    def test_identity_weights(self):
        p = LinearParams(weight=np.eye(3), bias=np.zeros(3))
        x = np.random.default_rng(0).normal(size=(4, 3))
        y, _ = linear_forward(x, p)
        assert np.array_equal(y, x)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        p = LinearParams.create(4, 2, rng)
        x = rng.normal(size=(3, 4))
        up = rng.normal(size=(3, 2))

        def loss():
            y, _ = linear_forward(x, p)
            return float((y * up).sum())

        _, cache = linear_forward(x, p)
        p.zero_grads()
        dx = linear_backward(up, cache, p)
        assert rel_err(dx, finite_difference_grad(loss, x)) < 1e-6
        assert rel_err(p.grad_weight, finite_difference_grad(loss, p.weight)) < 1e-6
        assert rel_err(p.grad_bias, finite_difference_grad(loss, p.bias)) < 1e-6

    def test_bias_gradient_is_column_sum(self):
        p = LinearParams.create(3, 2, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(5, 3))
        _, cache = linear_forward(x, p)
        p.zero_grads()
        linear_backward(np.ones((5, 2)), cache, p)
        np.testing.assert_allclose(p.grad_bias, 5.0)

    def test_shape_mismatch(self):
        p = LinearParams.create(3, 2, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            linear_forward(np.zeros((2, 4)), p)


class TestBceLoss:
    def test_perfect_prediction(self):
        labels = np.array([0.0, 1.0, 1.0, 0.0])
        loss, _ = bce_loss(labels.copy(), labels)
        assert loss <= 1e-6

    def test_uniform_half(self):
        probs = np.full(8, 0.5)
        labels = np.array([0, 1, 0, 1, 1, 0, 1, 0], dtype=float)
        loss, _ = bce_loss(probs, labels)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        probs = rng.uniform(0.05, 0.95, size=10)
        labels = (rng.random(10) < 0.5).astype(float)

        def loss():
            return bce_loss(probs, labels)[0]

        _, grad = bce_loss(probs, labels)
        assert rel_err(grad, finite_difference_grad(loss, probs, eps=1e-7)) < 1e-6

    def test_invalid_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            bce_loss(np.array([0.5, 0.5]), np.array([0.0, 2.0]))

    def test_extreme_probs_clamped(self):
        loss, grad = bce_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))


class TestInit:
    def test_deterministic(self):
        w1 = glorot_uniform(np.random.default_rng(9), 10, 20)
        w2 = glorot_uniform(np.random.default_rng(9), 10, 20)
        assert np.array_equal(w1, w2)

    def test_bias_zeros(self):
        p = LinearParams.create(5, 3, np.random.default_rng(0))
        assert np.all(p.bias == 0.0)

    def test_bound(self):
        w = glorot_uniform(np.random.default_rng(1), 100, 100)
        assert np.abs(w).max() <= np.sqrt(6.0 / 200.0)
        assert w.shape == (100, 100)
