import numpy as np
import pytest

from tkgmlp import kan as kan_module
from tkgmlp import nn_core
from tkgmlp.kan import KanLayerParams, kan_backward, kan_forward, kan_init
from tkgmlp.nn_core import ShapeError, silu
from tkgmlp.spline import build_knots

from .helpers import finite_difference_grad, rel_err, unblocked_kan_backward


def make_layer(in_dim=4, out_dim=3, grid_size=5, degree=3, seed=0):
    return kan_init(in_dim, out_dim, grid_size, degree, (-1.0, 1.0), np.random.default_rng(seed))


class TestForward:
    def test_zero_coeffs_reduces_to_silu_linear(self):
        p = make_layer()
        p.coeffs[...] = 0.0
        x = np.random.default_rng(1).uniform(-2, 2, (6, 4))
        y, _ = kan_forward(x, p)
        linear = nn_core.LinearParams(weight=p.base_weight.T.copy(), bias=np.zeros(3))
        expected, _ = nn_core.linear_forward(silu(x), linear)
        np.testing.assert_allclose(y, expected, atol=1e-14)

    def test_partition_of_unity_constant_spline(self):
        # single edge, w_b = 0, w_s = 1, every coefficient kappa: spline sum is kappa
        kappa = 0.73
        p = make_layer(in_dim=1, out_dim=1)
        p.base_weight[...] = 0.0
        p.spline_weight[...] = 1.0
        p.coeffs[...] = kappa
        x = np.linspace(-0.95, 0.95, 21)[:, None]
        y, _ = kan_forward(x, p)
        np.testing.assert_allclose(y, kappa, atol=1e-12)

    def test_shape_mismatch(self):
        p = make_layer(in_dim=4)
        with pytest.raises(ShapeError):
            kan_forward(np.zeros((2, 5)), p)

    def test_batch_independence(self):
        p = make_layer()
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (6, 4))
        y, _ = kan_forward(x, p)
        x2 = x.copy()
        x2[3] = rng.uniform(-1, 1, 4)
        y2, _ = kan_forward(x2, p)
        assert np.array_equal(y[:3], y2[:3]) and np.array_equal(y[4:], y2[4:])
        assert not np.array_equal(y[3], y2[3])

    def test_outside_support_with_zero_base(self):
        p = make_layer()
        p.base_weight[...] = 0.0
        x = np.full((3, 4), 10.0)  # beyond the extended knots
        y, _ = kan_forward(x, p)
        assert np.all(y == 0.0)

    def test_inference_matches_train_and_keeps_nothing(self, monkeypatch):
        p = make_layer()
        x = np.random.default_rng(6).uniform(-2.5, 2.5, (7, 4))
        y_train, cache = kan_forward(x, p, train=True)
        x_cached, sig, basis, dbasis, _ = cache
        assert x_cached is x and np.array_equal(sig, nn_core.sigmoid(x))
        assert basis.shape == dbasis.shape == (7, 4, p.kv.n_basis)

        asked = []
        basis_matrix = kan_module.basis_matrix

        def spy(u, kv, with_derivative=False):
            asked.append(with_derivative)
            return basis_matrix(u, kv, with_derivative)

        monkeypatch.setattr(kan_module, "basis_matrix", spy)
        y_infer, none = kan_forward(x, p, train=False)
        assert none is None and asked == [False]
        assert np.array_equal(y_infer, y_train)

    def test_linearity_in_coeffs(self):
        p = make_layer()
        p.base_weight[...] = 0.0
        x = np.random.default_rng(2).uniform(-1, 1, (5, 4))
        y1, _ = kan_forward(x, p)
        p.coeffs[...] *= 2.0
        y2, _ = kan_forward(x, p)
        assert np.array_equal(y2, 2.0 * y1)


class TestBackward:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        p = make_layer(seed=seed)
        x = rng.uniform(-1.5, 1.5, (8, 4))
        up = rng.normal(size=(8, 3))

        def loss():
            y, _ = kan_forward(x, p)
            return float((y * up).sum())

        _, cache = kan_forward(x, p)
        p.zero_grads()
        dx = kan_backward(up, cache, p)
        assert rel_err(dx, finite_difference_grad(loss, x)) < 1e-4
        assert rel_err(p.grad_base_weight, finite_difference_grad(loss, p.base_weight)) < 1e-4
        assert rel_err(p.grad_spline_weight, finite_difference_grad(loss, p.spline_weight)) < 1e-4
        assert rel_err(p.grad_coeffs, finite_difference_grad(loss, p.coeffs)) < 1e-4

    def test_zero_upstream_zero_gradients(self):
        p = make_layer()
        x = np.random.default_rng(0).uniform(-1, 1, (5, 4))
        _, cache = kan_forward(x, p)
        p.zero_grads()
        dx = kan_backward(np.zeros((5, 3)), cache, p)
        assert np.all(dx == 0.0)
        assert np.all(p.grad_coeffs == 0.0)
        assert np.all(p.grad_base_weight == 0.0)
        assert np.all(p.grad_spline_weight == 0.0)

    def test_zero_coeff_gradient_matches_silu_linear(self):
        p = make_layer()
        p.coeffs[...] = 0.0
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (5, 4))
        up = rng.normal(size=(5, 3))
        _, cache = kan_forward(x, p)
        p.zero_grads()
        dx = kan_backward(up, cache, p)
        # composition oracle: d/dx [silu(x) W^T] = silu'(x) * (up @ W)
        expected = nn_core.silu_derivative(x) * (up @ p.base_weight)
        np.testing.assert_allclose(dx, expected, atol=1e-14)

    @pytest.mark.parametrize("out_dim", [3, 512])
    @pytest.mark.parametrize("rows", [1, 255, 257, 4097])
    def test_row_blocks_equal_whole_batch(self, rows, out_dim):
        # 4,097 rows end in a one-row remainder, which BLAS would multiply by
        # another kernel if it were a block of its own
        layers = [make_layer(out_dim=out_dim, seed=5) for _ in range(2)]
        rng = np.random.default_rng(rows)
        x = rng.uniform(-1.5, 1.5, (rows, 4))
        up = rng.normal(size=(rows, out_dim))
        dx, dx_ref = (backward(up, kan_forward(x, p)[1], p)
                      for backward, p in zip((kan_backward, unblocked_kan_backward), layers))
        assert np.array_equal(dx, dx_ref)
        for (_, _, grad), (_, _, grad_ref) in zip(*(p.named_arrays() for p in layers)):
            assert np.array_equal(grad, grad_ref)

    def test_stale_cache_rejected(self):
        p = make_layer()
        x = np.random.default_rng(0).uniform(-1, 1, (5, 4))
        _, cache = kan_forward(x, p)
        with pytest.raises(ShapeError):
            kan_backward(np.zeros((4, 3)), cache, p)


class TestInit:
    def test_deterministic(self):
        p1 = make_layer(seed=11)
        p2 = make_layer(seed=11)
        assert np.array_equal(p1.coeffs, p2.coeffs)
        assert np.array_equal(p1.base_weight, p2.base_weight)

    def test_basis_count(self):
        p = make_layer(grid_size=5, degree=3)
        assert p.coeffs.shape == (3, 4, 8)

    def test_spline_weight_ones(self):
        assert np.all(make_layer().spline_weight == 1.0)

    def test_coeff_noise_scale(self):
        p = make_layer(grid_size=5)
        assert np.abs(p.coeffs).max() <= 0.1 / 5

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            kan_init(0, 3, 5, 3, (-1, 1), np.random.default_rng(0))

    def test_param_validation(self):
        kv = build_knots(5, 3, (-1.0, 1.0))
        with pytest.raises(ShapeError):
            KanLayerParams(
                kv=kv,
                base_weight=np.zeros((3, 4)),
                spline_weight=np.zeros((3, 4)),
                coeffs=np.zeros((3, 4, 7)),
            )
        with pytest.raises(ValueError):
            KanLayerParams(
                kv=kv,
                base_weight=np.full((3, 4), np.nan),
                spline_weight=np.zeros((3, 4)),
                coeffs=np.zeros((3, 4, 8)),
            )
