import tracemalloc

import numpy as np
import pytest

from tkgmlp import gmlp, kan, nn_core
from tkgmlp import model as model_mod
from tkgmlp.model import ConfigError, ModelConfig, build_model

from .helpers import finite_difference_grad, rel_err


def tiny_config(**overrides):
    base = dict(input_dim=6, hidden_dim=8, kan_layers=1, gmlp_layers=1,
                grid_size=5, dropout=0.0)
    base.update(overrides)
    return ModelConfig(**base)


class TestBuild:
    def test_parameter_count_m1_n1(self):
        cfg = ModelConfig(input_dim=8, hidden_dim=16, kan_layers=1, gmlp_layers=1, grid_size=5)
        m = build_model(cfg, seed=0)
        n_basis = 5 + 3
        expected = (
            2 * 8  # input BN gamma/beta
            + 8 * 16 * n_basis + 2 * 8 * 16  # KAN coeffs + base/spline weights
            + 2 * 16 + 2 * 16 * 16 + 2 * 16  # gMLP BN + U/V + biases
            + 16 + 1  # head
        )
        assert m.parameter_count() == expected

    def test_same_seed_same_outputs(self):
        cfg = tiny_config()
        x = np.random.default_rng(5).normal(size=(9, 6))
        s1, _ = build_model(cfg, seed=3).forward(x)
        s2, _ = build_model(cfg, seed=3).forward(x)
        assert np.array_equal(s1, s2)

    def test_pure_gmlp_ablation(self):
        m = build_model(tiny_config(kan_layers=0, gmlp_layers=2), seed=0)
        scores, _ = m.forward(np.random.default_rng(0).normal(size=(4, 6)))
        assert scores.shape == (4,)
        assert len(m.kan_stack) == 0

    def test_pure_kan_ablation(self):
        m = build_model(tiny_config(kan_layers=2, gmlp_layers=0), seed=0)
        scores, _ = m.forward(np.random.default_rng(0).normal(size=(4, 6)))
        assert scores.shape == (4,)
        assert len(m.gmlp_stack) == 0

    def test_no_layers_rejected(self):
        with pytest.raises(ConfigError):
            tiny_config(kan_layers=0, gmlp_layers=0)

    @pytest.mark.parametrize("key, value", [
        ("hidden_dim", True), ("grid_size", 2.5), ("dropout", "x"), ("dropout", float("nan")),
    ])
    def test_bad_value_rejected_naming_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must be"):
            tiny_config(**{key: value})

    def test_table_space_values_accepted(self):
        for kan_l in (1, 2):
            for gmlp_l in (1, 2):
                for grid in (5, 10):
                    cfg = ModelConfig(input_dim=4, hidden_dim=16, kan_layers=kan_l,
                                      gmlp_layers=gmlp_l, grid_size=grid, dropout=0.3)
                    assert cfg.grid_size == grid


class TestForward:
    def test_scores_in_unit_interval(self):
        m = build_model(tiny_config(), seed=0)
        scores, _ = m.forward(np.random.default_rng(0).normal(size=(32, 6)))
        assert np.all((scores > 0.0) & (scores < 1.0))

    def test_inference_deterministic_bitwise(self):
        m = build_model(tiny_config(dropout=0.5), seed=0)
        x = np.random.default_rng(1).normal(size=(10, 6))
        s1, _ = m.forward(x, train=False)
        s2, _ = m.forward(x, train=False)
        assert np.array_equal(s1, s2)

    def test_zero_head_gives_half(self):
        m = build_model(tiny_config(), seed=0)
        m.head.weight[...] = 0.0
        m.head.bias[...] = 0.0
        scores, _ = m.forward(np.random.default_rng(2).normal(size=(5, 6)))
        np.testing.assert_array_equal(scores, 0.5)

    def test_row_permutation_equivariance_in_inference(self):
        m = build_model(tiny_config(gmlp_layers=2), seed=4)
        x = np.random.default_rng(3).normal(size=(16, 6))
        perm = np.random.default_rng(4).permutation(16)
        scores, _ = m.forward(x, train=False)
        permuted, _ = m.forward(x[perm], train=False)
        assert np.array_equal(scores[perm], permuted)

    def test_shape_mismatch(self):
        m = build_model(tiny_config(), seed=0)
        with pytest.raises(nn_core.ShapeError):
            m.forward(np.zeros((3, 7)))


class TestBackward:
    def test_end_to_end_gradients(self):
        rng = np.random.default_rng(0)
        m = build_model(tiny_config(dropout=0.3), seed=0)
        x = rng.normal(size=(10, 6))
        y = (rng.random(10) < 0.4).astype(float)

        def loss():
            logits, _ = m.forward(x, train=True, rng=np.random.default_rng(99))
            return nn_core.bce_loss(logits, y)[0]

        logits, cache = m.forward(x, train=True, rng=np.random.default_rng(99))
        _, dlogits = nn_core.bce_loss(logits, y)
        m.zero_grads()
        dx = m.backward(dlogits, cache)
        for arr, grad in m.trainable_parameters():
            assert rel_err(grad, finite_difference_grad(loss, arr)) < 1e-4
        assert rel_err(dx, finite_difference_grad(loss, x)) < 1e-4

    def test_zero_upstream_zero_gradients(self):
        m = build_model(tiny_config(), seed=0)
        x = np.random.default_rng(0).normal(size=(6, 6))
        _, cache = m.forward(x, train=True, rng=np.random.default_rng(0))
        m.zero_grads()
        m.backward(np.zeros(6), cache)
        for _, grad in m.trainable_parameters():
            assert np.all(grad == 0.0)

    def test_inference_keeps_no_layer_caches(self):
        m = build_model(tiny_config(dropout=0.3), seed=0)
        _, cache = m.forward(np.random.default_rng(0).normal(size=(4, 6)), train=False)
        assert cache is None

    def test_saturated_wrong_logits_keep_their_gradient(self):
        # a head bias of +40 makes every logit about 40, all labels are 0:
        # each row's dL/dz is about 1/n, so the bias gradient is about 1
        m = build_model(tiny_config(dropout=0.3), seed=0)
        m.head.bias[...] = 40.0
        x = np.random.default_rng(0).normal(size=(8, 6))
        logits, cache = m.forward(x, train=True, rng=np.random.default_rng(1))
        assert logits.min() > 20.0
        m.zero_grads()
        m.backward(nn_core.bce_loss(logits, np.zeros(8))[1], cache)
        assert m.head.grad_bias[0] == pytest.approx(1.0, rel=1e-6)

    def test_predict_in_blocks_matches_one_forward(self, monkeypatch):
        m = build_model(tiny_config(kan_layers=2, gmlp_layers=2, dropout=0.3), seed=0)
        x = np.random.default_rng(1).normal(size=(25, 6))
        whole, _ = m.forward(x, train=False)
        monkeypatch.setattr(model_mod, "PREDICT_BLOCK_ROWS", 10)  # blocks of 10, 10 and 5 rows
        assert np.array_equal(m.predict(x), whole)

    def test_predict_peak_memory_flat_in_rows(self):
        # 2 and 16 blocks of 1,024 rows: only the scores grow with the rows
        m = build_model(tiny_config(input_dim=8, hidden_dim=32, kan_layers=2, gmlp_layers=2), seed=0)
        rng = np.random.default_rng(2)

        def peak(rows):
            x = rng.normal(size=(rows, 8))
            tracemalloc.start()
            try:
                m.predict(x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16 * 1_024) <= 1.5 * peak(2 * 1_024)

    def test_inference_cache_rejected(self):
        m = build_model(tiny_config(), seed=0)
        _, cache = m.forward(np.random.default_rng(0).normal(size=(4, 6)), train=False)
        with pytest.raises(ValueError):
            m.backward(np.zeros(4), cache)

    def test_backward_empties_the_cache(self):
        m = build_model(tiny_config(kan_layers=2, gmlp_layers=2, dropout=0.3), seed=0)
        x = np.random.default_rng(0).normal(size=(6, 6))
        _, cache = m.forward(x, train=True, rng=np.random.default_rng(0))
        m.backward(np.ones(6), cache)
        assert cache == {}

    def test_second_backward_on_a_cache_raises(self):
        m = build_model(tiny_config(dropout=0.3), seed=0)
        x = np.random.default_rng(0).normal(size=(6, 6))
        _, cache = m.forward(x, train=True, rng=np.random.default_rng(0))
        m.zero_grads()
        m.backward(np.ones(6), cache)
        grads = [grad.copy() for _, grad in m.trainable_parameters()]
        with pytest.raises(ValueError, match="already consumed"):
            m.backward(np.ones(6), cache)
        for (_, grad), before in zip(m.trainable_parameters(), grads):
            assert np.array_equal(grad, before)

    def test_composition_matches_manual_layers(self):
        # model backward equals composing the module-level backwards by hand
        m = build_model(tiny_config(kan_layers=1, gmlp_layers=1, dropout=0.3), seed=7)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(9, 6))
        y = (rng.random(9) < 0.5).astype(float)
        logits, cache = m.forward(x, train=True, rng=np.random.default_rng(5))
        _, dlogits = nn_core.bce_loss(logits, y)
        m.zero_grads()
        dx_model = m.backward(dlogits, cache)
        got = {name: arr.copy() for name, arr in
               [("kan_c", m.kan_stack[0].grad_coeffs), ("gate_w", m.gmlp_stack[0].gate.grad_weight),
                ("head_w", m.head.grad_weight), ("bn_g", m.input_bn.grad_gamma)]}

        # manual recomposition on a fresh copy of the same model
        m2 = build_model(tiny_config(kan_layers=1, gmlp_layers=1, dropout=0.3), seed=7)
        rng2 = np.random.default_rng(5)
        h0, bn_cache = nn_core.batchnorm_forward(x, m2.input_bn, True)
        h1, kan_cache = kan.kan_forward(h0, m2.kan_stack[0])
        h1d, mask = nn_core.dropout_apply(h1, m2.cfg.dropout, rng2, True)
        h2, g_cache = gmlp.gmlp_block_forward(h1d, m2.gmlp_stack[0], True, rng2)
        logits2, head_cache = nn_core.linear_forward(h2, m2.head)
        _, dlogits2 = nn_core.bce_loss(logits2[:, 0], y)
        m2.zero_grads()
        dh2 = nn_core.linear_backward(dlogits2[:, None], head_cache, m2.head)
        dh1 = nn_core.dropout_backward(gmlp.gmlp_block_backward(dh2, g_cache, m2.gmlp_stack[0]), mask)
        dh0 = kan.kan_backward(dh1, kan_cache, m2.kan_stack[0])
        dx_manual = nn_core.batchnorm_backward(dh0, bn_cache, m2.input_bn)

        assert np.array_equal(logits, logits2[:, 0])
        assert np.array_equal(dx_model, dx_manual)
        assert np.array_equal(got["kan_c"], m2.kan_stack[0].grad_coeffs)
        assert np.array_equal(got["gate_w"], m2.gmlp_stack[0].gate.grad_weight)
        assert np.array_equal(got["head_w"], m2.head.grad_weight)
        assert np.array_equal(got["bn_g"], m2.input_bn.grad_gamma)


class TestAblationComposition:
    def test_m0_matches_gmlp_blocks_exactly(self):
        m = build_model(tiny_config(kan_layers=0, gmlp_layers=2), seed=9)
        x = np.random.default_rng(0).normal(size=(7, 6))
        scores, _ = m.forward(x, train=False)
        h, _ = nn_core.batchnorm_forward(x, m.input_bn, False)
        for block in m.gmlp_stack:
            h, _ = gmlp.gmlp_block_forward(h, block, False)
        logits, _ = nn_core.linear_forward(h, m.head)
        assert np.array_equal(scores, nn_core.sigmoid(logits[:, 0]))

    def test_n0_matches_kan_plus_head(self):
        m = build_model(tiny_config(kan_layers=2, gmlp_layers=0), seed=9)
        x = np.random.default_rng(0).normal(size=(7, 6))
        scores, _ = m.forward(x, train=False)
        h, _ = nn_core.batchnorm_forward(x, m.input_bn, False)
        for layer in m.kan_stack:
            h, _ = kan.kan_forward(h, layer)
        logits, _ = nn_core.linear_forward(h, m.head)
        assert np.array_equal(scores, nn_core.sigmoid(logits[:, 0]))


class TestSnapshot:
    def test_snapshot_restore_roundtrip(self):
        m = build_model(tiny_config(), seed=0)
        x = np.random.default_rng(0).normal(size=(5, 6))
        before, _ = m.forward(x)
        snap = m.snapshot()
        for arr, _ in m.trainable_parameters():
            arr += 0.37
        changed, _ = m.forward(x)
        assert not np.array_equal(before, changed)
        m.restore(snap)
        after, _ = m.forward(x)
        assert np.array_equal(before, after)

    def test_config_roundtrip(self):
        cfg = tiny_config(dropout=0.3)
        clone = ModelConfig.from_dict(cfg.to_dict())
        assert clone == cfg
