import numpy as np
import pytest

from tkgmlp.config import ConfigError
from tkgmlp.metrics import UndefinedMetricError, ks
from tkgmlp import model as model_module
from tkgmlp.model import ModelConfig, TkgmlpModel, build_model
from tkgmlp.trainer import (
    AdamState,
    GridSpace,
    TrainConfig,
    adam_step,
    derive_seed,
    early_stop_check,
    grid_search,
    lr_schedule,
    rank_results,
    train,
    _minibatch_slices,
)


class TestAdam:
    def test_zero_gradient_is_noop(self):
        p = np.array([1.5, -2.0])
        g = np.zeros(2)
        state = AdamState([(p, g)])
        adam_step([(p, g)], state, lr=0.1)
        assert np.array_equal(p, [1.5, -2.0])

    def test_single_scalar_first_step(self):
        p = np.array([0.0])
        g = np.array([1.0])
        state = AdamState([(p, g)])
        adam_step([(p, g)], state, lr=0.1)
        # bias-corrected m_hat = v_hat = 1, update = -lr / (1 + eps)
        assert p[0] == pytest.approx(-0.1, abs=1e-9)

    def test_constant_gradient_step_converges_to_lr(self):
        p = np.array([0.0])
        g = np.array([0.25])
        state = AdamState([(p, g)])
        for _ in range(2000):
            adam_step([(p, g)], state, lr=0.01)
        before = p[0]
        adam_step([(p, g)], state, lr=0.01)
        # fixed point: m_hat -> g, v_hat -> g^2, step magnitude -> lr * sign(g)
        assert before - p[0] == pytest.approx(0.01, rel=1e-6)

    def test_nan_gradient_aborts(self):
        p = np.array([0.0])
        g = np.array([np.nan])
        state = AdamState([(p, g)])
        with pytest.raises(FloatingPointError):
            adam_step([(p, g)], state, lr=0.1)


class TestLrSchedule:
    def test_schedule_values(self):
        cfg = TrainConfig()
        assert lr_schedule(0, cfg) == pytest.approx(1e-3, abs=0)
        assert lr_schedule(20, cfg) == pytest.approx(9e-4, rel=1e-12)
        assert lr_schedule(40, cfg) == pytest.approx(8.1e-4, rel=1e-12)

    def test_constant_within_period(self):
        cfg = TrainConfig()
        assert lr_schedule(19, cfg) == lr_schedule(0, cfg)
        assert lr_schedule(21, cfg) == lr_schedule(20, cfg)

    def test_non_increasing(self):
        cfg = TrainConfig()
        lrs = [lr_schedule(e, cfg) for e in range(100)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(-1, TrainConfig())


class TestTrainConfig:
    @pytest.mark.parametrize("key, value", [
        ("batch_size", 64.0), ("batch_size", 1), ("patience", 0), ("lr0", 0.0),
        ("lr_decay_factor", 1.5), ("adam_beta2", 1.0), ("adam_eps", "1e-8"),
    ])
    def test_bad_value_rejected_naming_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must be"):
            TrainConfig(**{key: value})


class TestEarlyStop:
    def test_improving_history_continues(self):
        stop, best = early_stop_check([0.1, 0.2, 0.3], patience=2)
        assert not stop and best == 2

    def test_stops_patience_after_best(self):
        history = [0.1, 0.2, 0.5] + [0.4] * 20  # best at epoch 2, flat after
        stop, best = early_stop_check(history, patience=20)
        assert stop and best == 2
        stop_before, _ = early_stop_check(history[:-1], patience=20)
        assert not stop_before

    def test_patience_one(self):
        stop, best = early_stop_check([0.5, 0.4], patience=1)
        assert stop and best == 0

    def test_ties_keep_earliest(self):
        _, best = early_stop_check([0.3, 0.5, 0.5, 0.5], patience=10)
        assert best == 1

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            early_stop_check([], patience=2)


class TestMinibatches:
    def test_exact_multiple(self):
        assert _minibatch_slices(8, 4) == [(0, 4), (4, 8)]

    def test_remainder_kept(self):
        assert _minibatch_slices(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_single_row_remainder_merges_back(self):
        assert _minibatch_slices(9, 4) == [(0, 4), (4, 9)]

    def test_small_dataset_single_batch(self):
        assert _minibatch_slices(3, 4096) == [(0, 3)]


def separable_dataset(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.5).astype(float)
    centers = np.where(labels[:, None] == 1.0, 1.2, -1.2)
    x = centers + rng.normal(0.0, 0.4, size=(n, 2))
    return x, labels


class TestTrain:
    def quick_cfg(self, **over):
        base = dict(batch_size=128, lr0=0.01, max_epochs=50, patience=20, seed=1)
        base.update(over)
        return TrainConfig(**base)

    def model_for(self, input_dim=2):
        cfg = ModelConfig(input_dim=input_dim, hidden_dim=8, kan_layers=1,
                          gmlp_layers=1, grid_size=5, dropout=0.0)
        return build_model(cfg, seed=0)

    def test_learns_separable_data(self):
        x, y = separable_dataset()
        x_t, y_t = x[:800], y[:800]
        x_v, y_v = x[800:], y[800:]
        result = train(self.model_for(), (x_t, y_t), (x_v, y_v), self.quick_cfg())
        assert result.best_ks >= 0.95
        assert len(result.history) <= 50

    def test_seed_determinism(self):
        x, y = separable_dataset()
        splits = ((x[:800], y[:800]), (x[800:], y[800:]))
        r1 = train(self.model_for(), *splits, self.quick_cfg(max_epochs=5))
        r2 = train(self.model_for(), *splits, self.quick_cfg(max_epochs=5))
        assert [h.valid_ks for h in r1.history] == [h.valid_ks for h in r2.history]
        assert [h.train_loss for h in r1.history] == [h.train_loss for h in r2.history]

    def test_validation_scores_in_blocks(self, monkeypatch):
        # per-epoch validation goes through predict: few-row blocks give the
        # same history as one block, and no inference forward sees more rows
        x, y = separable_dataset()
        splits = ((x[:800], y[:800]), (x[800:], y[800:]))
        whole = train(self.model_for(), *splits, self.quick_cfg(max_epochs=4))
        infer_rows = []
        forward = TkgmlpModel.forward

        def spy(self, xb, train=False, rng=None):
            if not train:
                infer_rows.append(xb.shape[0])
            return forward(self, xb, train, rng)

        monkeypatch.setattr(TkgmlpModel, "forward", spy)
        monkeypatch.setattr(model_module, "PREDICT_BLOCK_ROWS", 7)
        blocked = train(self.model_for(), *splits, self.quick_cfg(max_epochs=4))

        def rows(result):
            return [(h.epoch, h.lr, h.train_loss, h.valid_ks, h.valid_auc) for h in result.history]

        assert rows(blocked) == rows(whole)
        assert (blocked.best_epoch, blocked.best_ks, blocked.best_auc) == (whole.best_epoch, whole.best_ks, whole.best_auc)
        assert max(infer_rows) == 7 and sum(infer_rows) == 4 * 200

    def test_max_epochs_honored(self):
        x, y = separable_dataset(200)
        result = train(self.model_for(), (x[:150], y[:150]), (x[150:], y[150:]),
                       self.quick_cfg(max_epochs=3, patience=50))
        assert len(result.history) == 3
        assert not result.stopped_early

    def test_best_snapshot_restored(self):
        x, y = separable_dataset()
        splits = ((x[:800], y[:800]), (x[800:], y[800:]))
        model = self.model_for()
        result = train(model, *splits, self.quick_cfg(max_epochs=8))
        scores, _ = model.forward(splits[1][0], train=False)
        assert ks(scores, splits[1][1]) == pytest.approx(result.best_ks, abs=1e-12)

    def test_early_stop_triggers(self):
        x, y = separable_dataset()
        splits = ((x[:800], y[:800]), (x[800:], y[800:]))
        result = train(self.model_for(), *splits, self.quick_cfg(max_epochs=50, patience=2))
        if result.stopped_early:
            best = int(np.argmax([h.valid_ks for h in result.history]))
            assert len(result.history) - 1 - best == 2

    def test_single_class_valid_rejected(self):
        x, y = separable_dataset(100)
        with pytest.raises(UndefinedMetricError):
            train(self.model_for(), (x, y), (x, np.zeros(100)), self.quick_cfg())

    def test_epoch_callback_lines(self):
        x, y = separable_dataset(200)
        lines = []
        train(self.model_for(), (x[:150], y[:150]), (x[150:], y[150:]),
              self.quick_cfg(max_epochs=2), on_epoch=lambda s: lines.append(s.log_line()))
        assert len(lines) == 2
        cols = lines[0].split("\t")
        assert len(cols) == 6  # epoch, lr, loss, ks%, auc%, elapsed
        assert cols[0] == "0"
        float(cols[2])  # parses

    def test_callback_can_halt_training(self):
        x, y = separable_dataset(200)
        result = train(self.model_for(), (x[:150], y[:150]), (x[150:], y[150:]),
                       self.quick_cfg(max_epochs=30), on_epoch=lambda s: s.epoch == 4)
        assert len(result.history) == 5
        assert not result.stopped_early

    def test_divergence_restores_and_flags(self):
        x, y = separable_dataset(200)
        model = self.model_for()
        model.head.weight[...] = np.nan  # poisoned params make earliest loss NaN
        result = train(model, (x[:150], y[:150]), (x[150:], y[150:]),
                       self.quick_cfg(max_epochs=5))
        assert result.diverged
        assert result.history == []


class TestDeriveSeed:
    def test_stable_values(self):
        assert derive_seed(42, "grid:0") == derive_seed(42, "grid:0")
        assert derive_seed(42, "grid:0") != derive_seed(42, "grid:1")
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_is_plain_int(self):
        s = derive_seed(0, "model")
        assert isinstance(s, int) and s >= 0


class TestGridSearch:
    def test_default_space_has_96_configurations(self):
        space = GridSpace()
        assert space.size == 96
        configs = space.configurations()
        assert len(configs) == 96
        assert len({tuple(sorted(c.items())) for c in configs}) == 96

    def test_singleton_space_equals_direct_train(self):
        x, y = separable_dataset(300, seed=3)
        splits = ((x[:200], y[:200]), (x[200:], y[200:]))
        base = ModelConfig(input_dim=2, hidden_dim=8, kan_layers=1, gmlp_layers=1)
        space = GridSpace(gmlp_layers=(1,), kan_layers=(1,), grid_size=(5,),
                          hidden_dim=(8,), dropout=(0.0,))
        tcfg = TrainConfig(batch_size=64, lr0=0.01, max_epochs=3, seed=7)
        results = grid_search(space, base, *splits, tcfg)
        assert len(results) == 1
        seed = derive_seed(7, "grid:0")
        model = build_model(
            ModelConfig(input_dim=2, hidden_dim=8, kan_layers=1, gmlp_layers=1,
                        grid_size=5, dropout=0.0),
            seed=derive_seed(seed, "model"),
        )
        direct = train(model, *splits, TrainConfig(batch_size=64, lr0=0.01, max_epochs=3, seed=seed))
        assert results[0].best_ks == direct.best_ks
        assert results[0].best_auc == direct.best_auc

    def test_ranking_and_stability(self):
        x, y = separable_dataset(300, seed=4)
        splits = ((x[:200], y[:200]), (x[200:], y[200:]))
        base = ModelConfig(input_dim=2, hidden_dim=8)
        space = GridSpace(gmlp_layers=(1,), kan_layers=(1,), grid_size=(5,),
                          hidden_dim=(4, 8), dropout=(0.0,))
        tcfg = TrainConfig(batch_size=64, lr0=0.01, max_epochs=2, seed=5)
        r1 = grid_search(space, base, *splits, tcfg)
        r2 = grid_search(space, base, *splits, tcfg)
        assert [r.index for r in r1] == [r.index for r in r2]
        assert [r.best_ks for r in r1] == [r.best_ks for r in r2]
        assert r1[0].best_ks >= r1[1].best_ks

    def test_failures_recorded_not_fatal(self):
        x, y = separable_dataset(100, seed=5)
        splits = ((x[:70], y[:70]), (x[70:], y[70:]))
        base = ModelConfig(input_dim=2, hidden_dim=8)
        # hidden_dim 0 is invalid and must fail that configuration only
        space = GridSpace(gmlp_layers=(1,), kan_layers=(1,), grid_size=(5,),
                          hidden_dim=(0, 8), dropout=(0.0,))
        tcfg = TrainConfig(batch_size=64, lr0=0.01, max_epochs=1, seed=6)
        results = grid_search(space, base, *splits, tcfg)
        assert len(results) == 2
        failed = [r for r in results if r.error]
        assert len(failed) == 1
        assert results[0].error is None  # failures rank last

    def test_rank_results_tiebreak_by_index(self):
        from tkgmlp.trainer import GridResult

        a = GridResult(index=3, overrides={}, seed=0, best_ks=0.5, best_auc=0.7)
        b = GridResult(index=1, overrides={}, seed=0, best_ks=0.5, best_auc=0.7)
        assert [r.index for r in rank_results([a, b])] == [1, 3]
