import ctypes
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from tkgmlp import nn_core
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

from .helpers import adam_reference, traced_peak


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

    def test_equals_fresh_temporaries_bit_for_bit(self):
        rng = np.random.default_rng(9)
        shapes = [(65_541,), (64, 32, 8), (7, 3), ()]
        sides = []
        for _ in range(2):
            r = np.random.default_rng(0)
            sides.append([(r.normal(size=shape), np.zeros(shape)) for shape in shapes])
        lib, ref = sides
        state = AdamState(lib)
        m_ref = [np.zeros(shape) for shape in shapes]
        v_ref = [np.zeros(shape) for shape in shapes]
        for t in range(1, 6):
            for (_, g), (_, g_ref) in zip(lib, ref):
                g[...] = g_ref[...] = rng.normal(size=g.shape) * 10.0 ** rng.integers(-6, 3)
            adam_step(lib, state, lr=1e-3)
            adam_reference(ref, m_ref, v_ref, t, lr=1e-3)
        for (p, _), (p_ref, _), m, v, mr, vr in zip(lib, ref, state.m, state.v, m_ref, v_ref):
            assert np.array_equal(p, p_ref) and np.array_equal(m, mr) and np.array_equal(v, vr)

    def test_transposed_parameter_updated_in_place(self):
        rng = np.random.default_rng(4)
        base, grad = rng.normal(size=(3, 5)), np.zeros((3, 5))
        p, g = base.T, grad.T  # F-ordered views of the stored arrays
        start = p.copy()
        p_ref, g_ref = p.copy(), g.copy()
        m_ref, v_ref = [np.zeros_like(p_ref)], [np.zeros_like(p_ref)]
        state = AdamState([(p, g)])
        for t in range(1, 4):
            g[...] = g_ref[...] = rng.normal(size=g.shape)
            adam_step([(p, g)], state, lr=1e-2)
            adam_reference([(p_ref, g_ref)], m_ref, v_ref, t, lr=1e-2)
        assert np.array_equal(base.T, p_ref) and not np.array_equal(base.T, start)

    def test_nan_gradient_aborts(self):
        # a NaN or an overflowing square makes the second moment non-finite
        finite, bad = np.array([1.0]), np.array([0.5])
        with np.errstate(over="ignore", invalid="ignore"):
            for g in (np.nan, np.inf, 1e160):
                bad[0] = g
                params = [(np.zeros(1), finite), (np.zeros(1), bad)]
                assert adam_step(params, AdamState(params), lr=0.1) is False
        params = [(np.zeros(1), finite)]
        assert adam_step(params, AdamState(params), lr=0.1) is True


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

    @pytest.mark.parametrize("split", ["train", "valid"])
    @pytest.mark.parametrize("labels, message", [
        (lambda y: np.concatenate([y, y]), "split has 200 labels for 100 feature rows"),
        (lambda y: y[:60], "split has 60 labels for 100 feature rows"),
        (lambda y: np.where(np.arange(y.size) == 7, 2.0, y), "labels must be 0 or 1, got 2"),
    ], ids=["too-many", "too-few", "label-2"])
    def test_bad_labels_rejected_before_the_first_step(self, split, labels, message):
        x, y = separable_dataset(100)
        splits = {"train": (x, y), "valid": (x, y)}
        splits[split] = (x, labels(y))
        model = self.model_for()
        before = model.snapshot()
        with pytest.raises(ValueError, match=f"{split} {message}"):
            train(model, splits["train"], splits["valid"], self.quick_cfg())
        assert all(np.array_equal(arr, before[name]) for name, arr, _ in model.named_arrays())

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
        assert result.best_epoch == -1 and not result.stopped_early


# Runs trainer.train at h=64 on six 4,096-row minibatches for two epochs
# and prints, as JSON, whether keep_freed_pages took and the minor page
# faults (ru_minflt, every thread) between consecutive steps of the second
# epoch, counted at each zero_grads call.
PAGE_FAULT_PROBE = """
import json, resource
import numpy as np
from tkgmlp import nn_core, trainer
from tkgmlp.model import ModelConfig, build_model

rng = np.random.default_rng(0)
x, xv = rng.normal(size=(6 * 4_096, 32)), rng.normal(size=(1_000, 32))
y, yv = (x[:, 0] > 0).astype(float), (xv[:, 0] > 0).astype(float)
model = build_model(ModelConfig(input_dim=32, hidden_dim=64, kan_layers=1, gmlp_layers=2, dropout=0.3), seed=0)
epochs, zero_grads = [[]], model.zero_grads

def counted_zero_grads():
    epochs[-1].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    zero_grads()

model.zero_grads = counted_zero_grads
trainer.train(model, (x, y), (xv, yv), trainer.TrainConfig(batch_size=4_096, max_epochs=2),
              on_epoch=lambda stats: epochs.append([]))
print(json.dumps({"kept": nn_core.keep_freed_pages(), "faults": np.diff(epochs[1]).tolist()}))
"""
# Steady-state minor faults allowed per h=64 step: the pages of one 4,096 x
# 64 float64 array. With the freed pages kept a step faults 0 times; with
# glibc's default thresholds it faults 7,600-8,700 times, its whole cache.
STEADY_FAULTS_PER_STEP = 512


class TestMemory:
    def test_step_loop_holds_one_step_of_activations(self):
        # the trainer's loop keeps ``cache`` bound until the next forward
        # returns; backward empties it, so the loop's peak is one step's. The
        # allowance, a quarter of one 4,096 x 128 array, covers the lane's
        # ufunc buffers; a second step's cache (about 51 MB here) exceeds it.
        model = build_model(ModelConfig(input_dim=32, hidden_dim=128, kan_layers=1, gmlp_layers=2, dropout=0.3),
                            seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4_096, 32))
        y = (rng.random(4_096) < 0.3).astype(float)
        params = model.trainable_parameters()
        adam = AdamState(params)

        def steps(n):
            for _ in range(n):
                model.zero_grads()
                logits, cache = model.forward(x, train=True, rng=rng)
                model.backward(nn_core.bce_loss(logits, y)[1], cache)
                adam_step(params, adam, 1e-3)

        steps(1)  # the lane, numpy's caches and Adam's moments exist before the measured calls
        allowance = 1 << 20
        assert traced_peak(lambda: steps(3)) <= traced_peak(lambda: steps(1)) + allowance

    def test_steady_steps_do_not_fault(self):
        # in a fresh process, so that the allocator starts from glibc's
        # defaults; MALLOC_* variables would set the thresholds themselves
        env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
        env["OPENBLAS_NUM_THREADS"] = "1"
        proc = subprocess.run([sys.executable, "-c", PAGE_FAULT_PROBE], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if not probe["kept"]:
            pytest.skip("the C library has no mallopt, or refused the settings")
        assert len(probe["faults"]) == 5
        assert np.median(probe["faults"]) <= STEADY_FAULTS_PER_STEP, probe["faults"]

    @pytest.mark.parametrize("libc", [None, types.SimpleNamespace()], ids=["no libc handle", "no mallopt"])
    def test_keep_freed_pages_is_a_no_op_without_mallopt(self, libc, monkeypatch):
        def cdll(name):
            if libc is None:
                raise OSError("no C library")
            return libc

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert nn_core.keep_freed_pages.__wrapped__() is False

    def test_keep_freed_pages_answers_once(self, monkeypatch):
        first = nn_core.keep_freed_pages()
        monkeypatch.setattr(ctypes, "CDLL", None)  # a second call would fail here
        assert nn_core.keep_freed_pages() is first

    @pytest.mark.parametrize("libc", [None, types.SimpleNamespace()], ids=["no libc handle", "no mallopt"])
    def test_one_malloc_arena_is_a_no_op_without_mallopt(self, libc, monkeypatch):
        def cdll(name):
            if libc is None:
                raise OSError("no C library")
            return libc

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert nn_core.one_malloc_arena.__wrapped__() is False

    def test_the_lane_caps_the_arenas_before_its_thread_starts(self, monkeypatch):
        # glibc gives a thread its arena at its first allocation, so the cap
        # must be set before the lane's first task
        seen = []
        monkeypatch.setattr(nn_core, "_LANE", [])
        monkeypatch.setattr(nn_core, "one_malloc_arena", lambda: seen.append(list(nn_core._LANE)))
        lane = nn_core._lane()
        try:
            assert seen == [[]] and nn_core._LANE == [lane]
            nn_core._lane()
            assert len(seen) == 1
        finally:
            lane.shutdown()



# The criterion-8 config (tests/test_acceptance.py), and one whose trained
# bits two OpenBLAS threads used to change: at h=64 and batch 2,049 they
# round some products' sums differently from one thread
THREAD_COUNT_DOCS = {
    "criterion-8": {
        "seed": 123,
        "data": {"kind": "synth", "rows": [800, 200, 200], "columns": 8, "prevalence": 0.1},
        "encoder": {"kind": "qle", "n_bins": 16},
        "model": {"hidden_dim": 16, "kan_layers": 1, "gmlp_layers": 1, "dropout": 0.3},
        "train": {"batch_size": 256, "max_epochs": 4},
    },
    "h64-batch-2049": {
        "seed": 7,
        "data": {"kind": "synth", "rows": [6_150, 1_024, 256], "columns": 8, "prevalence": 0.2},
        "encoder": {"kind": "qle", "n_bins": 16},
        "model": {"hidden_dim": 64, "kan_layers": 2, "gmlp_layers": 2, "dropout": 0.3},
        "train": {"batch_size": 2_049, "max_epochs": 1},
    },
}


class TestBlasThreads:
    @pytest.fixture
    def blas(self):
        calls = nn_core._blas_thread_calls()
        if calls is None:
            pytest.skip("numpy's BLAS is not the OpenBLAS its wheel bundles")
        get, set_ = calls
        before = get()
        yield get, set_
        set_(before)

    def test_training_runs_at_one_thread_and_puts_the_count_back(self, blas):
        get, set_ = blas
        set_(2)
        x, y = separable_dataset(200)
        counts = []
        model = build_model(ModelConfig(input_dim=2, hidden_dim=8), seed=0)
        train(model, (x[:150], y[:150]), (x[150:], y[150:]), TrainConfig(batch_size=64, max_epochs=2),
              on_epoch=lambda stats: counts.append(get()))
        assert counts == [1, 1]
        assert get() == 2

    def test_count_put_back_after_an_error(self, blas):
        get, set_ = blas
        set_(2)
        with pytest.raises(nn_core.ShapeError, match="inside"):
            with nn_core.one_blas_thread():
                assert get() == 1
                raise nn_core.ShapeError("inside")
        assert get() == 2

    @pytest.mark.parametrize("lib", [None, types.SimpleNamespace()], ids=["no library", "no thread calls"])
    def test_no_op_without_openblas(self, lib, monkeypatch):
        def cdll(name):
            if lib is None:
                raise OSError("cannot open")
            return lib

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert nn_core._blas_thread_calls.__wrapped__() is None
        monkeypatch.setattr(nn_core, "_blas_thread_calls", lambda: None)
        with nn_core.one_blas_thread():
            pass

    @pytest.mark.parametrize("name", THREAD_COUNT_DOCS)
    def test_trained_bits_do_not_depend_on_the_environment_count(self, tmp_path, name):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**THREAD_COUNT_DOCS[name], "output_dir": str(out)}))
        runs = {}
        for threads in (None, "1", "2"):
            env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run([sys.executable, "-m", "tkgmlp", "fit", "--config", str(cfg)],
                                  capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            runs[threads] = [(out / name).read_bytes() for name in ("model.ckpt", "epochs.tsv")]
        assert runs[None] == runs["1"] == runs["2"]

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
