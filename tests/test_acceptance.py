"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criterion 6 is a soft, directional check (see its docstring).
"""

import json
import time

import numpy as np
import pytest

from tkgmlp import gmlp, kan, nn_core
from tkgmlp.cli import main as cli_main
from tkgmlp.data import (
    SyntheticColumnSpec,
    SyntheticTaskSpec,
    bayes_metrics,
    desk_tiny_spec,
    synth_generate,
)
from tkgmlp.encoders import BinSpec, EncoderSpec, clr_encode, fit_bins, ple_encode, qle_encode, quantile_encode
from tkgmlp.metrics import auc, ks
from tkgmlp.model import ModelConfig, build_model
from tkgmlp.spline import basis_derivative_matrix, basis_matrix, build_knots
from tkgmlp.trainer import GridSpace, TrainConfig, lr_schedule, train

from .helpers import brute_force_auc, brute_force_ks, finite_difference_grad, rel_err, two_sample_ks

GRAD_TOL = 1e-4
FD_EPS = 1e-5


def _verdict(number: int, label: str, ok: bool, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} ({label}): {state}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    worst = 0.0

    def check(analytic, f, arr):
        nonlocal worst
        worst = max(worst, rel_err(analytic, finite_difference_grad(f, arr, eps=FD_EPS)))

    for seed in range(5):
        rng = np.random.default_rng(seed)

        # KAN layer
        layer = kan.kan_init(4, 3, 5, 3, (-1.0, 1.0), rng)
        x = rng.uniform(-1.5, 1.5, (8, 4))
        up = rng.normal(size=(8, 3))

        def kan_loss():
            y, _ = kan.kan_forward(x, layer)
            return float((y * up).sum())

        _, cache = kan.kan_forward(x, layer)
        layer.zero_grads()
        dx = kan.kan_backward(up, cache, layer)
        check(dx, kan_loss, x)
        check(layer.grad_base_weight, kan_loss, layer.base_weight)
        check(layer.grad_spline_weight, kan_loss, layer.spline_weight)
        check(layer.grad_coeffs, kan_loss, layer.coeffs)

        # gMLP block with a dropout mask frozen by seed
        block = gmlp.GmlpBlockParams.create(3, 4, 0.4, rng)
        xb = rng.normal(size=(8, 3))
        upb = rng.normal(size=(8, 4))

        def gmlp_loss():
            y, _ = gmlp.gmlp_block_forward(xb, block, True, np.random.default_rng(seed + 100))
            return float((y * upb).sum())

        _, gcache = gmlp.gmlp_block_forward(xb, block, True, np.random.default_rng(seed + 100))
        block.zero_grads()
        dxb = gmlp.gmlp_block_backward(upb, gcache, block)
        check(dxb, gmlp_loss, xb)
        for _, arr, grad in block.named_arrays():
            if grad is not None:
                check(grad, gmlp_loss, arr)

        # batch norm
        bn = nn_core.BatchNormState.create(3)
        bn.gamma[...] = rng.normal(size=3)
        xn = rng.normal(size=(6, 3))
        upn = rng.normal(size=(6, 3))

        def bn_loss():
            y, _ = nn_core.batchnorm_forward(xn, bn, True)
            return float((y * upn).sum())

        _, bcache = nn_core.batchnorm_forward(xn, bn, True)
        bn.zero_grads()
        dxn = nn_core.batchnorm_backward(upn, bcache, bn)
        check(dxn, bn_loss, xn)
        check(bn.grad_gamma, bn_loss, bn.gamma)
        check(bn.grad_beta, bn_loss, bn.beta)

        # linear
        lin = nn_core.LinearParams.create(4, 2, rng)
        xl = rng.normal(size=(5, 4))
        upl = rng.normal(size=(5, 2))

        def lin_loss():
            y, _ = nn_core.linear_forward(xl, lin)
            return float((y * upl).sum())

        _, lcache = nn_core.linear_forward(xl, lin)
        lin.zero_grads()
        dxl = nn_core.linear_backward(upl, lcache, lin)
        check(dxl, lin_loss, xl)
        check(lin.grad_weight, lin_loss, lin.weight)
        check(lin.grad_bias, lin_loss, lin.bias)

        # binary cross-entropy
        probs = rng.uniform(0.05, 0.95, size=12)
        labels = (rng.random(12) < 0.5).astype(float)
        _, grad = nn_core.bce_loss(probs, labels)
        check(grad, lambda: nn_core.bce_loss(probs, labels)[0], probs)

        # end-to-end model, frozen dropout masks
        cfg = ModelConfig(input_dim=6, hidden_dim=8, kan_layers=1, gmlp_layers=1, dropout=0.3)
        model = build_model(cfg, seed=seed)
        xm = rng.normal(size=(10, 6))
        ym = (rng.random(10) < 0.4).astype(float)

        def model_loss():
            scores, _ = model.forward(xm, train=True, rng=np.random.default_rng(seed + 500))
            return nn_core.bce_loss(scores, ym)[0]

        scores, mcache = model.forward(xm, train=True, rng=np.random.default_rng(seed + 500))
        _, dscores = nn_core.bce_loss(scores, ym)
        model.zero_grads()
        model.backward(dscores, mcache)
        for arr, grad in model.trainable_parameters():
            check(grad, model_loss, arr)

    elapsed = time.perf_counter() - start
    _verdict(1, "gradient suite", worst < GRAD_TOL and elapsed < 30.0,
             f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_spline_suite():
    ok = True
    worst_partition = 0.0
    for grid_size in (5, 10):
        kv = build_knots(grid_size, 3, (-1.0, 1.0))
        u = np.linspace(-1.0, 1.0, 1000)
        basis = basis_matrix(u, kv)
        worst_partition = max(worst_partition, float(np.abs(basis.sum(axis=1) - 1.0).max()))

        wide = np.linspace(-3.0, 3.0, 1201)
        all_vals = basis_matrix(wide, kv)
        ok &= bool(all_vals.min() >= 0.0)  # non-negativity, exact
        for i in range(kv.n_basis):  # local support, exact
            outside = (wide < kv.knots[i]) | (wide > kv.knots[i + 4])
            ok &= bool(np.all(all_vals[outside, i] == 0.0))

        pts = np.random.default_rng(0).uniform(-0.99, 0.99, 200)
        h = 1e-6
        fd = (basis_matrix(pts + h, kv) - basis_matrix(pts - h, kv)) / (2 * h)
        analytic = basis_derivative_matrix(pts, kv)
        deriv_err = float(np.abs(analytic - fd).max() / np.abs(fd).max())
        ok &= deriv_err < 1e-6
    ok &= worst_partition < 1e-12
    _verdict(2, "spline suite", ok, f"partition err {worst_partition:.2e}")


def test_criterion_3_encoder_suite():
    fixture = BinSpec(np.array([0.0, 1.0, 2.0, 4.0]))
    ok = qle_encode(1.5, fixture) == pytest.approx(0.5, abs=1e-15)
    ok &= np.allclose(ple_encode(1.5, fixture), [1.0, 0.5, 0.0], atol=1e-15)
    ok &= quantile_encode(1.5, fixture) == pytest.approx(1.0 / 3.0, abs=1e-15)
    ok &= np.allclose(clr_encode([1.0, 4.0]), [-np.log(2.0), np.log(2.0)], atol=1e-15)

    n_samples, n_bins = 100_000, 64
    families = [
        SyntheticColumnSpec.gaussian(0.0, 1.0),
        SyntheticColumnSpec.exponential(1.0),
        SyntheticColumnSpec.beta(0.5, 0.5),
        SyntheticColumnSpec.zip(0.01, 500.0),
    ]
    grid = np.linspace(0.0, 1.0, n_samples)
    bound = 2.0 / n_bins + 3.0 * np.sqrt(2.0 / n_samples)
    worst = 0.0
    for idx, col in enumerate(families):
        values = col.sample(n_samples, np.random.default_rng(1000 + idx))
        spec = fit_bins(values, n_bins)
        deviation = two_sample_ks(qle_encode(values, spec), grid)
        worst = max(worst, deviation)
    ok &= worst <= bound

    rows = np.random.default_rng(5).uniform(0.1, 100.0, size=(500, 8))
    ok &= bool(np.abs(clr_encode(rows).sum(axis=1)).max() < 1e-10)
    _verdict(3, "encoder suite", bool(ok), f"uniformization worst {worst:.4f} vs bound {bound:.4f}")


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(2024)
    checked = 0
    exact = True
    while checked < 1000:
        n = int(rng.integers(2, 201))
        # mix tie-heavy (coarse) and smooth score distributions
        decimals = int(rng.integers(0, 3))
        scores = np.round(rng.random(n), decimals)
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        exact &= ks(scores, labels) == brute_force_ks(scores, labels)
        exact &= auc(scores, labels) == brute_force_auc(scores, labels)
        checked += 1
    _verdict(4, "metric oracles", exact, f"{checked} instances, exact equality")


def test_criterion_5_synthetic_learnability():
    start = time.perf_counter()
    spec = desk_tiny_spec(seed=42)
    ds, probs = synth_generate(spec, 300_000)
    train_ds = ds.take(np.arange(0, 200_000))
    valid_ds = ds.take(np.arange(200_000, 250_000))
    ceiling = bayes_metrics(probs[200_000:250_000], valid_ds.labels)
    target = ceiling.auc - 0.05

    encoder = EncoderSpec.fit(train_ds.features, kind="qle", n_bins=64)
    x_train = encoder.transform(train_ds.features)
    x_valid = encoder.transform(valid_ds.features)
    cfg = ModelConfig(input_dim=x_train.shape[1], hidden_dim=64, kan_layers=1,
                      gmlp_layers=2, grid_size=5, dropout=0.3)
    model = build_model(cfg, seed=1)
    result = train(
        model,
        (x_train, train_ds.labels),
        (x_valid, valid_ds.labels),
        TrainConfig(max_epochs=100, seed=2),
        on_epoch=lambda s: s.valid_auc >= target,  # halt once the bar is met
    )
    best_auc = max(h.valid_auc for h in result.history)
    elapsed = time.perf_counter() - start
    ok = best_auc >= target and len(result.history) <= 100 and elapsed < 900.0
    _verdict(5, "synthetic learnability", ok,
             f"AUC {best_auc:.4f} vs target {target:.4f} (bayes {ceiling.auc:.4f}), "
             f"{len(result.history)} epochs, {elapsed:.0f}s")


def test_criterion_6_encoder_ordering():
    """Soft, directional criterion: QLE should not lose to raw standardization
    on a zero-inflated benchmark with multiplicative (money-like) feature
    scales. A failure here calls for investigation rather than automatic
    rejection; the margin is dataset-dependent.
    """
    columns = tuple([SyntheticColumnSpec.zip(0.3, 50.0)] * 6
                    + [SyntheticColumnSpec.exponential(1.0)] * 2)

    def benchmark(seed):
        task = SyntheticTaskSpec(columns=columns, prevalence=0.05, seed=seed)
        ds, _ = synth_generate(task, 25_000)
        x = ds.features.copy()
        for j, col in enumerate(columns):
            z = (x[:, j] - col.mean()) / col.std()
            x[:, j] = np.exp(2.5 * z)  # heavy-tailed presentation, same ranks
        return x, ds.labels

    def mean_auc(kind):
        scores = []
        for seed in (0, 1, 2):
            x, y = benchmark(seed)
            encoder = EncoderSpec.fit(x[:20_000], kind=kind, n_bins=64)
            cfg = ModelConfig(input_dim=encoder.output_dim, hidden_dim=32,
                              kan_layers=1, gmlp_layers=1, grid_size=5, dropout=0.0)
            model = build_model(cfg, seed=seed + 1)
            result = train(model, (encoder.transform(x[:20_000]), y[:20_000]),
                           (encoder.transform(x[20_000:]), y[20_000:]),
                           TrainConfig(batch_size=1024, max_epochs=12, patience=20, seed=seed + 2))
            scores.append(max(h.valid_auc for h in result.history))
        return float(np.mean(scores))

    auc_qle = mean_auc("qle")
    auc_std = mean_auc("standardize")
    _verdict(6, "encoder ordering (soft)", auc_qle >= auc_std,
             f"QLE {auc_qle:.4f} vs standardize {auc_std:.4f} over 3 seeds")


def test_criterion_7_protocol_conformance():
    cfg = TrainConfig()
    ok = lr_schedule(0, cfg) == 1e-3
    ok &= lr_schedule(20, cfg) == pytest.approx(9e-4, rel=1e-15)
    ok &= lr_schedule(40, cfg) == pytest.approx(8.1e-4, rel=1e-15)

    # early stopping: train long enough to trigger, then verify the halt
    # arrived exactly `patience` epochs after the best KS and that the
    # restored snapshot reproduces the recorded best
    rng = np.random.default_rng(0)
    labels = (rng.random(600) < 0.5).astype(float)
    x = np.where(labels[:, None] == 1.0, 1.0, -1.0) + rng.normal(0, 0.6, size=(600, 2))
    model = build_model(ModelConfig(input_dim=2, hidden_dim=8, kan_layers=1, gmlp_layers=1), seed=0)
    tcfg = TrainConfig(batch_size=64, lr0=0.01, max_epochs=60, patience=3, seed=3)
    result = train(model, (x[:400], labels[:400]), (x[400:], labels[400:]), tcfg)
    ok &= result.stopped_early
    history_ks = [h.valid_ks for h in result.history]
    best = int(np.argmax(history_ks))
    ok &= (len(result.history) - 1 - best) == tcfg.patience
    ok &= best == result.best_epoch
    scores, _ = model.forward(x[400:], train=False)
    ok &= ks(scores, labels[400:]) == pytest.approx(result.best_ks, abs=1e-12)

    ok &= GridSpace().size == 96
    ok &= len(GridSpace().configurations()) == 96
    _verdict(7, "protocol conformance", bool(ok),
             f"stopped at epoch {len(result.history) - 1}, best {best}")


def test_criterion_8_reproducibility(tmp_path):
    out_dir = tmp_path / "run"
    doc = {
        "seed": 123,
        "output_dir": str(out_dir),
        "data": {"kind": "synth", "rows": [800, 200, 200], "columns": 8, "prevalence": 0.1},
        "encoder": {"kind": "qle", "n_bins": 16},
        "model": {"hidden_dim": 16, "kan_layers": 1, "gmlp_layers": 1, "dropout": 0.3},
        "train": {"batch_size": 256, "max_epochs": 4},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))

    artifacts = ("model.ckpt", "epochs.tsv", "train.csv", "valid.csv", "test.csv", "oracle.csv")
    assert cli_main(["fit", "--config", str(cfg_path)]) == 0
    assert cli_main(["synth", "--config", str(cfg_path)]) == 0
    first = {name: (out_dir / name).read_bytes() for name in artifacts}

    # rerun the identical invocations into the same location
    assert cli_main(["fit", "--config", str(cfg_path)]) == 0
    assert cli_main(["synth", "--config", str(cfg_path)]) == 0
    second = {name: (out_dir / name).read_bytes() for name in artifacts}

    ok = all(first[name] == second[name] for name in artifacts)
    _verdict(8, "reproducibility", ok, "checkpoint, logs, and datasets byte-identical")


def test_criterion_8_reproducibility_on_two_lanes(tmp_path):
    # batch 4,096 >= nn_core.LANE_MIN_ROWS, so every train step runs its
    # SwiGLU and KAN passes on the lane too; 8,192 train rows give two
    # full batches per epoch
    out_dir = tmp_path / "run"
    doc = {
        "seed": 321,
        "output_dir": str(out_dir),
        "data": {"kind": "synth", "rows": [8_192, 1_024, 256], "columns": 8, "prevalence": 0.2},
        "encoder": {"kind": "qle", "n_bins": 16},
        "model": {"hidden_dim": 32, "kan_layers": 1, "gmlp_layers": 2, "dropout": 0.3},
        "train": {"batch_size": 4_096, "max_epochs": 2},
    }
    assert doc["train"]["batch_size"] >= nn_core.LANE_MIN_ROWS
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))

    artifacts = ("model.ckpt", "epochs.tsv")
    runs = []
    for _ in range(2):
        assert cli_main(["fit", "--config", str(cfg_path)]) == 0
        runs.append({name: (out_dir / name).read_bytes() for name in artifacts})
    ok = runs[0] == runs[1]
    _verdict(8, "reproducibility on two lanes", ok, "checkpoint and epoch log byte-identical at batch 4,096")
