"""The lane: the second thread of the train step and of the table builds
(``nn_core.both`` and ``nn_core.row_halves``). The two-lane SwiGLU, KAN,
batch-norm and dropout passes must give the bits of the single-lane ones at
every batch size, and ``synth_generate`` and ``EncoderSpec.fit`` those of
one column loop at every table size; errors raised on the lane must reach
the caller, and only training and the table builds from ``LANE_MIN_ROWS``
rows on may start the thread."""

import json
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from tkgmlp import data, encoders, gmlp, kan, nn_core
from tkgmlp.checkpoint import load_checkpoint
from tkgmlp.cli import main as cli_main
from tkgmlp.encoders import EncoderSpec
from tkgmlp.gmlp import GmlpBlockParams, swiglu, swiglu_backward
from tkgmlp.kan import kan_backward, kan_forward, kan_init
from tkgmlp.model import ModelConfig, build_model
from tkgmlp.nn_core import (
    LANE_MIN_ROWS,
    BatchNormState,
    ShapeError,
    batchnorm_backward,
    batchnorm_forward,
    dropout_apply,
    dropout_backward,
)
from tkgmlp.spline import basis_matrix, build_knots

from .helpers import (
    single_lane_batchnorm_backward,
    single_lane_batchnorm_forward,
    single_lane_dropout_apply,
    single_lane_dropout_backward,
    single_lane_kan_backward,
    single_lane_kan_forward,
    single_lane_swiglu,
    single_lane_swiglu_backward,
    serial_encoder_fit,
    serial_synth_generate,
    traced_peak,
)
from .test_cli import write_config

# 3 rows would split into halves of 1 and 2 rows, which OpenBLAS multiplies
# with kernels that round differently; 2,047 / 2,048 straddle LANE_MIN_ROWS,
# and 2,049 and 4,097 rows split into halves of unequal length
ROWS = [2, 3, 1_023, 2_047, 2_048, 2_049, 4_096, 4_097]
WIDTHS = [(4, 3), (32, 64), (64, 512)]
ELEMENTWISE_WIDTHS = [32, 64, 256, 512]
# the train-mode functions that split their passes by row halves, and per
# call their numbers of ``row_halves`` passes and of ``both`` column-sum pairs
ELEMENTWISE = {"batchnorm_forward": (2, 0), "batchnorm_backward": (3, 2),
               "dropout_apply": (1, 0), "dropout_backward": (1, 0)}


def _where(lo, hi, calls):
    calls.append((lo, hi, threading.current_thread() is threading.main_thread()))


def _on_lane():
    return threading.current_thread() is not threading.main_thread()


def _spy_elementwise_parts(monkeypatch):
    """Record, for each function in ELEMENTWISE, every part it hands to
    ``nn_core.row_halves``, as (lo, hi, on_lane), and to ``nn_core.both``,
    as ("f" or "g", on_lane)."""
    parts = {name: [] for name in ELEMENTWISE}
    row_halves, both = nn_core.row_halves, nn_core.both

    def halves_spy(fn, rows):
        seen = parts.get(sys._getframe(1).f_code.co_name)
        if seen is None:
            return row_halves(fn, rows)

        def part(lo, hi):
            seen.append((lo, hi, _on_lane()))
            fn(lo, hi)

        return row_halves(part, rows)

    def both_spy(f, g, rows):
        seen = parts.get(sys._getframe(1).f_code.co_name)
        if seen is None:
            return both(f, g, rows)

        def tagged(fn, tag):
            def run():
                seen.append((tag, _on_lane()))
                return fn()
            return run

        return both(tagged(f, "f"), tagged(g, "g"), rows)

    monkeypatch.setattr(nn_core, "row_halves", halves_spy)
    monkeypatch.setattr(nn_core, "both", both_spy)
    return parts


def _lane_threads():
    return [t for t in threading.enumerate() if t.name.startswith("tkgmlp-lane")]


def _assert_equal_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


class TestSplit:
    @pytest.mark.parametrize("rows", [2, 3, LANE_MIN_ROWS - 1])
    def test_below_threshold_one_call_on_caller(self, rows):
        calls = []
        nn_core.row_halves(lambda lo, hi: _where(lo, hi, calls), rows)
        assert calls == [(0, rows, True)]

    @pytest.mark.parametrize("rows", [LANE_MIN_ROWS, LANE_MIN_ROWS + 1, 4_097])
    def test_halves_first_on_lane(self, rows):
        calls = []
        nn_core.row_halves(lambda lo, hi: _where(lo, hi, calls), rows)
        half = rows // 2
        assert sorted(calls) == [(0, half, False), (half, rows, True)]

    def test_both_returns_in_order(self):
        main = threading.main_thread()
        for rows, f_on_caller in ((3, True), (LANE_MIN_ROWS, False)):
            first, second = nn_core.both(lambda: threading.current_thread() is main,
                                         lambda: threading.current_thread() is main, rows)
            assert (first, second) == (f_on_caller, True)


class TestErrors:
    def test_lane_exception_reaches_caller(self):
        def fault():
            raise ShapeError("lane operand (3, 4) does not match (4, 3)")

        with pytest.raises(ShapeError, match=r"lane operand \(3, 4\) does not match \(4, 3\)"):
            nn_core.both(fault, lambda: None, LANE_MIN_ROWS)
        assert nn_core.both(lambda: 1, lambda: 2, LANE_MIN_ROWS) == (1, 2)

    def test_lane_runtime_warning_is_an_error(self):
        zeros = np.zeros(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="divide by zero"):
                nn_core.both(lambda: np.log(zeros), lambda: None, LANE_MIN_ROWS)
        assert nn_core.both(lambda: 1, lambda: 2, LANE_MIN_ROWS) == (1, 2)

    def test_errstate_reaches_the_lane(self):
        # the lane runs in a copy of the caller's context, where numpy keeps its errstate
        zeros = np.zeros(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(divide="ignore"):
                on_lane, _ = nn_core.both(lambda: np.log(zeros), lambda: None, LANE_MIN_ROWS)
            assert on_lane[0] == -np.inf
            with pytest.raises(RuntimeWarning, match="divide by zero"):
                nn_core.both(lambda: np.log(zeros), lambda: None, LANE_MIN_ROWS)

    def test_basis_matrix_keeps_its_errstate_on_the_lane(self):
        # basis_matrix enters its own np.errstate, so it runs on the lane as
        # it does on the caller, even at points whose scaled cell overflows
        kv = build_knots(5, 3)
        u = np.array([-1e308, -1.5, -1.0, 0.3, 1.0, 1.5, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            on_lane, on_caller = nn_core.both(lambda: basis_matrix(u, kv, with_derivative=True),
                                              lambda: basis_matrix(u, kv, with_derivative=True), LANE_MIN_ROWS)
        _assert_equal_arrays(on_lane, on_caller)
        assert np.all(on_lane[0][[0, -1]] == 0.0)

    def test_caller_error_waits_for_the_lane(self):
        done = []

        def slow():
            threading.Event().wait(0.05)
            done.append(True)

        def fault():
            raise ShapeError("caller side")

        with pytest.raises(ShapeError, match="caller side"):
            nn_core.both(slow, fault, LANE_MIN_ROWS)
        assert done == [True]

    def test_fit_exits_two_naming_a_lane_error(self, tmp_path, monkeypatch, capsys):
        sigmoid_into = nn_core.sigmoid_into

        def lane_fault(arr, out, den):
            if threading.current_thread() is not threading.main_thread():
                raise ShapeError("injected lane fault")
            return sigmoid_into(arr, out, den)

        monkeypatch.setattr(nn_core, "sigmoid_into", lane_fault)
        cfg = write_config(tmp_path, data={"rows": [4_096, 512, 512]},
                           train={"batch_size": 4_096, "max_epochs": 1})
        assert cli_main(["fit", "--config", str(cfg)]) == 2
        assert "ShapeError: injected lane fault" in capsys.readouterr().err


    def test_fit_reports_a_divergence_on_the_lane(self, tmp_path, caplog):
        # at lr0 = 1e300 the second step's forward overflows, on the lane too
        # (batch 4,096), before any epoch is validated
        cfg = write_config(tmp_path, data={"rows": [8_192, 512, 512]},
                           train={"batch_size": 4_096, "max_epochs": 2})
        with caplog.at_level("WARNING", logger="tkgmlp"):
            assert cli_main(["fit", "--config", str(cfg), "--set", "train.lr0=1e300"]) == 2
        assert "training diverged before its first validation; checkpoint holds the initial parameters" in caplog.text
        out = tmp_path / "out"
        assert (out / "epochs.tsv").read_text() == "epoch\tlr\ttrain_loss\tvalid_ks_pct\tvalid_auc_pct\n"
        assert load_checkpoint(out / "model.ckpt").best["diverged"] is True

class TestThreads:
    def test_scoring_encoding_and_synth_start_no_thread(self, tmp_path, monkeypatch):
        # 5,000 rows to score: a forward over them would reach the lane,
        # but predict's 1,024-row blocks stay below LANE_MIN_ROWS. Synth
        # (1,800 rows) and encode (600) stay below it too; from it on they
        # draw and fit on the lane. ``_lane`` is spied, as an earlier test
        # may have started the thread already.
        cfg = write_config(tmp_path, data={"rows": [600, 200, 5_000]})
        assert cli_main(["fit", "--config", str(cfg)]) == 0
        data_dir, small_dir = tmp_path / "data", tmp_path / "small"
        assert cli_main(["synth", "--config", str(cfg), "--set", f"output_dir={data_dir}"]) == 0
        small = write_config(tmp_path, "small.json", data={"rows": [600, 200, 1_000]})
        lane, calls = nn_core._lane, []
        monkeypatch.setattr(nn_core, "_lane", lambda: calls.append(1) or lane())
        before = set(threading.enumerate())
        assert cli_main(["synth", "--config", str(small), "--set", f"output_dir={small_dir}"]) == 0
        assert cli_main(["evaluate", "--checkpoint", str(tmp_path / "out" / "model.ckpt"),
                         "--data", str(data_dir / "test.csv")]) == 0
        assert cli_main(["encode", "--config", str(cfg), "--data", str(small_dir / "train.csv"),
                         "--out", str(tmp_path / "encoded.csv")]) == 0
        assert not calls and set(threading.enumerate()) == before

    def test_training_starts_one_lane_thread(self):
        x = np.random.default_rng(0).normal(size=(LANE_MIN_ROWS, 4))
        swiglu(x, GmlpBlockParams.create(4, 3, 0.0, np.random.default_rng(1)))
        assert len(_lane_threads()) == 1

    def test_import_loads_no_executor(self):
        # scoring, and synth and encoding below LANE_MIN_ROWS rows, never
        # use the lane, so they do not pay for loading concurrent.futures
        code = "import sys, tkgmlp.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("mode, rows", [("train", 4_096), ("train", LANE_MIN_ROWS - 1), ("predict", 4_096)])
    def test_batch_norm_and_dropout_take_the_lane_from_the_row_gate(self, mode, rows, monkeypatch):
        # in train-h64's step (h=64, 4,096 rows) batch norm and dropout run
        # their first half on the lane, as SwiGLU and KAN do; one row below
        # the gate, and in predict's 1,024-row blocks, they stay on the caller
        parts = _spy_elementwise_parts(monkeypatch)
        # three of each: the input batch norm and the two blocks', the
        # dropout after the KAN layer and the two blocks'
        model = build_model(ModelConfig(input_dim=8, hidden_dim=64, kan_layers=1, gmlp_layers=2, dropout=0.3), seed=0)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(rows, 8))
        if mode == "predict":
            model.predict(x)
            assert not any(part[-1] for seen in parts.values() for part in seen)
            return
        labels = (rng.random(rows) < 0.3).astype(np.float64)
        model.zero_grads()
        logits, cache = model.forward(x, train=True, rng=rng)
        model.backward(nn_core.bce_loss(logits, labels)[1], cache)
        lane = rows >= LANE_MIN_ROWS
        halves = [(0, rows // 2, True), (rows // 2, rows, False)] if lane else [(0, rows, False)]
        for name, (passes, sums) in ELEMENTWISE.items():
            want = 3 * (passes * halves + sums * [("f", lane), ("g", False)])
            assert sorted(parts[name], key=repr) == sorted(want, key=repr), name

    def test_fit_subprocess_exits_and_leaves_no_process(self, tmp_path):
        cfg = write_config(tmp_path, data={"rows": [4_096, 512, 512]},
                           train={"batch_size": 4_096, "max_epochs": 1})
        proc = subprocess.Popen([sys.executable, "-m", "tkgmlp", "fit", "--config", str(cfg)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 0, err
        assert (tmp_path / "out" / "model.ckpt").exists()


class TestBits:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("rows", ROWS)
    def test_swiglu_equals_single_lane(self, rows, width):
        d, h = width
        rng = np.random.default_rng(rows * 7 + h)
        blocks = [GmlpBlockParams.create(d, h, 0.0, np.random.default_rng(h)) for _ in range(2)]
        start = [rng.normal(size=arr.shape) for _, arr, _ in blocks[0].named_arrays()]
        for block in blocks:
            for (_, _, grad), g0 in zip(block.named_arrays(), start):
                if grad is not None:
                    grad[...] = g0  # gradients accumulate onto earlier ones
        x = rng.normal(size=(rows, d))
        up = rng.normal(size=(rows, h))
        out, cache = swiglu(x, blocks[0])
        want_out, want_cache = single_lane_swiglu(x, blocks[1])
        _assert_equal_arrays((out, *cache), (want_out, *want_cache))
        dx = swiglu_backward(up, cache, blocks[0])
        want_dx = single_lane_swiglu_backward(up, want_cache, blocks[1])
        assert np.array_equal(dx, want_dx)
        _assert_equal_arrays([g for _, _, g in blocks[0].named_arrays() if g is not None],
                             [g for _, _, g in blocks[1].named_arrays() if g is not None])

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("rows", ROWS)
    def test_kan_equals_single_lane(self, rows, width):
        d, h = width
        rng = np.random.default_rng(rows * 7 + h)
        layers = [kan_init(d, h, 5, 3, (-1.0, 1.0), np.random.default_rng(h)) for _ in range(2)]
        for (_, _, g0), (_, _, g1) in zip(*(layer.named_arrays() for layer in layers)):
            g0[...] = g1[...] = rng.normal(size=g0.shape)
        x = rng.uniform(-1.5, 1.5, (rows, d))
        up = rng.normal(size=(rows, h))
        y, cache = kan_forward(x, layers[0])
        want_y, want_cache = single_lane_kan_forward(x, layers[1])
        _assert_equal_arrays((y, *cache), (want_y, *want_cache))
        assert np.array_equal(kan_forward(x, layers[0], train=False)[0],
                              single_lane_kan_forward(x, layers[1], train=False)[0])
        dx = kan_backward(up, cache, layers[0])
        want_dx = single_lane_kan_backward(up, want_cache, layers[1])
        assert np.array_equal(dx, want_dx)
        _assert_equal_arrays([g for _, _, g in layers[0].named_arrays()],
                             [g for _, _, g in layers[1].named_arrays()])

    def test_lane_calls_no_traced_name(self, monkeypatch):
        # the tracer's span stack is shared across threads: the names it
        # wraps must run on the caller only
        seen = []
        for owner, attr in ((nn_core, "sigmoid"), (gmlp, "silu"), (gmlp, "silu_derivative"),
                            (kan, "silu"), (kan, "silu_derivative"), (kan, "basis_matrix")):
            fn = getattr(owner, attr)

            def spy(*args, _fn=fn, _name=f"{owner.__name__}.{attr}", **kwargs):
                seen.append((_name, threading.current_thread() is threading.main_thread()))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, spy)
        rng = np.random.default_rng(3)
        layer = kan_init(4, 8, 5, 3, (-1.0, 1.0), rng)
        block = GmlpBlockParams.create(8, 8, 0.0, rng)
        x = rng.uniform(-1, 1, (LANE_MIN_ROWS, 4))
        h, kan_cache = kan_forward(x, layer)
        out, cache = swiglu(h, block)
        kan_backward(rng.normal(size=h.shape), kan_cache, layer)
        swiglu_backward(rng.normal(size=out.shape), cache, block)
        assert seen and all(on_caller for _, on_caller in seen)


def _batchnorm_states(width, seed):
    """Two equal batch-norm states with non-trivial parameters, running
    statistics and gradients (which accumulate onto earlier ones)."""
    rng = np.random.default_rng(seed)
    start = {name: rng.uniform(0.5, 2.0, width) for name in ("gamma", "beta", "running_mean", "running_var")}
    grads = rng.normal(size=(2, width))
    states = []
    for _ in range(2):
        s = BatchNormState(**{name: arr.copy() for name, arr in start.items()})
        s.grad_gamma[...], s.grad_beta[...] = grads
        states.append(s)
    return states


def _state_arrays(s):
    return [s.gamma, s.beta, s.running_mean, s.running_var, s.grad_gamma, s.grad_beta]


class TestElementwiseBits:
    def test_cases_straddle_the_gate(self):
        assert {LANE_MIN_ROWS - 1, LANE_MIN_ROWS} <= set(ROWS)
        assert any(rows % 2 for rows in ROWS if rows >= LANE_MIN_ROWS)  # halves of unequal length

    @pytest.mark.parametrize("width", ELEMENTWISE_WIDTHS)
    @pytest.mark.parametrize("rows", ROWS)
    def test_batchnorm_equals_single_lane(self, rows, width):
        rng = np.random.default_rng(rows * 7 + width)
        x = rng.normal(3.0, 2.0, (rows, width))
        up = rng.normal(size=(rows, width))
        states = _batchnorm_states(width, rows)
        out, cache = batchnorm_forward(x, states[0], train=True)
        want_out, want_cache = single_lane_batchnorm_forward(x, states[1], train=True)
        _assert_equal_arrays((out, *cache), (want_out, *want_cache))
        _assert_equal_arrays(_state_arrays(states[0]), _state_arrays(states[1]))
        dx = batchnorm_backward(up, cache, states[0])
        want_dx = single_lane_batchnorm_backward(up, want_cache, states[1])
        assert np.array_equal(dx, want_dx)
        _assert_equal_arrays(_state_arrays(states[0]), _state_arrays(states[1]))

    @pytest.mark.parametrize("width", ELEMENTWISE_WIDTHS)
    @pytest.mark.parametrize("rows", ROWS)
    def test_dropout_equals_single_lane(self, rows, width):
        rng = np.random.default_rng(rows * 7 + width)
        x = rng.normal(size=(rows, width))
        up = rng.normal(size=(rows, width))
        gens = [np.random.default_rng(rows + width) for _ in range(2)]
        y, (keep, scale) = dropout_apply(x, 0.3, gens[0], train=True)
        want_y, (want_keep, want_scale) = single_lane_dropout_apply(x, 0.3, gens[1], train=True)
        _assert_equal_arrays((y, keep), (want_y, want_keep))
        assert keep.dtype == want_keep.dtype and scale == want_scale
        assert gens[0].bit_generator.state == gens[1].bit_generator.state
        assert np.array_equal(dropout_backward(up, (keep, scale)), single_lane_dropout_backward(up, (keep, scale)))


def test_elementwise_peaks_hold_no_scratch_array():
    # numpy's ufunc iterator takes a buffer of np.getbufsize() values for
    # each call that broadcasts a vector or casts the bool mask, and frees
    # it on return; the lane's call runs beside the caller's, so the
    # two-lane peak may hold one such buffer more, plus the futures,
    # closures and column-sum vectors (about 14 KB). A half of scratch
    # (8 MiB here) or a whole array (16 MiB) would exceed the allowance.
    rows, width = 4_096, 512
    assert rows >= LANE_MIN_ROWS
    allowance = np.getbufsize() * 8 + 32 * 1024
    rng = np.random.default_rng(0)
    x, up = rng.normal(size=(rows, width)), rng.normal(size=(rows, width))
    s = BatchNormState.create(width)
    cache = batchnorm_forward(x, s, train=True)[1]
    mask = dropout_apply(x, 0.3, rng, train=True)[1]
    pairs = {
        "batchnorm_forward": (lambda: batchnorm_forward(x, s, train=True),
                              lambda: single_lane_batchnorm_forward(x, s, train=True)),
        "batchnorm_backward": (lambda: batchnorm_backward(up, cache, s),
                               lambda: single_lane_batchnorm_backward(up, cache, s)),
        "dropout_apply": (lambda: dropout_apply(x, 0.3, rng, train=True),
                          lambda: single_lane_dropout_apply(x, 0.3, rng, train=True)),
        "dropout_backward": (lambda: dropout_backward(up, mask), lambda: single_lane_dropout_backward(up, mask)),
    }
    for name, (two_lane, single) in pairs.items():
        two_lane()  # the lane and numpy's caches exist before the measured calls
        assert traced_peak(two_lane) <= traced_peak(single) + allowance, name


# The table builds: synth_generate draws, and EncoderSpec.fit fits, every
# other column of a group on the lane. 2,047 / 2,048 straddle LANE_MIN_ROWS;
# 4,095 and 4,097 rows end in a short row block, 1, 3, 5 and 33 columns in
# a short column group.
TABLE_ROWS = [1, 2_047, 2_048, 4_095, 4_097, 20_480]
TABLE_COLUMNS = [1, 3, 5, 8, 32, 33]


def _table(rows, seed=0):
    """Twelve columns (a group of 8 and a short one of 4) with 1 % NaN
    cells, a constant column, two categorical ones (6 and 9) and a -0.0
    beside a 0.0 in column 2."""
    x = data.synth_generate(data.desk_tiny_spec(seed=seed, n_columns=12), rows)[0].features
    rng = np.random.default_rng(seed)
    x[rng.random(x.shape) < 0.01] = np.nan
    x[:, 5] = 3.0
    x[:, 6] = np.floor(np.abs(x[:, 6])) % 4
    x[:, 9] = rng.integers(0, 5, rows)
    x[3, 2], x[4, 2] = -0.0, 0.0
    return x


class TestTableBuilds:
    def test_cases_cover_the_edges(self):
        assert {LANE_MIN_ROWS - 1, LANE_MIN_ROWS} <= set(TABLE_ROWS)
        assert any(r % data.SYNTH_WRITE_BLOCK_ROWS for r in TABLE_ROWS if r > data.SYNTH_WRITE_BLOCK_ROWS)
        assert any(c % data.SYNTH_COLUMN_GROUP for c in TABLE_COLUMNS if c > data.SYNTH_COLUMN_GROUP)
        assert 12 % encoders.FIT_COLUMN_GROUP and 12 > encoders.FIT_COLUMN_GROUP

    @pytest.mark.parametrize("columns", TABLE_COLUMNS)
    @pytest.mark.parametrize("rows", TABLE_ROWS)
    def test_synth_equals_the_serial_loop(self, rows, columns):
        spec = data.desk_tiny_spec(seed=rows + columns, n_columns=columns)
        ds, probs = data.synth_generate(spec, rows)
        want = serial_synth_generate(spec, rows)
        for got, expected in zip((ds.features, ds.labels, probs), want):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dirty", [False, True], ids=["clean", "dirty"])
    @pytest.mark.parametrize("kind", encoders.ENCODER_KINDS)
    def test_fit_equals_the_serial_loop(self, kind, dirty):
        rows = 4_097
        assert rows >= LANE_MIN_ROWS
        x = _table(rows) if dirty else data.synth_generate(data.desk_tiny_spec(seed=1, n_columns=12), rows)[0].features
        cat = (6, 9) if dirty else ()
        spec = EncoderSpec.fit(x, kind=kind, n_bins=16, categorical_columns=cat)
        want = serial_encoder_fit(x, kind=kind, n_bins=16, categorical_columns=cat)
        assert json.dumps(spec.to_dict()) == json.dumps(want.to_dict())
        assert spec.transform(x).tobytes() == want.transform(x).tobytes()

    @pytest.mark.parametrize("failing", [(3, 4), (2, 5), (4,), (7,)])
    def test_the_lowest_failing_column_raises(self, failing, monkeypatch):
        # each column's values start at 1,000 times its index, so the spy
        # knows which column it fits; odd columns fit on the lane, even
        # ones on the caller, and each raises its own type
        rows = LANE_MIN_ROWS
        x = np.random.default_rng(0).random((rows, 12)) + 1_000.0 * np.arange(12)
        fit_sorted_bins, where = encoders._fit_sorted_bins, {}

        def failing_bins(values, srt, n_bins):
            j = int(srt[0] // 1_000)
            where[j] = _on_lane()
            if j in failing:
                raise (LookupError if j % 2 else ValueError)(f"column {j} failed")
            return fit_sorted_bins(values, srt, n_bins)

        monkeypatch.setattr(encoders, "_fit_sorted_bins", failing_bins)
        with pytest.raises(Exception) as serial:
            serial_encoder_fit(x, n_bins=8)
        with pytest.raises(Exception) as got:
            EncoderSpec.fit(x, n_bins=8)
        assert type(got.value) is type(serial.value) and str(got.value) == str(serial.value)
        assert str(got.value) == f"column {min(failing)} failed"
        assert all(where[j] == bool(j % 2) for j in failing)

    @pytest.mark.parametrize("rows", [LANE_MIN_ROWS - 1, LANE_MIN_ROWS])
    def test_builds_take_the_lane_from_the_row_gate(self, rows, monkeypatch):
        # odd columns on the lane from LANE_MIN_ROWS rows on, all on the
        # caller below; and the lane calls none of the traced names
        draws, fits, traced = [], [], []
        sample, fit_column = data.SyntheticColumnSpec.sample, encoders._fit_column

        def sample_spy(self, n, rng):
            draws.append(_on_lane())
            return sample(self, n, rng)

        def fit_spy(col, *args):
            fits.append(_on_lane())
            return fit_column(col, *args)

        def traced_spy(fn, name):
            def spy(*args, **kwargs):
                traced.append((name, _on_lane()))
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(data.SyntheticColumnSpec, "sample", sample_spy)
        monkeypatch.setattr(encoders, "_fit_column", fit_spy)
        monkeypatch.setattr(nn_core, "sigmoid", traced_spy(nn_core.sigmoid, "nn_core.sigmoid"))
        monkeypatch.setattr(EncoderSpec, "transform", traced_spy(EncoderSpec.transform, "encoders.transform"))
        ds, _ = data.synth_generate(data.desk_tiny_spec(seed=0, n_columns=9), rows)
        EncoderSpec.fit(ds.features, kind="qle", n_bins=8).transform(ds.features)
        on_lane = 4 if rows >= LANE_MIN_ROWS else 0  # columns 1, 3, 5 and 7
        assert len(draws) == len(fits) == 9 and draws.count(True) == fits.count(True) == on_lane
        assert traced and not any(on_lane for _, on_lane in traced)

    def test_synth_peak_stays_near_the_table(self):
        # the table is 32 floats a row; one 4-column group, the logit, the
        # lane's and the caller's column temporaries and the intercept's
        # three buffers come on top: 40.3 floats a row in all (40.0 for one
        # column loop on one thread), held here to 42
        rows = 50_000
        data.synth_generate(data.desk_tiny_spec(seed=42), LANE_MIN_ROWS)  # the lane exists before the measured call
        peak = traced_peak(lambda: data.synth_generate(data.desk_tiny_spec(seed=42), rows))
        assert peak <= 42 * 8 * rows
