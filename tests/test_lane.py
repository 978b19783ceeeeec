"""The lane: the second thread of the train step (``nn_core.both`` and
``nn_core.row_halves``). The two-lane SwiGLU and KAN passes must give the
bits of the single-lane ones at every batch size, errors raised on the lane
must reach the caller, and only training may start the thread."""

import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from tkgmlp import gmlp, kan, nn_core
from tkgmlp.cli import main as cli_main
from tkgmlp.gmlp import GmlpBlockParams, swiglu, swiglu_backward
from tkgmlp.kan import kan_backward, kan_forward, kan_init
from tkgmlp.nn_core import LANE_MIN_ROWS, ShapeError

from .helpers import (
    single_lane_kan_backward,
    single_lane_kan_forward,
    single_lane_swiglu,
    single_lane_swiglu_backward,
)
from .test_cli import write_config

# 3 rows would split into halves of 1 and 2 rows, which OpenBLAS multiplies
# with kernels that round differently; 2,047 / 2,048 straddle LANE_MIN_ROWS
ROWS = [2, 3, 1_023, 2_047, 2_048, 2_049, 4_096, 4_097]
WIDTHS = [(4, 3), (32, 64), (64, 512)]


def _where(lo, hi, calls):
    calls.append((lo, hi, threading.current_thread() is threading.main_thread()))


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

    def test_errstate_does_not_reach_the_lane(self):
        # why work that relies on np.errstate stays on the caller
        zeros = np.zeros(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(divide="ignore"):
                assert np.log(zeros)[0] == -np.inf
                with pytest.raises(RuntimeWarning, match="divide by zero"):
                    nn_core.both(lambda: np.log(zeros), lambda: None, LANE_MIN_ROWS)

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


class TestThreads:
    def test_scoring_encoding_and_synth_start_no_thread(self, tmp_path):
        # 5,000 rows to score: a forward over them would reach the lane,
        # but predict's 1,024-row blocks stay below LANE_MIN_ROWS
        cfg = write_config(tmp_path, data={"rows": [600, 200, 5_000]})
        assert cli_main(["fit", "--config", str(cfg)]) == 0
        data_dir = tmp_path / "data"
        before = set(threading.enumerate())
        assert cli_main(["synth", "--config", str(cfg), "--set", f"output_dir={data_dir}"]) == 0
        assert cli_main(["evaluate", "--checkpoint", str(tmp_path / "out" / "model.ckpt"),
                         "--data", str(data_dir / "test.csv")]) == 0
        assert cli_main(["encode", "--config", str(cfg), "--data", str(data_dir / "test.csv"),
                         "--out", str(tmp_path / "encoded.csv")]) == 0
        assert set(threading.enumerate()) == before

    def test_training_starts_one_lane_thread(self):
        x = np.random.default_rng(0).normal(size=(LANE_MIN_ROWS, 4))
        swiglu(x, GmlpBlockParams.create(4, 3, 0.0, np.random.default_rng(1)))
        assert len(_lane_threads()) == 1

    def test_import_loads_no_executor(self):
        # scoring and encoding never use the lane, so they do not pay for
        # loading concurrent.futures either
        code = "import sys, tkgmlp.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

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
