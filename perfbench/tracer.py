"""Span tracer that times calls into tkgmlp from outside the package.

The tracer replaces public functions at the module attributes their callers
look them up through (``kan.kan_forward`` for the model, the name
``batchnorm_forward`` inside ``gmlp`` for the gMLP block, and so on), records
one span per call in memory, and puts every original back when it is closed.
The program itself is not edited.

A span holds its name, start and end (``perf_counter`` seconds), the index
of the span that was open when it started, and the training step it ran in.
A step opens when ``TkgmlpModel.zero_grads`` is called inside
``trainer.train`` and closes when ``trainer.adam_step`` returns, so a step
covers zero_grads, forward, loss, backward and Adam.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

from tkgmlp import checkpoint, cli, data, encoders, gmlp, kan, metrics, model, nn_core, trainer


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    step: int  # training step the span ran in, -1 outside steps
    peak_mb: float | None = None  # traced allocation peak, where requested

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _train_flag(args, kwargs, position):
    return bool(kwargs["train"] if "train" in kwargs else args[position] if len(args) > position else False)


def _forward_name(args, kwargs):
    return "model.forward_train" if _train_flag(args, kwargs, 2) else "model.forward_infer"


def _dropout_name(args, kwargs):
    return "nn_core.dropout" if _train_flag(args, kwargs, 3) else "nn_core.dropout_infer"


# (owner, attribute, span name or name function). Functions that another
# module imported by name are wrapped in that module too, under one span name.
_TARGETS = [
    (trainer, "train", "trainer.train"),
    (trainer, "adam_step", "trainer.adam_step"),
    (model.TkgmlpModel, "zero_grads", "model.zero_grads"),
    (model.TkgmlpModel, "forward", _forward_name),
    (model.TkgmlpModel, "backward", "model.backward"),
    (model.TkgmlpModel, "snapshot", "model.snapshot"),
    (model.TkgmlpModel, "restore", "model.restore"),
    (kan, "kan_forward", "kan.forward"),
    (kan, "kan_backward", "kan.backward"),
    (kan, "basis_matrix", "spline.basis"),
    (kan, "basis_derivative_matrix", "spline.derivative"),
    (kan, "silu", "nn_core.silu"),
    (kan, "silu_derivative", "nn_core.silu_derivative"),
    (gmlp, "gmlp_block_forward", "gmlp.block_forward"),
    (gmlp, "gmlp_block_backward", "gmlp.block_backward"),
    (gmlp, "swiglu", "gmlp.swiglu"),
    (gmlp, "swiglu_backward", "gmlp.swiglu_backward"),
    (gmlp, "silu", "nn_core.silu"),
    (gmlp, "silu_derivative", "nn_core.silu_derivative"),
    (gmlp, "batchnorm_forward", "nn_core.batchnorm_forward"),
    (gmlp, "batchnorm_backward", "nn_core.batchnorm_backward"),
    (gmlp, "dropout_apply", _dropout_name),
    (nn_core, "batchnorm_forward", "nn_core.batchnorm_forward"),
    (nn_core, "batchnorm_backward", "nn_core.batchnorm_backward"),
    (nn_core, "dropout_apply", _dropout_name),
    (nn_core, "linear_forward", "nn_core.linear_forward"),
    (nn_core, "linear_backward", "nn_core.linear_backward"),
    (nn_core, "sigmoid", "nn_core.sigmoid"),
    (nn_core, "bce_loss", "nn_core.bce_loss"),
    (metrics, "ks", "metrics.ks"),
    (metrics, "auc", "metrics.auc"),
    (metrics, "roc_sweep", "metrics.roc_sweep"),
    (metrics, "compute_metrics", "metrics.compute_metrics"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (data, "load_csv", "data.load_csv"),
    (encoders.EncoderSpec, "fit", "encoders.fit"),
    (encoders.EncoderSpec, "transform", "encoders.transform"),
    (cli._COMMANDS, "evaluate", "cli.cmd_evaluate"),
    (cli._COMMANDS, "encode", "cli.cmd_encode"),
]


class Tracer:
    """Context manager: wraps the targets on entry, restores them on exit.

    Spans named in ``memory_spans`` also record the tracemalloc peak of
    their call, which slows them, so only the probe that reports it asks.
    """

    def __init__(self, memory_spans=()):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._memory_spans = set(memory_spans)
        self._step = -1
        self._n_steps = 0

    def __enter__(self):
        for owner, attr, name in _TARGETS:
            self._wrap(owner, attr, name)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _wrap(self, owner, attr, name):
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self._make(original, name)
        elif isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(self._make(original.__func__, name)))
            else:
                setattr(owner, attr, self._make(original, name))
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self._make(original, name))
        self._restore.append((owner, attr, original))

    def _make(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            return tracer._call(span_name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _in_train(self) -> bool:
        return any(self.spans[i].name == "trainer.train" for i in self._stack)

    def _call(self, name, fn, args, kwargs):
        if name == "model.zero_grads" and self._in_train():
            self._step = self._n_steps
            self._n_steps += 1
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._step)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        memory = name in self._memory_spans
        if memory:
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            if memory:
                span.peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            self._stack.pop()
            if name == "trainer.adam_step":
                self._step = -1

    # ---- summaries -------------------------------------------------------

    def named(self, name: str, in_step: bool | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name
                and (in_step is None or (s.step >= 0) == in_step)]

    def median_s(self, name: str, in_step: bool | None = None) -> float:
        return statistics.median(s.seconds for s in self.named(name, in_step))

    def per_step_s(self, name: str) -> float:
        """Median over training steps of the time a step spends in ``name``.

        Steps that never called ``name`` count as zero; nested calls of the
        same name are not double counted because each span's time is summed
        only when its parent has another name.
        """
        totals = defaultdict(float)
        for s in self.spans:
            if s.name == name and s.step >= 0 and (s.parent < 0 or self.spans[s.parent].name != name):
                totals[s.step] += s.seconds
        return statistics.median(totals.get(k, 0.0) for k in range(self._n_steps))

    def step_s(self) -> float:
        """Median wall time of a step, zero_grads start to adam_step end."""
        bounds = {}
        for s in self.spans:
            if s.step < 0:
                continue
            lo, hi = bounds.get(s.step, (s.start, s.end))
            bounds[s.step] = (min(lo, s.start), max(hi, s.end))
        return statistics.median(hi - lo for lo, hi in bounds.values())

    def validate_s(self) -> float:
        """Median per-epoch validation inside train: inference forward
        through the matching auc call."""
        trains = {i for i, s in enumerate(self.spans) if s.name == "trainer.train"}
        times, start = [], None
        for s in self.spans:
            if s.parent not in trains:
                continue
            if s.name == "model.forward_infer":
                start = s.start
            elif s.name == "metrics.auc" and start is not None:
                times.append(s.end - start)
                start = None
        return statistics.median(times)

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.seconds
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for s, c in zip(self.spans, child):
            row = out[s.name]
            row[0] += 1
            row[1] += s.seconds
            row[2] += s.seconds - c
        return {k: tuple(v) for k, v in out.items()}

    def self_s(self, name: str) -> float:
        return self.self_times()[name][2]

    def report(self, title: str) -> str:
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1][2])
        lines = [f"self times, {title} ({len(self.spans)} spans):",
                 f"  {'span':32s} {'calls':>7s} {'inclusive_s':>12s} {'self_s':>10s}"]
        lines += [f"  {name:32s} {calls:7d} {incl:12.4f} {own:10.4f}" for name, (calls, incl, own) in rows]
        return "\n".join(lines)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.step, s.peak_mb] for s in self.spans], fh)
