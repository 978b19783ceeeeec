"""The benchmark's span tracer (perfbench/tracer.py) replaces library names
from outside the package. Entering and leaving it here must find every
name it wraps and put each one back, so renaming or deleting such a name
fails this suite, not only a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from tkgmlp import nn_core, trainer
from tkgmlp.model import ModelConfig, build_model

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # registered first: its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _lookup(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def test_tracer_wraps_and_restores_every_name():
    try:
        tracer = _load_tracer()
        targets = [(owner, attr) for owner, attr, _ in tracer._TARGETS]
        before = [_lookup(*t) for t in targets]
        with tracer.Tracer():
            during = [_lookup(*t) for t in targets]
        after = [_lookup(*t) for t in targets]
    finally:
        sys.modules.pop("perfbench_tracer", None)
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_spans_nest_in_a_two_lane_train_step():
    # the tracer keeps one span stack for every thread, so a traced name
    # called on the lane would open a span inside whatever the caller has
    # open, could outlast it, and would overlap its siblings in time; at
    # width 256 the halves' passes are long enough to overlap
    rows = 4_096
    assert rows >= nn_core.LANE_MIN_ROWS
    model = build_model(ModelConfig(input_dim=8, hidden_dim=256, kan_layers=2, gmlp_layers=2, dropout=0.3), seed=0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(rows, 8))
    labels = (rng.random(rows) < 0.3).astype(np.float64)
    params = model.trainable_parameters()
    adam = trainer.AdamState(params)
    try:
        tracer = _load_tracer()
        with tracer.Tracer() as tr:
            model.zero_grads()
            scores, cache = model.forward(x, train=True, rng=rng)
            _, dscores = nn_core.bce_loss(scores, labels)
            model.backward(dscores, cache)
            trainer.adam_step(params, adam, 1e-3)
    finally:
        sys.modules.pop("perfbench_tracer", None)
    spans = tr.spans
    names = {s.name for s in spans}
    assert {"gmlp.swiglu", "gmlp.swiglu_backward", "kan.forward", "kan.backward"} <= names
    children = {}
    for s in spans:
        assert s.start <= s.end
        if s.parent >= 0:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end, (s.name, parent.name)
        children.setdefault(s.parent, []).append(s)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.start)
        for a, b in zip(siblings, siblings[1:]):
            assert a.end <= b.start, (a.name, b.name)
