"""The benchmark's span tracer (perfbench/tracer.py) replaces library names
from outside the package. Entering and leaving it here must find every
name it wraps and put each one back, so renaming or deleting such a name
fails this suite, not only a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

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
