"""Puts this checkout's ``src`` on PYTHONPATH as well as on ``sys.path``
(``pythonpath`` in pyproject.toml), so that the Python processes the tests
start import the package under test without a PYTHONPATH of their own."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
