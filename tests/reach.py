"""Line reach of ``src/tkgmlp`` under the test suite, as a pytest plugin:

    python -m pytest -p tests.reach

It traces every frame whose code lives in ``src/tkgmlp`` through
``sys.settrace`` and ``threading.settrace`` (so the two-lane worker is
traced too), and at the end of the session prints, per file, the
executable lines that no test ran: the lines of every code object nested in
the module (functions, methods, class bodies, generator expressions), from
``co_lines``. The module's own top level runs at import and is left out.

Tests that run the package in a child process (``subprocess``,
``python -m tkgmlp``) are not traced, so lines that only they reach are
listed as unrun. Tracing makes the suite several times slower. No coverage
tool is needed; the module is not collected as a test file.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tkgmlp"


def executable_lines(path) -> set[int]:
    """The line numbers of the code objects nested in the module at
    ``path``, less the module's top level."""
    module = compile(Path(path).read_text(), str(path), "exec")
    lines: set[int] = set()
    stack = [c for c in module.co_consts if isinstance(c, types.CodeType)]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def spans(lines) -> str:
    """Sorted line numbers as runs: [3, 4, 5, 9] -> '3-5, 9'."""
    runs: list[list[int]] = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(lo) if lo == hi else f"{lo}-{hi}" for lo, hi in runs)


class Reach:
    """The lines run in the ``.py`` files under ``root`` while started."""

    def __init__(self, root):
        self.root = Path(root).resolve()
        self.prefix = str(self.root) + os.sep
        self.hits: dict[str, set[int]] = {}
        self._previous = None

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self.prefix):
            return None
        self.hits.setdefault(name, set()).add(frame.f_lineno)
        return self._local

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def start(self):
        self._previous = (sys.gettrace(), threading.gettrace())
        threading.settrace(self._global)
        sys.settrace(self._global)

    def stop(self):
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])

    def unrun(self) -> dict[Path, list[int]]:
        """Per file under ``root`` with any, its executable lines not run."""
        report = {}
        for path in sorted(self.root.rglob("*.py")):
            missed = executable_lines(path) - self.hits.get(str(path), set())
            if missed:
                report[path] = sorted(missed)
        return report


_REACH = Reach(PACKAGE)


def pytest_configure(config):
    _REACH.start()


def pytest_terminal_summary(terminalreporter):
    _REACH.stop()
    report = _REACH.unrun()
    terminalreporter.section("lines of src/tkgmlp that no test ran")
    for path, lines in report.items():
        terminalreporter.write_line(f"{path.relative_to(PACKAGE.parent)}: {spans(lines)}")
    terminalreporter.write_line(f"{sum(map(len, report.values()))} lines in {len(report)} files")
