"""List the lines of ``src/borno`` that a pytest run never executes.

    PYTHONPATH=src python tools/untested_lines.py [pytest arguments ...]

Runs pytest in this process with the given arguments under a line tracer
(``sys.settrace`` and ``threading.settrace``) that follows only frames whose
code lives in ``src/borno``.  Then it prints, per module, the executable
lines that never ran: the line numbers of the compiled code objects
(``co_lines``), leaving out lines that only ``raise``, and their total.
Code run in a child process (the CLI tests' subprocesses) is not seen.
Standard library only; tracing makes the run two to three times slower.
Exits with pytest's exit code.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "borno"


def executable_lines(path):
    """Line numbers of every code object compiled from ``path``, minus the
    lines of ``raise`` statements."""
    source = path.read_text()
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


def ranges(lines):
    """'3, 7-9, 12' for {3, 7, 8, 9, 12}."""
    runs = []
    for line in sorted(lines):
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


class LineTracer:
    """Collects (file, line) for frames of files under ``root``."""

    def __init__(self, root):
        self.root = str(root) + os.sep
        self.hits = {}    # absolute file name -> set of lines run
        self._files = {}  # co_filename -> its hit set, or None when outside

    def _lines_of(self, filename):
        if filename not in self._files:
            path = os.path.abspath(filename)
            self._files[filename] = (self.hits.setdefault(path, set())
                                     if path.startswith(self.root) else None)
        return self._files[filename]

    def __call__(self, frame, event, arg):
        lines = self._lines_of(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local


def main(argv):
    import pytest

    tracer = LineTracer(PACKAGE)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = executable_lines(path) - tracer.hits.get(str(path), set())
        total += len(missed)
        print(f"borno/{path.name}: {len(missed)} never ran"
              + (f": {ranges(missed)}" if missed else ""))
    print(f"total: {total} never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
