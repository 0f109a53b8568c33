"""List the statements of ``src/sspectrum`` that the test suite never runs.

    PYTHONPATH=src python3 tests/line_coverage.py [PYTEST ARGS]

Runs pytest on ``tests/`` in this process with a line tracer
(``sys.settrace`` and ``threading.settrace``) that follows only frames
whose code lies in ``src/sspectrum/``, then prints ``path:line:
statement`` for every statement that no test ran, and a count.
Docstrings, ``def`` and ``class`` lines and imports are not listed.  A
compound statement counts as run when a line of its header did, a
simple one when any of its lines did; ``try:`` itself is not listed.
Commands that the tests start in a subprocess are not traced, but they
need the package on ``PYTHONPATH``.  Only the standard library is used.

The exit status is pytest's.  The file is not collected by pytest.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sspectrum"
PREFIX = str(PACKAGE) + "/"


# never listed: def, class and import lines run at import whatever the
# tests do, and a try is judged by the statements in it
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
           ast.Import, ast.ImportFrom, ast.Try)


def _statements(tree):
    """(first, last) line of each listed statement: the lines that count
    as running it."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) \
                or (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, max(node.lineno, last)


def main(argv) -> int:
    import pytest

    ran = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(PREFIX):
            return None
        ran.setdefault(name, set())
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        seen = ran.get(str(path), set())
        for first, last in sorted(_statements(ast.parse(source))):
            if not seen.intersection(range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
