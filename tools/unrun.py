"""List the statements of the kkinetics package that no test executes.

    python tools/unrun.py [PYTEST_ARGS ...]

runs pytest in this process (default arguments: ``-q -p no:cacheprovider``
and the repository's ``tests`` directory) under :func:`sys.settrace` and
:func:`threading.settrace`, then prints ``path:line`` for each statement
of ``src/kkinetics`` that raised no line event, paths relative to the
repository root.  Docstrings and ``global`` and ``nonlocal`` statements
run no code of their own, and ``def`` and ``class`` lines run at import:
none of them is listed.  A statement counts as
run if any of its own lines ran: the lines of a simple statement, or a
compound statement's lines before its first body statement.  Code run in
a subprocess is not seen.  The exit status is pytest's.

It needs nothing beyond the standard library and pytest.  The trace slows
the run about threefold.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kkinetics"

_UNTRACED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal)
_BODIES = ("body", "orelse", "finalbody", "handlers")


def _is_docstring(node: ast.AST, first: ast.stmt) -> bool:
    return (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str))


def statement_lines(source: str) -> dict[int, set[int]]:
    """Each listed statement of ``source``, by its first line, with the lines that are its own."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        for field in _BODIES:
            block = getattr(node, field, None)
            for i, child in enumerate(block if isinstance(block, list) else ()):
                # an except clause is not a statement: ast.walk reaches its body
                if (not isinstance(child, ast.stmt) or isinstance(child, _UNTRACED)
                        or (i == 0 and field == "body" and _is_docstring(node, child))):
                    continue
                inner = [s.lineno for f in _BODIES for s in getattr(child, f, ())]
                last = min(inner) - 1 if inner else child.end_lineno
                out[child.lineno] = set(range(child.lineno, max(last, child.lineno) + 1))
    return out


def unrun(hits: set[tuple[str, int]], package: Path = PACKAGE) -> list[tuple[Path, int]]:
    """The listed statements of each module of ``package`` with no line in ``hits``."""
    missed = []
    for path in sorted(package.resolve().glob("*.py")):
        ran = {line for name, line in hits if name == str(path)}
        for first, lines in sorted(statement_lines(path.read_text()).items()):
            if not lines & ran:
                missed.append((path, first))
    return missed


def traced(run, package: Path = PACKAGE) -> tuple[object, set[tuple[str, int]]]:
    """``run()``'s result and the (file, line) events it raised in ``package``."""
    hits: set[tuple[str, int]] = set()
    known: dict[str, str | None] = {}  # co_filename -> resolved module path, or None
    prefix = str(package.resolve()) + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits.add((known[frame.f_code.co_filename], frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            path = os.path.realpath(name)
            known[name] = path if path.startswith(prefix) else None
        return None if known[name] is None else local

    before = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    return result, hits


def main(argv: list[str]) -> int:
    import pytest

    args = argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
    status, hits = traced(lambda: pytest.main(args))
    for path, line in unrun(hits):
        print(f"{path.relative_to(ROOT)}:{line}")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
