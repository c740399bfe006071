#!/usr/bin/env python3
"""The function-body statements of a package that a test run never executes.

    PYTHONPATH=src python3 tools/line_coverage.py [-- PYTEST_ARGS...]

Runs pytest in this process under ``sys.settrace`` (and ``threading.settrace``),
following only frames whose code lives under ``src/cosamp``, and prints, per
module, each statement inside a function or method body that no test reached:
``path:line: first line of the statement``, then a count.  Module-level and
class-level statements are left out, as they run on import.  A simple statement
counts as run when any of its lines ran; a compound one (``if``, ``for``,
``with``, ...) when its header did.  Docstrings are not statements here.  Work
done in child processes (a sweep with ``jobs > 1``) is not seen.  The exit code
is pytest's.

No coverage package is needed.  A simplicity change can use the listing to show
that code is unused before it deletes it; a validation branch listed here is one
no test gives a bad input.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cosamp"


def trace_lines(package: Path, run) -> tuple[object, dict[str, set[int]]]:
    """(``run()``'s result, {file: lines executed}) for the code under ``package``."""
    root = os.path.join(Path(package).resolve(), "")  # a trailing separator: not pkg2/
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(root):
            return None
        seen.setdefault(name, set()).add(frame.f_lineno)
        return local

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return result, seen


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _header_end(stmt: ast.stmt) -> int:
    """The last line of a statement's own text: its header if it has a body."""
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return max(stmt.lineno, body[0].lineno - 1)
    return stmt.end_lineno or stmt.lineno


def function_statements(tree: ast.Module) -> list[ast.stmt]:
    """Every statement inside a function body, nested blocks and functions included."""
    found = []

    def visit(body, inside):
        for index, stmt in enumerate(body):
            if inside and not (index == 0 and _is_docstring(stmt)):
                found.append(stmt)
            nested = inside or isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, field, None) or [], nested)
            for handler in getattr(stmt, "handlers", None) or []:
                visit(handler.body, nested)
            for case in getattr(stmt, "cases", None) or []:
                visit(case.body, nested)

    visit(tree.body, False)
    return found


def unrun_statements(path: Path, executed: set[int]) -> list[tuple[int, str]]:
    """(line, text) of each function-body statement in ``path`` with no executed line."""
    source = Path(path).read_text(encoding="utf-8")
    lines = source.splitlines()
    missed = []
    for stmt in function_statements(ast.parse(source)):
        span = range(stmt.lineno, _header_end(stmt) + 1)
        if not any(line in executed for line in span):
            missed.append((stmt.lineno, lines[stmt.lineno - 1].strip()))
    return sorted(missed)


def report(package: Path, seen: dict[str, set[int]]) -> tuple[str, int]:
    """The listing for every module under ``package``, and its statement count."""
    out, total = [], 0
    for path in sorted(Path(package).resolve().rglob("*.py")):
        missed = unrun_statements(path, seen.get(str(path), set()))
        total += len(missed)
        out.extend(f"{path}:{line}: {text}" for line, text in missed)
    out.append(f"{total} function-body statements never ran")
    return "\n".join(out), total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pytest_args", nargs="*", help="passed to pytest (after --)")
    args = parser.parse_args(argv)
    import pytest

    code, seen = trace_lines(PACKAGE, lambda: pytest.main(["-q", *args.pytest_args]))
    print(report(PACKAGE, seen)[0])
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
