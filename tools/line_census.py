"""Line census: the function-body lines of a package that no test executes.

Runs pytest in this interpreter under a ``sys.settrace`` tracer limited to
``src/skewcodes``, then prints, module by module, each line of a
function body whose statement never ran, and the totals.  It uses only the
standard library, besides the pytest it runs.

    python tools/line_census.py [PYTEST-ARGUMENTS]

The arguments go to pytest and default to ``-q -p no:cacheprovider``; run it
from the root of the repository.  A counted line is the first line of a
statement inside a function or method body that the compiler gives code:
docstrings, ``def`` and ``class`` lines and module- or class-level
statements are not counted.  The tracer does not see subprocesses (the
cold CLI tests), and it slows the suite many times over, so a test with a
wall-clock bound may fail under it; the census is not part of Tier-1.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

SRC = "src/skewcodes"
_BLOCKS = ("body", "orelse", "finalbody", "handlers", "cases")


def _statements(stmts, qualname):
    """(line, qualname) for each statement of a function body, nested
    blocks included; a nested def or class is walked as its own scope."""
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scope(stmt, qualname)
            continue
        if not isinstance(stmt, (ast.Global, ast.Nonlocal)):
            yield stmt.lineno, qualname
        for field in _BLOCKS:
            for block in getattr(stmt, field, ()):
                # an except handler or a match case is no statement: its .body holds them
                yield from _statements([block] if isinstance(block, ast.stmt) else block.body,
                                       qualname)


def _scope(node, outer):
    name = f"{outer}.{node.name}" if outer else node.name
    body = node.body
    if isinstance(node, ast.ClassDef):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from _scope(stmt, name)
        return
    if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    yield from _statements(body, name)


def _code_lines(code, top=True):
    """The lines with bytecode in every function code object under code."""
    lines = set() if top else {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const, top=False)
    return lines


def body_lines(path):
    """line -> qualified function name for each counted line of a module."""
    source = Path(path).read_text(encoding="utf-8")
    tree = ast.parse(source)
    compiled = _code_lines(compile(source, str(path), "exec"))
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for line, name in _scope(node, ""):
                if line in compiled:
                    found.setdefault(line, name)
    return found


class LineTracer:
    """Records (file, line) for every line event in files under root; seen
    holds each file name as its code object gives it."""

    def __init__(self, root):
        self.root = os.path.join(os.path.realpath(root), "")
        self.inside = {}   # file name -> whether it lies under root
        self.seen = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.seen.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        inside = self.inside.get(name)
        if inside is None:
            inside = self.inside[name] = os.path.realpath(name).startswith(self.root)
        return self._local if inside else None

    def __enter__(self):
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def census(root, seen):
    """module -> [(line, qualname, source text)] of the counted lines not in
    seen, and (counted, missed) totals."""
    seen = {(os.path.realpath(name), line) for name, line in seen}
    report, counted = {}, 0
    for path in sorted(Path(os.path.realpath(root)).rglob("*.py")):
        lines = body_lines(path)
        counted += len(lines)
        text = path.read_text(encoding="utf-8").splitlines()
        missed = [(line, name, text[line - 1].strip()) for line, name in sorted(lines.items())
                  if (str(path), line) not in seen]
        if missed:
            report[path.relative_to(os.path.realpath(root)).as_posix()] = missed
    return report, (counted, sum(map(len, report.values())))


def main():
    import pytest

    with LineTracer(SRC) as tracer:
        status = pytest.main(sys.argv[1:] or ["-q", "-p", "no:cacheprovider"])
    report, (counted, missed) = census(SRC, tracer.seen)
    for module, lines in report.items():
        print(f"{module}: {len(lines)} not executed")
        for line, name, text in lines:
            print(f"  {line:5d}  {name}: {text}")
    print(f"total: {missed} of {counted} function-body lines not executed "
          f"(pytest exit status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
