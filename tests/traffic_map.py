"""List the statements of ``src/currentkit`` that neither ``currentkit run all``
nor the benchmark's workloads execute.

    python tests/traffic_map.py

A ``sys.settrace`` tracer records the lines that run in frames of the
package's own files; it is installed before the package is imported, so
module-level statements count. Then ``run all`` writes its report into a
temporary directory, and every step of every workload of
perfbench/workloads.py, loaded read-only from its file as
tests/test_workloads.py loads it, runs once for seed 1.

A statement ran when one of its own lines ran: all its lines for a simple
statement, its header for a compound one (``if``, ``for``, ``def``).
Statements that compile to no code, such as docstrings,
are not counted. The output lists, by file and function, the line ranges
of the statements that never ran, then their number.
"""
from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "currentkit")
WORKLOADS_PY = os.path.join(ROOT, "perfbench", "workloads.py")

_ran: dict = defaultdict(set)                # file -> lines that ran


def _line(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    """Trace the lines of package frames only."""
    return _line if frame.f_code.co_filename.startswith(PACKAGE) else None


def _code_lines(code) -> set:
    """Lines of ``code`` and of the code objects nested in it that hold code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path: str) -> list:
    """(function, first line, last line, own lines) of every statement of
    the file that compiles to code, in source order; ``function`` is the
    dotted name of the innermost enclosing def or class, or ``<module>``."""
    source = open(path).read()
    has_code = _code_lines(compile(source, path, "exec"))
    out = []

    def visit(body, scope):
        for node in body:
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                continue                                  # docstrings
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            end = node.body[0].lineno - 1 if hasattr(node, "body") else node.end_lineno
            own = set(range(first, max(first, end) + 1))
            if own & has_code:
                out.append((scope, first, node.end_lineno, own))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(node.body, node.name if scope == "<module>" else f"{scope}.{node.name}")
                continue
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), scope)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, scope)

    visit(ast.parse(source).body, "<module>")
    return out


def _misses(path: str) -> dict:
    """{function: [(first, last) line range of statements that never ran]},
    consecutive misses of a function merged into one range."""
    ran = _ran.get(path, set())
    out: dict = {}
    last_hit: dict = {}
    for scope, first, last, own in sorted(_statements(path), key=lambda s: s[1]):
        if own & ran:
            last_hit[scope] = first
            continue
        runs = out.setdefault(scope, [])
        if runs and last_hit.get(scope, -1) < runs[-1][0]:
            runs[-1] = (runs[-1][0], max(runs[-1][1], last))
        else:
            runs.append((first, last))
    return out


def _run() -> None:
    from currentkit import cli

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        cli.main(["run", "all", "--out", os.path.join(tmp, "report")])
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        for name, (setup, steps) in mod.WORKLOADS.items():
            for _, step in steps(setup(1, os.path.join(tmp, name))):
                step()


def main() -> int:
    sys.path.insert(0, os.path.dirname(PACKAGE))
    start = time.perf_counter()
    sys.settrace(_call)
    try:
        _run()
    finally:
        sys.settrace(None)
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        misses = _misses(os.path.join(PACKAGE, name))
        for scope, runs in misses.items():
            spans = ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)
            print(f"{name}  {scope}: {spans}")
            total += len(runs)
    print(f"{total} ranges of statements never ran "
          f"(run all and the workloads, {time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
