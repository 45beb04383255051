"""Every public name in ``src/currentkit`` has a caller outside the tests.

A function, class or method that only the tests call is a test hook on the
production code; it belongs in the tests beside the oracle it serves.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "currentkit"

# Public names that need no production caller, each with its reason.
EXEMPT = {
    # the module caches hold the last graphs' tables for the life of the
    # process; this is the one handle that gives their memory back, and the
    # tests use it to start each timing or refusal check from cold caches
    "clear_caches": "the one way to empty the module caches",
}


def _public_defs(tree: ast.Module):
    """Public top-level functions and classes, and the public methods of
    every top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def _uses(node: ast.AST) -> Counter:
    """Occurrences of each name as an ``ast.Name`` or an ``ast.Attribute``."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def test_every_public_name_has_a_production_caller():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    callers = sorted(modules + list((ROOT / "perfbench").glob("*.py")))
    trees = {p: ast.parse(p.read_text(), str(p)) for p in callers}
    used = sum((_uses(t) for t in trees.values()), Counter())
    unused = sorted(f"{p.name}:{d.name}" for p in modules for d in _public_defs(trees[p])
                    if d.name not in EXEMPT and used[d.name] == _uses(d)[d.name])
    assert not unused, f"public names with no caller outside the tests: {unused}"
