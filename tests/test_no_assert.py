"""Rules on the source of ``src/bpnet``, checked on its syntax tree.

Invariants in the package must hold under ``python -O``, which strips
``assert``: every check raises explicitly instead.  The model and the
simulator must not import the rule engine, and the parser builds no model
value itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "bpnet").glob("*.py"))


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


def _imported_modules(tree: ast.AST) -> set[str]:
    """Dotted names of the modules a source file imports, relative ones as
    ``.name`` (``from . import refine`` gives ``.refine``)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            found.add(base)
            sep = "." if node.module else ""
            found.update(base + sep + alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("name", ["core.py", "sim.py"])
def test_no_rule_engine_import(name):
    """The model and the simulator stand below the rule engine: they must not
    reach ``refine``, so simulation never runs a validated rule."""
    path = next(p for p in SOURCES if p.name == name)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reached = {m for m in _imported_modules(tree) if "refine" in m.split(".")}
    assert reached == set(), f"{name} imports {sorted(reached)}"


MODEL_VALUES = {"Process", "Port", "Channel", "ProcessNet", "InterfaceBinding", "FiringRule"}


def test_parser_builds_no_model_values():
    """Model construction belongs to ``refine.build_subnet``: the parser hands
    it the top level and each ``net for`` block, and forms no id itself."""
    path = next(p for p in SOURCES if p.name == "textio.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = [
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
        if name in MODEL_VALUES
    ]
    assert calls == [], f"textio.py constructs model values: {calls}"
