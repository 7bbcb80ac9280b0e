"""Rules on the source of ``src/bpnet``, checked on its syntax tree.

Invariants in the package must hold under ``python -O``, which strips
``assert``: every check raises explicitly instead, and ``bpn validate``
reports the same under ``-O`` as without it.  The model and the
simulator must not import the rule engine, the parser builds no model
value and the search no net spec itself, the search matches no record
fields itself, the statement readers call no per-token cursor method,
the rules name no validation scope, no value stores a port fact twice,
only ``core`` writes a model's cached tables, and only ``core`` writes
sort text, and only ``core`` reads a model's stored findings; a walk's
carried findings equal a full validation's under ``-O``; and each rule
has one public form, its script step."""

from __future__ import annotations

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bpnet.core import Model, Port

from genmodels import chain_text

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "bpnet").glob("*.py"))


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
SPEC_VALUES = {"NetSpec", "ProcessSpec", "RuleSpec"}


def _tree(name: str) -> ast.AST:
    path = next(p for p in SOURCES if p.name == name)
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _calls(tree: ast.AST, names: set[str]) -> list[tuple[int, str]]:
    return [
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
        if name in names
    ]


def test_parser_builds_no_model_values():
    """Model construction belongs to ``refine.build_subnet``: the parser hands
    it the top level and each ``net for`` block, and forms no id itself."""
    calls = _calls(_tree("textio.py"), MODEL_VALUES)
    assert calls == [], f"textio.py constructs model values: {calls}"


def test_search_builds_no_net_spec():
    """A ``decompose`` candidate's subnet comes from ``refine.net_spec``, the
    exporter the printer uses: the search writes no spec of its own."""
    calls = _calls(_tree("check.py"), SPEC_VALUES)
    assert calls == [], f"check.py constructs specs: {calls}"


def test_search_reads_no_record_fields():
    """Which fields a split part takes is ``refine.part_fields``' rule: the
    search reads no record's fields, so it cannot grow a copy of it."""
    lines = [
        node.lineno
        for node in ast.walk(_tree("check.py"))
        if isinstance(node, ast.Attribute)
        and node.attr in {"fields", "field_sort", "field_names"}
    ]
    assert lines == [], f"check.py reads record fields on lines {lines}"


def test_each_port_fact_is_stored_once():
    """A port lives in the process holding it: the model derives its port
    index, and the holder is the owner, so no value stores either again."""
    assert "ports" not in {f.name for f in dataclasses.fields(Model)}
    assert "owner" not in {f.name for f in dataclasses.fields(Port)}
    passed = [
        (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        in {"Model", "replace"}
        and any(kw.arg == "ports" for kw in node.keywords)
    ]
    assert passed == [], f"ports= passed to Model or replace: {passed}"


def test_statement_readers_read_tokens_by_index():
    """The readers of net statements, and every reader they call, test the
    token list by index: none calls a per-token cursor method."""
    tree = _tree("textio.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    readers, todo = set(), ["_parse_net_statements"]
    while todo:
        name = todo.pop()
        if name not in readers:
            readers.add(name)
            todo += [n for _, n in _calls(functions[name], set(functions))]
    assert {"_parse_process_block", "_parse_rule_stmt", "_parse_labeled_ports"} <= readers
    per_token = {"take", "peek", "skip", "at", "take_punct", "take_ident", "skip_separators"}
    calls = [(name, c) for name in sorted(readers) for c in _calls(functions[name], per_token)]
    assert calls == [], f"statement readers call cursor methods: {calls}"


def test_rules_name_no_validation_scope():
    """What a rule must re-check follows from what it changed, which
    ``core.validate_change`` derives: no rule picks the nets and processes
    to check itself."""
    calls = _calls(_tree("refine.py"), {"validate_scope"})
    assert calls == [], f"refine.py calls validate_scope: {calls}"


ID_LEVEL_RULES = {
    "decompose_process",
    "add_channel",
    "assign_sort",
    "split_port",
    "fold",
    "unfold",
    "Endpoint",
}


def test_one_public_form_per_rule():
    """A rule's public form is its script step: neither the package nor
    ``refine`` exports an id-level rule function.  ``refine.unfold`` is
    still defined, because the benchmark's spans wrap it by name."""
    import bpnet
    from bpnet import refine

    for module in (bpnet, refine):
        exported = ID_LEVEL_RULES & set(module.__all__)
        assert exported == set(), f"{module.__name__} exports {sorted(exported)}"
    assert callable(getattr(refine, "unfold", None))


CACHED_TABLES = {"_interfaces", "_containers"}


def _instance_dict(node: ast.AST) -> bool:
    """Whether ``node`` is ``x.__dict__`` or ``vars(x)``."""
    return (isinstance(node, ast.Attribute) and node.attr == "__dict__") or (
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars"
    )


def _table_writes(tree: ast.AST) -> list[int]:
    """Lines writing a cached model table into an instance ``__dict__``: a
    subscript store whose key is a table's name, or into an instance dict
    by a key that is not a constant; an ``update`` or ``setdefault`` of an
    instance dict; or a ``setattr`` naming a table."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            key = node.slice
            if not isinstance(key, ast.Constant):
                if _instance_dict(node.value):
                    found.append(node.lineno)
            elif key.value in CACHED_TABLES:
                found.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in {"update", "setdefault"} and _instance_dict(getattr(func, "value", None)):
                found.append(node.lineno)
            elif name in {"setattr", "__setattr__"} and any(
                isinstance(arg, ast.Constant) and arg.value in CACHED_TABLES for arg in node.args
            ):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize(
    "snippet",
    [
        "m.__dict__['_interfaces'] = t",
        "vars(m)['_containers'] = t",
        "m.__dict__[name] = t",
        "cache = m.__dict__; cache['_interfaces'] = t",
        "m.__dict__.update(_containers=t)",
        "object.__setattr__(m, '_interfaces', t)",
    ],
)
def test_table_write_is_found(snippet):
    assert _table_writes(ast.parse(snippet)) == [1]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "core.py"], ids=lambda p: p.name
)
def test_only_core_carries_cached_tables(path):
    """A model's port index and containment map are built, or carried from
    the model a rule ran on, in ``core`` alone: no other module writes them
    into a model's ``__dict__``."""
    lines = _table_writes(_tree(path.name))
    assert lines == [], f"{path.name}: writes a cached table on lines {lines}"


# a model's stored findings, and the mark of a change found clean
MODEL_FACTS = {"_findings", "_clean_change"}


def _fact_uses(tree: ast.AST) -> list[int]:
    """Lines naming a model's stored findings or its clean mark, as a
    constant or an attribute, or reading an instance dict by a key that is
    not a constant."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in MODEL_FACTS:
            found.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in MODEL_FACTS:
            found.add(node.lineno)
        elif isinstance(node, ast.Subscript) and _instance_dict(node.value):
            if not isinstance(node.slice, ast.Constant):
                found.add(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if _instance_dict(node.func.value) and not all(
                isinstance(arg, ast.Constant) for arg in node.args[:1]
            ):
                found.add(node.lineno)
    return sorted(found)


@pytest.mark.parametrize(
    "snippet",
    [
        "m.__dict__['_findings'] = ()",
        "vars(m).get('_clean_change')",
        "m.__dict__.pop('_findings', None)",
        "cache = m.__dict__; cache['_clean_change'] = mark",
        "getattr(m, '_findings')",
        "m._clean_change",
        "vars(m)[key]",
        "m.__dict__.get(key)",
    ],
)
def test_fact_use_is_found(snippet):
    assert _fact_uses(ast.parse(snippet)) == [1]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "core.py"], ids=lambda p: p.name
)
def test_only_core_reads_stored_findings(path):
    """Whether a model's findings are stored, or may be carried clean from
    the model a rule ran on, is ``core``'s business alone: no other module
    reads or writes either in a model's ``__dict__``."""
    lines = _fact_uses(_tree(path.name))
    assert lines == [], f"{path.name}: uses a model's stored findings on lines {lines}"


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "core.py"], ids=lambda p: p.name
)
def test_record_sort_text_only_in_core(path):
    """Sort text comes from ``str`` of a ``core.SortExpr``; no other module
    spells a record sort itself."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "record {" in node.value
    ]
    assert lines == [], f"{path.name}: record sort text on lines {lines}"


def _validate(path: Path, *flags: str) -> tuple[int, str]:
    path_entries = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "BPN_COLOR": "never", "PYTHONPATH": os.pathsep.join(path_entries)}
    done = subprocess.run(
        [sys.executable, *flags, "-m", "bpnet.cli", "validate", str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.returncode, done.stdout


@pytest.mark.parametrize(
    "name, text, code",
    [
        ("chain", chain_text(1500), 0),
        (
            "library-closed",
            (ROOT / "fixtures" / "library.bpn").read_text(encoding="utf-8").replace(
                "  input retrieve_book.in_1",
                "  channel notify_user.out_1 -> retrieve_book.in_1\n  input retrieve_book.in_1",
            ),
            1,
        ),
    ],
    ids=["chain", "library-closed"],
)
def test_validate_under_optimize(tmp_path, name, text, code):
    """``bpn validate`` under ``python -O`` prints what it prints without."""
    path = tmp_path / f"{name}.bpn"
    path.write_text(text, encoding="utf-8")
    plain = _validate(path)
    assert plain[0] == code, plain
    assert _validate(path, "-O") == plain


CARRIED_WALKS = """
import dataclasses, random
from bpnet import core
from genmodels import gen_model, propose_step
keeps, kept = core._keeps_tree, []
core._keeps_tree = lambda *change: kept.append(keeps(*change)) or kept[-1]
for seed in range(5):
    model = gen_model(seed, max_depth=3, max_members=6)
    rng = random.Random(seed)
    for step in range(40):
        model, _ = propose_step(model, rng)
        found = core.validate_model(model)
        if found or found != core.validate_model(dataclasses.replace(model)):
            raise SystemExit(f"seed {seed} step {step}: {found}")
print(__debug__, kept.count(True), kept.count(False))
"""


def _walk(*flags: str) -> tuple[int, str, str]:
    path_entries = filter(
        None, [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")]
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path_entries)}
    done = subprocess.run(
        [sys.executable, *flags, "-c", CARRIED_WALKS],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def test_carried_findings_under_optimize():
    """Walks that validate every step carry each result's findings, equal
    to a full validation's, under ``python -O`` as without it."""
    assert _walk() == (0, "True 195 0\n", "")
    assert _walk("-O") == (0, "False 195 0\n", "")
