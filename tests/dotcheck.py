"""A small structural checker for the DOT output (no graphviz dependency)."""

from __future__ import annotations

import re

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<id>[A-Za-z_][A-Za-z0-9_]*|"(?:[^"\\]|\\.)*")
        |(?P<punct>->|[{}\[\]=;,])
    )""",
    re.VERBOSE,
)

_NAME = re.compile(r'^[A-Za-z_]|^"')


def tokenize_dot(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise AssertionError(f"DOT: cannot tokenize at ...{text[pos:pos + 20]!r}")
        tokens.append(m.group("id") or m.group("punct"))
        pos = m.end()
    return tokens


def check_dot(text: str) -> int:
    """Assert the text is a well-formed digraph whose edges join declared
    nodes; returns the node count."""
    toks = tokenize_dot(text)
    assert toks and toks[0] == "digraph", "must start with 'digraph'"
    i = 1
    if toks[i] != "{":
        i += 1  # optional graph name
    assert toks[i] == "{", "missing opening brace"
    i += 1
    nodes = 0
    declared: set[str] = set()
    endpoints: set[str] = set()
    depth = 1

    def parse_attrs(start: int) -> int:
        assert toks[start] == "["
        j = start + 1
        while toks[j] != "]":
            assert _NAME.match(toks[j]), f"bad attribute name {toks[j]!r}"
            assert toks[j + 1] == "=", "attribute needs '='"
            assert _NAME.match(toks[j + 2]), f"bad attribute value {toks[j + 2]!r}"
            j += 3
            if toks[j] == ",":
                j += 1
        return j + 1

    while i < len(toks):
        tok = toks[i]
        if tok == "}":
            depth -= 1
            i += 1
            if depth == 0:
                break
            continue
        if tok == "subgraph":
            assert _NAME.match(toks[i + 1]), "subgraph needs a name"
            assert toks[i + 2] == "{", "subgraph needs a brace"
            depth += 1
            i += 3
            continue
        assert _NAME.match(tok), f"unexpected token {tok!r}"
        if tok in ("node", "edge", "graph") and i + 1 < len(toks) and toks[i + 1] == "[":
            i = parse_attrs(i + 1)  # defaults statement, not a node
        elif i + 1 < len(toks) and toks[i + 1] == "=":
            assert _NAME.match(toks[i + 2]), "bad graph attribute value"
            i += 3  # graph-level attribute like rankdir=LR
        elif i + 1 < len(toks) and toks[i + 1] == "->":
            assert _NAME.match(toks[i + 2]), "edge needs a target"
            endpoints.update((tok, toks[i + 2]))
            i += 3
            if i < len(toks) and toks[i] == "[":
                i = parse_attrs(i)
        else:
            nodes += 1
            declared.add(tok)
            i += 1
            if i < len(toks) and toks[i] == "[":
                i = parse_attrs(i)
        if i < len(toks) and toks[i] == ";":
            i += 1
    assert depth == 0, "unbalanced braces"
    assert i == len(toks), "trailing tokens after closing brace"
    undeclared = sorted(endpoints - declared)
    assert not undeclared, f"edges end at undeclared nodes {undeclared}"
    return nodes
