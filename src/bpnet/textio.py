"""Text format for models and refinement scripts, plus DOT export.

Line ends, like blanks, only separate tokens: a statement may span lines,
and one line may hold several statements (``;`` may also separate them).
``#`` starts a comment that runs to the end of its line; files are UTF-8.
Model files (``.bpn``) declare sorts, a root process, and one ``net for
<path>`` block per decomposed process; member processes are declared inside
the block of the net containing them.  Each block is read as a decomposition
of its owner and built by ``refine.build_subnet``, the builder the
``decompose`` rule uses.  Script files (``.bps``) hold a sequence of rule
invocations.  Parsing tolerates ill-formed nets: the validator owns all
constraint checking.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from . import core
from .core import (
    INPUT,
    OUTPUT,
    WHOLE,
    AtomicSort,
    CollectionExpr,
    CollectionSort,
    InterfaceBinding,
    Model,
    Port,
    PortId,
    Process,
    ProcessId,
    ProcessNet,
    RecordExpr,
    RecordSort,
    Sort,
    SortExpr,
    SortNameRef,
)
from .errors import (
    DuplicateDefinitionError,
    InterfaceMismatchError,
    ParseError,
    SourceSpan,
    UnknownPortError,
    UnknownRuleNameError,
    UnknownSortNameError,
)
from .refine import (
    AddChannelStep,
    AssignSortStep,
    DecomposeStep,
    FoldStep,
    NetSpec,
    PartSpec,
    PortRef,
    ProcessSpec,
    RefinementScript,
    RuleSpec,
    SplitPortStep,
    UnfoldStep,
    build_subnet,
    net_spec,
)

RESERVED = frozenset(
    """sort process net for in out note rule needs produces using channel
       input output binds record seq set as""".split()
)

# The most record and collection sorts one sort expression may nest: every
# command recurses once or more per level of a sort.
MAX_SORT_NESTING = 100

# One alternative per token kind; ``bad`` takes the first character that no
# other alternative accepts, including the quote of an unterminated string.
_TOKEN = re.compile(
    r"""[ \t]+
      | (?P<comment>\#)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | "(?P<string>[^"]*)"
      | (?P<punct>->|[{}:;,.=-])
      | (?P<bad>.)""",
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # ident | string | punct
    text: str
    line: int
    column: int


class _Cursor:
    """The tokens of a text, read one at a time.

    Line ends, like blanks, only separate tokens.  ``end`` is the position
    just past the last line, where an error at the end of input points.
    """

    def __init__(self, text: str, filename: str):
        self.tokens: list[Token] = []
        self.pos = 0
        self.filename = filename
        lines = text.splitlines() or [""]
        for lineno, line in enumerate(lines, start=1):
            for m in _TOKEN.finditer(line):
                kind = m.lastgroup
                if kind is None:
                    continue
                if kind == "comment":
                    break
                if kind == "bad":
                    what = (
                        "unterminated string"
                        if m.group() == '"'
                        else f"unexpected character {m.group()!r}"
                    )
                    raise ParseError(what, SourceSpan(filename, lineno, m.start() + 1))
                self.tokens.append(Token(kind, m.group(kind), lineno, m.start() + 1))
        self.end = SourceSpan(filename, len(lines), len(lines[-1]) + 1)

    def span(self, token: Token | None = None) -> SourceSpan:
        if token is None:
            token = self.peek()
        if token is None:
            return self.end
        return SourceSpan(self.filename, token.line, token.column)

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> Token | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "punct" and tok.text == text

    def take_punct(self, text: str) -> Token:
        tok = self.take()
        if tok is None or tok.kind != "punct" or tok.text != text:
            raise ParseError(
                f"expected {text!r}" + (f", got {tok.text!r}" if tok else ""),
                self.span(tok),
            )
        return tok

    def take_ident(self, what: str = "identifier", allow_reserved: bool = False) -> Token:
        tok = self.take()
        if tok is None or tok.kind != "ident":
            raise ParseError(
                f"expected {what}" + (f", got {tok.text!r}" if tok else ""),
                self.span(tok),
            )
        if not allow_reserved and tok.text in RESERVED:
            raise ParseError(
                f"{tok.text!r} is a reserved word and cannot name a {what}",
                self.span(tok),
            )
        return tok

    def skip_separators(self) -> None:
        while self.at_punct(";"):
            self.pos += 1

    def at_end(self) -> bool:
        return self.peek() is None


# --- shared statement parsers ---------------------------------------------------


def _parse_sort_expr(cur: _Cursor, depth: int = 0) -> SortExpr:
    """A sort expression inside ``depth`` record and collection sorts."""
    tok = cur.take()
    if tok is None or tok.kind != "ident":
        raise ParseError("expected a sort expression", cur.span(tok))
    if tok.text in ("record", core.SEQUENCE, core.SET) and depth == MAX_SORT_NESTING:
        raise ParseError(f"sort nested more than {MAX_SORT_NESTING} deep", cur.span(tok))
    if tok.text == "record":
        cur.take_punct("{")
        fields: list[tuple[str, SortExpr]] = []
        while not cur.at_punct("}"):
            fname = cur.take_ident("field name", allow_reserved=True)
            cur.take_punct(":")
            fields.append((fname.text, _parse_sort_expr(cur, depth + 1)))
            if cur.at_punct(","):
                cur.take()
        cur.take_punct("}")
        if not fields:
            raise ParseError("a record sort needs at least one field", cur.span(tok))
        return RecordExpr(tuple(fields))
    if tok.text in (core.SEQUENCE, core.SET):
        return CollectionExpr(tok.text, _parse_sort_expr(cur, depth + 1))
    if tok.text in RESERVED:
        raise ParseError(f"{tok.text!r} cannot name a sort", cur.span(tok))
    return SortNameRef(tok.text)


def _parse_port_decls(cur: _Cursor) -> list[tuple[str, SortExpr | None, Token]]:
    decls = []
    while True:
        tok = cur.peek()
        if tok is None or tok.kind != "ident" or tok.text in RESERVED:
            break
        name = cur.take_ident("port name")
        sexpr = None
        if cur.at_punct(":"):
            cur.take()
            sexpr = _parse_sort_expr(cur)
        decls.append((name.text, sexpr, name))
    return decls


def _parse_process_block(cur: _Cursor) -> tuple[ProcessSpec, Token]:
    name = cur.take_ident("process name")
    cur.take_punct("{")
    inputs: list[tuple[str, SortExpr | None]] = []
    outputs: list[tuple[str, SortExpr | None]] = []
    note = ""
    seen: set[str] = set()
    while True:
        cur.skip_separators()
        if cur.at_punct("}"):
            cur.take()
            break
        tok = cur.take()
        if tok is None:
            raise ParseError(f"unterminated process block {name.text!r}", cur.span())
        if tok.kind == "ident" and tok.text in (INPUT, OUTPUT):
            for pname, sexpr, ptok in _parse_port_decls(cur):
                if pname in seen:
                    raise DuplicateDefinitionError(
                        f"port {pname!r} declared twice on process {name.text!r}",
                        cur.span(ptok),
                    )
                seen.add(pname)
                (inputs if tok.text == INPUT else outputs).append((pname, sexpr))
        elif tok.kind == "ident" and tok.text == "note":
            stok = cur.take()
            if stok is None or stok.kind != "string":
                raise ParseError("note expects a quoted string", cur.span(stok))
            note = stok.text
        else:
            raise ParseError(
                f"unexpected {tok.text!r} in process block", cur.span(tok)
            )
    return ProcessSpec(name.text, tuple(inputs), tuple(outputs), note), name


def _parse_labeled_ports(cur: _Cursor) -> tuple[tuple[str, str], ...]:
    cur.take_punct("{")
    refs: list[tuple[str, str]] = []
    while not cur.at_punct("}"):
        pname = cur.take_ident("port name")
        label = WHOLE
        if cur.at_punct("."):
            cur.take()
            label = cur.take_ident("fragment label", allow_reserved=True).text
        refs.append((pname.text, label))
        if cur.at_punct(","):
            cur.take()
    cur.take_punct("}")
    return tuple(refs)


def _parse_rule_stmt(cur: _Cursor) -> RuleSpec:
    proc = cur.take_ident("process name")
    cur.take_punct(":")
    kw = cur.take_ident("'needs'", allow_reserved=True)
    if kw.text != "needs":
        raise ParseError("firing rule must start with 'needs'", cur.span(kw))
    needs = _parse_labeled_ports(cur)
    kw = cur.take_ident("'produces'", allow_reserved=True)
    if kw.text != "produces":
        raise ParseError("firing rule needs a 'produces' list", cur.span(kw))
    produces = _parse_labeled_ports(cur)
    compute = "tag"
    tok = cur.peek()
    if tok is not None and tok.kind == "ident" and tok.text == "using":
        cur.take()
        compute = cur.take_ident("compute name").text
    return RuleSpec(proc.text, needs, produces, compute)


def _parse_qualified(cur: _Cursor) -> tuple[str, str, Token]:
    proc = cur.take_ident("process name")
    cur.take_punct(".")
    port = cur.take_ident("port name")
    return proc.text, port.text, proc


def _parse_net_statements(
    cur: _Cursor, owner_name: str, context: str
) -> NetSpec:
    # dicts keep declaration order and find a repeat in constant time
    members: dict[str, ProcessSpec] = {}
    channels: dict[tuple[str, str, str, str], None] = {}
    input_binds: dict[tuple[str, str, str], None] = {}
    output_binds: dict[tuple[str, str, str], None] = {}
    rules: list[RuleSpec] = []
    while True:
        cur.skip_separators()
        if cur.at_punct("}"):
            cur.take()
            break
        tok = cur.take()
        if tok is None:
            raise ParseError(f"unterminated block for {context}", cur.span())
        if tok.kind != "ident":
            raise ParseError(f"unexpected {tok.text!r} in net block", cur.span(tok))
        if tok.text == "process":
            spec, name_tok = _parse_process_block(cur)
            if spec.name in members:
                raise DuplicateDefinitionError(
                    f"process {spec.name!r} declared twice in {context}",
                    cur.span(name_tok),
                )
            members[spec.name] = spec
        elif tok.text == "channel":
            sa, pa, _ = _parse_qualified(cur)
            cur.take_punct("->")
            sb, pb, _ = _parse_qualified(cur)
            entry = (sa, pa, sb, pb)
            if entry in channels:
                raise DuplicateDefinitionError(
                    f"channel {sa}.{pa} -> {sb}.{pb} declared twice", cur.span(tok)
                )
            channels[entry] = None
        elif tok.text in ("input", "output"):
            member, mport, _ = _parse_qualified(cur)
            kw = cur.take_ident("'binds'", allow_reserved=True)
            if kw.text != "binds":
                raise ParseError("boundary statement needs 'binds'", cur.span(kw))
            pproc, pport, ptok = _parse_qualified(cur)
            if pproc != owner_name:
                raise ParseError(
                    f"boundary binds must name the owner {owner_name!r}, got {pproc!r}",
                    cur.span(ptok),
                )
            entry = (member, mport, pport)
            target = input_binds if tok.text == "input" else output_binds
            if entry in target:
                raise DuplicateDefinitionError(
                    f"{tok.text} bind for {member}.{mport} declared twice",
                    cur.span(tok),
                )
            target[entry] = None
        elif tok.text == "rule":
            rules.append(_parse_rule_stmt(cur))
        else:
            raise ParseError(
                f"unexpected {tok.text!r} in net block", cur.span(tok)
            )
    return NetSpec(
        tuple(members.values()),
        tuple(channels),
        tuple(input_binds),
        tuple(output_binds),
        tuple(rules),
    )


# --- model parsing ---------------------------------------------------------------


def _parse_path(cur: _Cursor) -> tuple[str, ...]:
    parts = [cur.take_ident("process name").text]
    while cur.at_punct("."):
        cur.take()
        parts.append(cur.take_ident("process name").text)
    return tuple(parts)


def parse_model(text: str, filename: str = "<model>") -> Model:
    """Parse model text; structure mirrors the text, well-formedness aside."""
    cur = _Cursor(text, filename)
    sort_decls: dict[str, tuple[SortExpr | None, Token]] = {}
    top_procs: dict[str, ProcessSpec] = {}
    top_rules: list[RuleSpec] = []
    net_blocks: dict[tuple[str, ...], NetSpec] = {}

    while True:
        cur.skip_separators()
        if cur.at_end():
            break
        tok = cur.take()
        if tok.kind != "ident":
            raise ParseError(f"unexpected {tok.text!r} at top level", cur.span(tok))
        if tok.text == "sort":
            name = cur.take_ident("sort name")
            if name.text in sort_decls:
                raise DuplicateDefinitionError(
                    f"sort {name.text!r} declared twice", cur.span(name)
                )
            expr: SortExpr | None = None
            if cur.at_punct("="):
                cur.take()
                expr = _parse_sort_expr(cur)
            sort_decls[name.text] = (expr, name)
        elif tok.text == "process":
            spec, name_tok = _parse_process_block(cur)
            if spec.name in top_procs:
                raise DuplicateDefinitionError(
                    f"process {spec.name!r} declared twice at top level",
                    cur.span(name_tok),
                )
            top_procs[spec.name] = spec
        elif tok.text == "net":
            kw = cur.take_ident("'for'", allow_reserved=True)
            if kw.text != "for":
                raise ParseError("expected 'net for <path>'", cur.span(kw))
            path = _parse_path(cur)
            if path in net_blocks:
                raise DuplicateDefinitionError(
                    f"net for {'.'.join(path)} declared twice", cur.span(tok)
                )
            cur.take_punct("{")
            net_blocks[path] = _parse_net_statements(
                cur, path[-1], f"net for {'.'.join(path)}"
            )
        elif tok.text == "rule":
            top_rules.append(_parse_rule_stmt(cur))
        else:
            raise ParseError(f"unknown declaration {tok.text!r}", cur.span(tok))

    if not top_procs:
        raise ParseError("a model must declare a root process", cur.span())

    top = NetSpec(tuple(top_procs.values()), rules=tuple(top_rules))
    return _build_model(sort_decls, top, net_blocks, filename)


def _build_model(
    sort_decls: dict[str, tuple[SortExpr | None, Token]],
    top: NetSpec,
    net_blocks: dict[tuple[str, ...], NetSpec],
    filename: str,
) -> Model:
    """Resolve the sort table in declaration order, then build the top level
    and each net block, parents first, with the ``decompose`` rule's builder;
    sorts are neither checked across nets nor propagated."""
    table: dict[str, Sort] = {}
    resolving: list[str] = []

    def resolve_name(name: str, span: SourceSpan | None) -> Sort:
        if name in table:
            return table[name]
        if name not in sort_decls:
            raise UnknownSortNameError(f"unknown sort name {name!r}", span)
        if name in resolving:
            raise ParseError(
                f"recursive sort definition through {name!r}", span
            )
        resolving.append(name)
        expr, tok = sort_decls[name]
        span = SourceSpan(filename, tok.line, tok.column)
        sort = AtomicSort(name) if expr is None else resolve_expr(expr, span)
        resolving.pop()
        table[name] = sort
        return sort

    def resolve_expr(expr: SortExpr, span: SourceSpan | None) -> Sort:
        if isinstance(expr, SortNameRef):
            return resolve_name(expr.name, span)
        if isinstance(expr, CollectionExpr):
            return CollectionSort(expr.kind, resolve_expr(expr.element, span))
        fields = tuple((f, resolve_expr(s, span)) for f, s in expr.fields)
        names = [f for f, _ in fields]
        if len(set(names)) != len(names):
            raise DuplicateDefinitionError("record field declared twice", span)
        return RecordSort(fields)

    for name in sort_decls:
        resolve_name(name, None)

    processes: dict[ProcessId, Process] = {}
    ports: dict[PortId, Port] = {}
    nets: dict[ProcessId, tuple[ProcessNet, InterfaceBinding]] = {}
    ids: dict[tuple[str, ...], ProcessId] = {}

    def build(owner: ProcessId, path: tuple[str, ...], spec: NetSpec, block: str) -> None:
        # the model built so far: build_subnet reads its tables, not its root
        so_far = Model(table, processes, ports, root="", nets=nets)
        try:
            members, new_ports, net, binding = build_subnet(so_far, owner, spec)
        except (UnknownPortError, InterfaceMismatchError) as exc:
            raise ParseError(f"{block}: {exc}") from exc
        processes.update((p.id, p) for p in members)
        ports.update((p.id, p) for p in new_ports)
        ids.update((path + (p.name,), p.id) for p in members)
        if path:
            nets[owner] = (net, binding)

    # the top level is a block with no owner, its processes' ids bare names
    build("", (), top, "top level")
    # a net's owner is a member of its parent's net, so parents go first
    for path in sorted(net_blocks, key=len):
        where = f"net for {'.'.join(path)}"
        if path not in ids:
            raise ParseError(f"{where}: no such process is declared")
        build(ids[path], path, net_blocks[path], where)

    # a port's inline record sort is resolved by build_subnet, which does not
    # look for a field declared twice
    if any(core.sort_problems(p.sort) for p in ports.values() if p.sort is not None):
        raise DuplicateDefinitionError("record field declared twice")
    root = ids[(top.members[0].name,)]
    return Model(sort_table=table, processes=processes, ports=ports, root=root, nets=nets)


# --- script parsing ----------------------------------------------------------------


def _parse_port_path(cur: _Cursor) -> PortRef:
    segments = _parse_path(cur)
    if len(segments) < 2:
        raise ParseError(
            "expected <process-path>.<port>", cur.span()
        )
    return PortRef(segments[:-1], segments[-1])


def _take_head(cur: _Cursor) -> Token:
    tok = cur.take_ident("rule name", allow_reserved=True)
    text = tok.text
    while cur.at_punct("-"):
        cur.take()
        text += "-" + cur.take_ident("rule name", allow_reserved=True).text
    return Token(tok.kind, text, tok.line, tok.column)


def parse_script(text: str, filename: str = "<script>") -> RefinementScript:
    """Parse a refinement script into an ordered list of rule invocations."""
    cur = _Cursor(text, filename)
    steps = []
    while True:
        cur.skip_separators()
        if cur.at_end():
            break
        head = _take_head(cur)
        if head.text == "decompose":
            path = _parse_path(cur)
            cur.take_punct("{")
            subnet = _parse_net_statements(cur, path[-1], f"decompose {'.'.join(path)}")
            steps.append(DecomposeStep(path, subnet))
        elif head.text == "add-channel":
            src = _parse_port_path(cur)
            cur.take_punct("->")
            dst = _parse_port_path(cur)
            steps.append(AddChannelStep(src, dst))
        elif head.text == "assign-sort":
            ref = _parse_port_path(cur)
            cur.take_punct(":")
            steps.append(AssignSortStep(ref, _parse_sort_expr(cur)))
        elif head.text == "split-port":
            ref = _parse_port_path(cur)
            cur.take_punct("->")
            parts = []
            while True:
                pname = cur.take_ident("part name")
                spec = PartSpec(pname.text)
                if cur.at_punct(":"):
                    cur.take()
                    if cur.at_punct("{"):
                        cur.take()
                        fields = [cur.take_ident("field name", allow_reserved=True).text]
                        while cur.at_punct(","):
                            cur.take()
                            fields.append(cur.take_ident("field name", allow_reserved=True).text)
                        cur.take_punct("}")
                        spec = PartSpec(pname.text, fields=tuple(fields))
                    else:
                        spec = PartSpec(pname.text, ref=cur.take_ident("field or sort").text)
                parts.append(spec)
                if cur.at_punct(","):
                    cur.take()
                else:
                    break
            steps.append(SplitPortStep(ref, tuple(parts)))
        elif head.text == "fold":
            path = _parse_path(cur)
            cur.take_punct("{")
            group = [cur.take_ident("member name").text]
            while cur.at_punct(","):
                cur.take()
                group.append(cur.take_ident("member name").text)
            cur.take_punct("}")
            kw = cur.take_ident("'as'", allow_reserved=True)
            if kw.text != "as":
                raise ParseError("fold needs 'as <name>'", cur.span(kw))
            new_name = cur.take_ident("process name").text
            steps.append(FoldStep(path, tuple(group), new_name))
        elif head.text == "unfold":
            steps.append(UnfoldStep(_parse_path(cur)))
        else:
            raise UnknownRuleNameError(
                f"unknown rule {head.text!r}", cur.span(head)
            )
    return RefinementScript(tuple(steps), provenance=filename)


# --- canonical printing ---------------------------------------------------------------


def _sort_owner(model: Model, sort: Sort) -> str:
    # a self-named atomic anchors its alias group; otherwise the least name
    if isinstance(sort, AtomicSort) and model.sort_table.get(sort.name) == sort:
        return sort.name
    return min(n for n, s in model.sort_table.items() if s == sort)


def _block_lines(spec: NetSpec, owner_name: str, indent: str) -> list[str]:
    """The statements of a block: each member followed by its firing rules,
    then the channels and the binds.  These keep the spec's order; a
    member's ports and a rule's port references are printed by name."""
    rules: dict[str, list[RuleSpec]] = {}
    for rule in spec.rules:
        rules.setdefault(rule.process, []).append(rule)

    def refs(pairs: tuple[tuple[str, str], ...]) -> str:
        return ", ".join(n if lab == WHOLE else f"{n}.{lab}" for n, lab in sorted(pairs))

    lines = []
    for member in spec.members:
        sections = []
        for keyword, decls in ((INPUT, member.inputs), (OUTPUT, member.outputs)):
            if decls:
                text = " ".join(
                    name if expr is None else f"{name} : {expr}"
                    for name, expr in sorted(decls, key=lambda d: d[0])
                )
                sections.append(f"{keyword} {text}")
        if member.note:
            sections.append(f'note "{member.note}"')
        body = "; ".join(sections)
        head = f"{indent}process {member.name}"
        lines.append(f"{head} {{ {body} }}" if body else f"{head} {{ }}")
        for rule in rules.pop(member.name, ()):
            text = (
                f"rule {rule.process} : needs {{ {refs(rule.needs)} }}"
                f" produces {{ {refs(rule.produces)} }}"
            ).replace("{  }", "{ }")
            if rule.compute != "tag":
                text += f" using {rule.compute}"
            lines.append(indent + text)
    lines.extend(f"{indent}channel {sa}.{pa} -> {sb}.{pb}" for sa, pa, sb, pb in spec.channels)
    for keyword, binds in (("input", spec.input_binds), ("output", spec.output_binds)):
        lines.extend(
            f"{indent}{keyword} {m}.{p} binds {owner_name}.{q}" for m, p, q in binds
        )
    return lines


def print_model(model: Model) -> str:
    """Canonical text for a model: sorted declarations, stable ordering.

    After the sort declarations come the top level and each net, in display
    path order, each printed from its ``refine.net_spec``: the spec that
    parsing hands back to ``build_subnet``.  Isomorphic models print
    byte-identically; parsing the output yields a model isomorphic to the
    input.
    """
    table = model.sort_table
    lines: list[str] = []
    for name in sorted(table):
        sort = table[name]
        owner = _sort_owner(model, sort)
        if name != owner:
            lines.append(f"sort {name} = {owner}")
        elif sort == AtomicSort(name):
            lines.append(f"sort {name}")
        else:
            # the sort's structure, each part in reference form
            others = {n: s for n, s in table.items() if s != sort}
            lines.append(f"sort {name} = {core.sort_expr(sort, others)}")
    if lines:
        lines.append("")

    lines.extend(_block_lines(net_spec(model, "", table), "", ""))
    paths = {owner: core.display_path(model, owner) for owner in model.nets}
    for owner in sorted(paths, key=paths.__getitem__):
        owner_proc = model.processes.get(owner)
        lines.append("")
        lines.append(f"net for {'.'.join(paths[owner])} {{")
        spec = net_spec(model, owner, table)
        lines.extend(_block_lines(spec, owner_proc.name if owner_proc else owner, "  "))
        lines.append("}")
    return "\n".join(lines).rstrip("\n") + "\n"


# --- DOT export --------------------------------------------------------------------


def _dot_quote(text: str) -> str:
    return '"' + text.replace('"', r"\"") + '"'


def export_dot(model: Model, owner: str, depth: int = 1) -> str:
    """Render a net as a DOT digraph, subnets as clusters when depth > 1.

    Channels run left to right; environment boundary ports appear as
    half-connected point nodes; edges carry the channel sort when specified.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    net, _ = model.net_of(owner)
    node_name: dict[str, str] = {}
    expanded: set[str] = set()
    lines = [
        "digraph bpn {",
        "  rankdir=LR;",
        "  compound=true;",
        "  node [shape=box];",
    ]

    def node_of(pid: str) -> str:
        if pid not in node_name:
            node_name[pid] = f"p{len(node_name)}"
        return node_name[pid]

    counters = {"cluster": 0}

    def render(owner_id: str, level_net: ProcessNet, remaining: int, indent: str) -> None:
        for member in sorted(
            level_net.processes,
            key=lambda m: (model.processes[m].name if m in model.processes else m, m),
        ):
            name = (
                model.processes[member].name if member in model.processes else member
            )
            if remaining > 1 and member in model.nets:
                expanded.add(member)
                cluster = f"cluster{counters['cluster']}"
                counters["cluster"] += 1
                lines.append(f"{indent}subgraph {cluster} {{")
                lines.append(f"{indent}  label={_dot_quote(name)};")
                render(member, model.nets[member][0], remaining - 1, indent + "  ")
                lines.append(f"{indent}}}")
            else:
                lines.append(f"{indent}{node_of(member)} [label={_dot_quote(name)}];")

    render(owner, net, depth, "  ")

    def resolve(port_id: str) -> str:
        # descend through bindings while the owning process is expanded and
        # its binding has an image for the port
        while port_id in model.ports and model.ports[port_id].owner in expanded:
            inner = model.nets[model.ports[port_id].owner][1].to_subnet().get(port_id)
            if inner is None:
                break
            port_id = inner
        return port_id

    def label(sort: Sort | None) -> str:
        if sort is None:
            return ""
        return f" [label={_dot_quote(str(core.sort_expr(sort, model.sort_table)))}]"

    def edge(src_port: str, dst_port: str) -> None:
        sort = None
        for p in (src_port, dst_port):
            port = model.ports.get(p)
            if port is not None and port.sort is not None:
                sort = port.sort
                break
        src = model.ports.get(resolve(src_port))
        dst = model.ports.get(resolve(dst_port))
        if src is None or dst is None:
            return
        lines.append(f"  {node_of(src.owner)} -> {node_of(dst.owner)}{label(sort)};")

    for ch in sorted(net.channels, key=lambda c: (c.source, c.dest)):
        edge(ch.source, ch.dest)

    env_count = 0
    for boundary, inward in ((net.env_inputs, True), (net.env_outputs, False)):
        for port_id in sorted(boundary):
            port = model.ports.get(resolve(port_id))
            if port is None:
                continue
            env = f"e{env_count}"
            env_count += 1
            lines.append(f"  {env} [shape=point, label=\"\"];")
            ends = (env, node_of(port.owner)) if inward else (node_of(port.owner), env)
            lines.append(f"  {ends[0]} -> {ends[1]}{label(port.sort)};")

    lines.append("}")
    return "\n".join(lines) + "\n"


__all__ = [
    "parse_model",
    "print_model",
    "parse_script",
    "export_dot",
    "SourceSpan",
    "Token",
]
