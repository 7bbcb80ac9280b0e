"""The model parser that ``textio.parse_model`` replaced, kept as an oracle.

It tokenized character by character, ending each line with an ``eol``
token, and built the model itself: it formed every process and port id
beside the copy of that logic in ``refine.build_subnet``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from bpnet import core
from bpnet.core import (
    INPUT,
    OUTPUT,
    WHOLE,
    AtomicSort,
    Channel,
    CollectionExpr,
    CollectionSort,
    FiringRule,
    InterfaceBinding,
    Model,
    Port,
    Process,
    ProcessNet,
    RecordExpr,
    RecordSort,
    Sort,
    SortExpr,
    SortNameRef,
)
from bpnet.errors import DuplicateDefinitionError, ParseError, SourceSpan, UnknownSortNameError
from bpnet.refine import NetSpec, ProcessSpec, RuleSpec


RESERVED = frozenset(
    """sort process net for in out note rule needs produces using channel
       input output binds record seq set as""".split()
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_PUNCTS = ("->", "{", "}", ":", ";", ",", ".", "=", "-")


@dataclass(frozen=True)
class Token:
    kind: str  # ident | string | punct | eol
    text: str
    line: int
    column: int


def _tokenize(text: str, filename: str) -> list[Token]:
    tokens: list[Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        col = 0
        while col < len(line):
            ch = line[col]
            if ch in " \t":
                col += 1
                continue
            if ch == "#":
                break
            m = _IDENT.match(line, col)
            if m:
                tokens.append(Token("ident", m.group(), lineno, col + 1))
                col = m.end()
                continue
            if ch == '"':
                end = line.find('"', col + 1)
                if end < 0:
                    raise ParseError(
                        "unterminated string", SourceSpan(filename, lineno, col + 1)
                    )
                tokens.append(Token("string", line[col + 1 : end], lineno, col + 1))
                col = end + 1
                continue
            for punct in _PUNCTS:
                if line.startswith(punct, col):
                    tokens.append(Token("punct", punct, lineno, col + 1))
                    col += len(punct)
                    break
            else:
                raise ParseError(
                    f"unexpected character {ch!r}", SourceSpan(filename, lineno, col + 1)
                )
        tokens.append(Token("eol", "\n", lineno, len(line) + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[Token], filename: str):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename

    def span(self, token: Token | None = None) -> SourceSpan:
        if token is None:
            token = self.peek()
        if token is None:
            last = self.tokens[-1] if self.tokens else Token("eol", "", 1, 1)
            return SourceSpan(self.filename, last.line, last.column)
        return SourceSpan(self.filename, token.line, token.column)

    def peek(self) -> Token | None:
        i = self.pos
        while i < len(self.tokens) and self.tokens[i].kind == "eol":
            i += 1
        return self.tokens[i] if i < len(self.tokens) else None

    def take(self) -> Token | None:
        while self.pos < len(self.tokens) and self.tokens[self.pos].kind == "eol":
            self.pos += 1
        if self.pos >= len(self.tokens):
            return None
        tok = self.tokens[self.pos]
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
        while self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            if tok.kind == "eol" or (tok.kind == "punct" and tok.text == ";"):
                self.pos += 1
            else:
                break

    def at_end(self) -> bool:
        return self.peek() is None


# --- shared statement parsers ---------------------------------------------------


def _parse_sort_expr(cur: _Cursor) -> SortExpr:
    tok = cur.take()
    if tok is None or tok.kind != "ident":
        raise ParseError("expected a sort expression", cur.span(tok))
    if tok.text == "record":
        cur.take_punct("{")
        fields: list[tuple[str, SortExpr]] = []
        while not cur.at_punct("}"):
            fname = cur.take_ident("field name", allow_reserved=True)
            cur.take_punct(":")
            fields.append((fname.text, _parse_sort_expr(cur)))
            if cur.at_punct(","):
                cur.take()
        cur.take_punct("}")
        if not fields:
            raise ParseError("a record sort needs at least one field", cur.span(tok))
        return RecordExpr(tuple(fields))
    if tok.text in (core.SEQUENCE, core.SET):
        return CollectionExpr(tok.text, _parse_sort_expr(cur))
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
    members: list[ProcessSpec] = []
    member_names: set[str] = set()
    channels: list[tuple[str, str, str, str]] = []
    input_binds: list[tuple[str, str, str]] = []
    output_binds: list[tuple[str, str, str]] = []
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
            if spec.name in member_names:
                raise DuplicateDefinitionError(
                    f"process {spec.name!r} declared twice in {context}",
                    cur.span(name_tok),
                )
            member_names.add(spec.name)
            members.append(spec)
        elif tok.text == "channel":
            sa, pa, _ = _parse_qualified(cur)
            cur.take_punct("->")
            sb, pb, _ = _parse_qualified(cur)
            entry = (sa, pa, sb, pb)
            if entry in channels:
                raise DuplicateDefinitionError(
                    f"channel {sa}.{pa} -> {sb}.{pb} declared twice", cur.span(tok)
                )
            channels.append(entry)
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
            target.append(entry)
        elif tok.text == "rule":
            rules.append(_parse_rule_stmt(cur))
        else:
            raise ParseError(
                f"unexpected {tok.text!r} in net block", cur.span(tok)
            )
    return NetSpec(
        tuple(members),
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
    cur = _Cursor(_tokenize(text, filename), filename)
    sort_decls: dict[str, tuple[SortExpr | None, Token]] = {}
    top_procs: list[ProcessSpec] = []
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
            if any(p.name == spec.name for p in top_procs):
                raise DuplicateDefinitionError(
                    f"process {spec.name!r} declared twice at top level",
                    cur.span(name_tok),
                )
            top_procs.append(spec)
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

    return _build_model(sort_decls, top_procs, top_rules, net_blocks, filename)


def _build_model(
    sort_decls: dict[str, tuple[SortExpr | None, Token]],
    top_procs: list[ProcessSpec],
    top_rules: list[RuleSpec],
    net_blocks: dict[tuple[str, ...], NetSpec],
    filename: str,
) -> Model:
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

    processes: dict[str, Process] = {}
    ports: dict[str, Port] = {}
    rules_by_pid: dict[str, list[FiringRule]] = {}

    def declare_process(spec: ProcessSpec, pid: str) -> None:
        held = []
        for direction, decls in ((INPUT, spec.inputs), (OUTPUT, spec.outputs)):
            for pname, sexpr in decls:
                port_id = f"{pid}:{pname}"
                sort = resolve_expr(sexpr, None) if sexpr is not None else None
                ports[port_id] = Port(port_id, pname, direction, sort)
                held.append(ports[port_id])
        processes[pid] = Process(pid, spec.name, tuple(held), behavior_note=spec.note)

    for spec in top_procs:
        declare_process(spec, spec.name)
    for path, block in net_blocks.items():
        owner_id = ".".join(path)
        for spec in block.members:
            declare_process(spec, f"{owner_id}.{spec.name}")

    def attach_rules(scope: str, specs: tuple[RuleSpec, ...] | list[RuleSpec], pid_of) -> None:
        for rspec in specs:
            pid = pid_of(rspec.process)
            if pid is None or pid not in processes:
                raise ParseError(
                    f"rule names unknown process {rspec.process!r} in {scope}"
                )

            def port_ref(pname: str) -> str:
                port_id = f"{pid}:{pname}"
                if port_id not in ports:
                    raise ParseError(
                        f"rule for {rspec.process!r} names unknown port {pname!r}"
                    )
                return port_id

            rules_by_pid.setdefault(pid, []).append(
                FiringRule(
                    needs=tuple((port_ref(p), lab) for p, lab in rspec.needs),
                    produces=tuple((port_ref(p), lab) for p, lab in rspec.produces),
                    compute=rspec.compute,
                )
            )

    attach_rules(
        "top level",
        top_rules,
        lambda name: name if name in processes else None,
    )

    nets: dict[str, tuple[ProcessNet, InterfaceBinding]] = {}
    for path, block in net_blocks.items():
        owner_id = ".".join(path)
        if owner_id not in processes:
            raise ParseError(
                f"net for {'.'.join(path)}: no such process is declared"
            )
        member_ids = {spec.name: f"{owner_id}.{spec.name}" for spec in block.members}

        def member_port(member: str, pname: str, what: str) -> str:
            if member not in member_ids:
                raise ParseError(
                    f"{what} in net for {'.'.join(path)} names unknown member {member!r}"
                )
            port_id = f"{member_ids[member]}:{pname}"
            if port_id not in ports:
                raise ParseError(
                    f"{what} names unknown port {pname!r} on member {member!r}"
                )
            return port_id

        channels = frozenset(
            Channel(member_port(sa, pa, "channel"), member_port(sb, pb, "channel"))
            for sa, pa, sb, pb in block.channels
        )
        pairs: list[tuple[str, str]] = []
        env_in: set[str] = set()
        env_out: set[str] = set()
        for member, mport, pport in block.input_binds:
            parent_port = f"{owner_id}:{pport}"
            if parent_port not in ports:
                raise ParseError(
                    f"input bind names unknown port {pport!r} on {'.'.join(path)}"
                )
            inner = member_port(member, mport, "input bind")
            env_in.add(inner)
            pairs.append((parent_port, inner))
        for member, mport, pport in block.output_binds:
            parent_port = f"{owner_id}:{pport}"
            if parent_port not in ports:
                raise ParseError(
                    f"output bind names unknown port {pport!r} on {'.'.join(path)}"
                )
            inner = member_port(member, mport, "output bind")
            env_out.add(inner)
            pairs.append((parent_port, inner))
        nets[owner_id] = (
            ProcessNet(
                processes=frozenset(member_ids.values()),
                channels=channels,
                env_inputs=frozenset(env_in),
                env_outputs=frozenset(env_out),
            ),
            InterfaceBinding(tuple(sorted(pairs))),
        )
        attach_rules(
            f"net for {'.'.join(path)}",
            block.rules,
            lambda name: member_ids.get(name),
        )

    for pid, rule_list in rules_by_pid.items():
        proc = processes[pid]
        processes[pid] = Process(
            proc.id, proc.name, proc.interface, proc.behavior_note, tuple(rule_list)
        )

    contained = {m for _, (net, _) in nets.items() for m in net.processes}
    root = next((p.name for p in top_procs if p.name not in contained), None)
    if root is None:
        raise ParseError("every declared process is contained in a net; no root")
    return Model(sort_table=table, processes=processes, root=root, nets=nets)
