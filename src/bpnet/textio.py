"""Text format for models and refinement scripts, plus DOT export.

Line ends, like blanks, only separate tokens: a statement may span lines,
and one line may hold several statements (``;`` may also separate them).
The line ends are those of ``str.splitlines``, a carriage return and line
feed counting as one.  ``#`` starts a comment that runs to the end of its
line; files are UTF-8.  The whole text is split into tokens at once, and a
token's line and column are computed only for an error.

Model files (``.bpn``) declare sorts, a root process, and one ``net for
<path>`` block per decomposed process; member processes are declared inside
the block of the net containing them.  Each block is read as a decomposition
of its owner and built by ``refine.build_subnet``, the builder the
``decompose`` rule uses.  Script files (``.bps``) hold a sequence of rule
invocations.  Parsing tolerates ill-formed nets: the validator owns all
constraint checking.
"""

from __future__ import annotations

import itertools
import re
import string

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

# The most record and collection sorts one sort expression, or one declared
# sort, may nest: every command recurses once or more per level of a sort.
MAX_SORT_NESTING = 100
_TOO_DEEP = f"sort nested more than {MAX_SORT_NESTING} deep"

# Line ends are those of ``str.splitlines``.
_EOL = r"\n\r\v\f\x1c-\x1e\x85\u2028\u2029"
# Blanks, then one token: a comment (dropped once found), an identifier, a
# string with its quotes, a punctuation mark, or a bad character.  The bad
# alternative takes any one character the others do not, including the
# quote of an unterminated string, but never a blank, so that trailing
# blanks match nothing.
_TOKEN = re.compile(
    rf"""[ \t{_EOL}]*(
        \#[^{_EOL}]*
      | [A-Za-z_][A-Za-z0-9_]*
      | "[^"{_EOL}]*"
      | ->|[{{}}:;,.=-]
      | [^ \t{_EOL}])""",
    re.VERBOSE,
)
_IDENT_START = frozenset(string.ascii_letters + "_")
# the characters a one-character token may be
_GOOD_CHARS = _IDENT_START | frozenset("{}:;,.=-")


def _shown(tok: str) -> str:
    """A token as error messages quote it: a string without its quotes."""
    return tok[1:-1] if tok[0] == '"' else tok


class _Cursor:
    """The tokens of a text, read one at a time.

    A token is its source text, a string keeping its quotes, so its first
    character gives its kind: a letter or ``_`` an identifier, ``"`` a
    string, anything else punctuation.  Positions are computed only for
    errors, from a token's index.
    """

    def __init__(self, text: str, filename: str):
        tokens = _TOKEN.findall(text)
        if "#" in text:
            tokens = [tok for tok in tokens if tok[0] != "#"]
        self.tokens = tokens
        self.pos = 0
        self.text = text
        self.filename = filename
        bad = [tok for tok in set(tokens) if len(tok) == 1 and tok not in _GOOD_CHARS]
        if bad:
            first = min(map(tokens.index, bad))
            tok = tokens[first]
            what = "unterminated string" if tok == '"' else f"unexpected character {tok!r}"
            raise ParseError(what, self.span(first))

    def span(self, index: int | None = None) -> SourceSpan:
        """Where token ``index`` (by default the last one taken) starts;
        past the last token, the position just past the last line."""
        if index is None:
            index = self.last
        if index >= len(self.tokens):
            lines = self.text.splitlines() or [""]
            return SourceSpan(self.filename, len(lines), len(lines[-1]) + 1)
        starts = (m.start(1) for m in _TOKEN.finditer(self.text) if m[1][0] != "#")
        offset = next(itertools.islice(starts, index, None))
        # the token's first character ends the last of these lines
        lines = self.text[: offset + 1].splitlines()
        return SourceSpan(self.filename, len(lines), len(lines[-1]))

    @property
    def last(self) -> int:
        """The index of the token ``take`` returned last."""
        return self.pos - 1

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str | None:
        """The next token, or None at the end of input; ``last`` is then
        its index either way."""
        index = self.pos
        self.pos = index + 1
        return self.tokens[index] if index < len(self.tokens) else None

    def at(self, text: str) -> bool:
        return self.peek() == text

    def skip(self, text: str) -> bool:
        """Take the next token if it is ``text``; whether it was."""
        if self.peek() != text:
            return False
        self.pos += 1
        return True

    def take_punct(self, text: str) -> str:
        tok = self.take()
        if tok != text:
            got = f", got {_shown(tok)!r}" if tok else ""
            raise ParseError(f"expected {text!r}{got}", self.span())
        return tok

    def take_ident(self, what: str = "identifier", allow_reserved: bool = False) -> str:
        tok = self.take()
        if tok is None or tok[0] not in _IDENT_START:
            got = f", got {_shown(tok)!r}" if tok else ""
            raise ParseError(f"expected {what}{got}", self.span())
        if not allow_reserved and tok in RESERVED:
            raise ParseError(f"{tok!r} is a reserved word and cannot name a {what}", self.span())
        return tok

    def skip_separators(self) -> None:
        while self.skip(";"):
            pass


# --- shared statement parsers ---------------------------------------------------


def _parse_sort_expr(cur: _Cursor, depth: int = 0) -> SortExpr:
    """A sort expression inside ``depth`` record and collection sorts."""
    tok = cur.take()
    if tok is None or tok[0] not in _IDENT_START:
        raise ParseError("expected a sort expression", cur.span())
    if tok in ("record", core.SEQUENCE, core.SET) and depth == MAX_SORT_NESTING:
        raise ParseError(_TOO_DEEP, cur.span())
    if tok == "record":
        at = cur.last
        cur.take_punct("{")
        fields: list[tuple[str, SortExpr]] = []
        while not cur.at("}"):
            fname = cur.take_ident("field name", allow_reserved=True)
            cur.take_punct(":")
            fields.append((fname, _parse_sort_expr(cur, depth + 1)))
            cur.skip(",")
        cur.take_punct("}")
        if not fields:
            raise ParseError("a record sort needs at least one field", cur.span(at))
        return RecordExpr(tuple(fields))
    if tok in (core.SEQUENCE, core.SET):
        return CollectionExpr(tok, _parse_sort_expr(cur, depth + 1))
    if tok in RESERVED:
        raise ParseError(f"{tok!r} cannot name a sort", cur.span())
    return SortNameRef(tok)


def _parse_port_decls(cur: _Cursor) -> list[tuple[str, SortExpr | None, int]]:
    """Port declarations, each with its name's token index."""
    decls = []
    while True:
        name, at = cur.peek(), cur.pos
        if name is None or name[0] not in _IDENT_START or name in RESERVED:
            break
        cur.take()
        sexpr = None
        if cur.skip(":"):
            sexpr = _parse_sort_expr(cur)
        decls.append((name, sexpr, at))
    return decls


def _parse_process_block(cur: _Cursor) -> tuple[ProcessSpec, int]:
    """A process block and its name's token index."""
    name = cur.take_ident("process name")
    name_at = cur.last
    cur.take_punct("{")
    inputs: list[tuple[str, SortExpr | None]] = []
    outputs: list[tuple[str, SortExpr | None]] = []
    note = ""
    seen: set[str] = set()
    while True:
        cur.skip_separators()
        if cur.skip("}"):
            break
        tok = cur.take()
        if tok is None:
            raise ParseError(f"unterminated process block {name!r}", cur.span())
        if tok in (INPUT, OUTPUT):
            for pname, sexpr, at in _parse_port_decls(cur):
                if pname in seen:
                    raise DuplicateDefinitionError(
                        f"port {pname!r} declared twice on process {name!r}", cur.span(at)
                    )
                seen.add(pname)
                (inputs if tok == INPUT else outputs).append((pname, sexpr))
        elif tok == "note":
            text = cur.take()
            if text is None or text[0] != '"':
                raise ParseError("note expects a quoted string", cur.span())
            note = text[1:-1]
        else:
            raise ParseError(f"unexpected {_shown(tok)!r} in process block", cur.span())
    return ProcessSpec(name, tuple(inputs), tuple(outputs), note), name_at


def _parse_labeled_ports(cur: _Cursor) -> tuple[tuple[str, str], ...]:
    cur.take_punct("{")
    refs: list[tuple[str, str]] = []
    while not cur.at("}"):
        pname = cur.take_ident("port name")
        label = WHOLE
        if cur.skip("."):
            label = cur.take_ident("fragment label", allow_reserved=True)
        refs.append((pname, label))
        cur.skip(",")
    cur.take_punct("}")
    return tuple(refs)


def _parse_rule_stmt(cur: _Cursor) -> RuleSpec:
    proc = cur.take_ident("process name")
    cur.take_punct(":")
    if cur.take_ident("'needs'", allow_reserved=True) != "needs":
        raise ParseError("firing rule must start with 'needs'", cur.span())
    needs = _parse_labeled_ports(cur)
    if cur.take_ident("'produces'", allow_reserved=True) != "produces":
        raise ParseError("firing rule needs a 'produces' list", cur.span())
    produces = _parse_labeled_ports(cur)
    compute = "tag"
    if cur.skip("using"):
        compute = cur.take_ident("compute name")
    return RuleSpec(proc, needs, produces, compute)


def _parse_qualified(cur: _Cursor) -> tuple[str, str, int]:
    """``process.port`` and the process name's token index."""
    proc = cur.take_ident("process name")
    at = cur.last
    cur.take_punct(".")
    return proc, cur.take_ident("port name"), at


def _parse_net_statements(cur: _Cursor, owner_name: str, context: str) -> NetSpec:
    # dicts keep declaration order and find a repeat in constant time
    members: dict[str, ProcessSpec] = {}
    channels: dict[tuple[str, str, str, str], None] = {}
    input_binds: dict[tuple[str, str, str], None] = {}
    output_binds: dict[tuple[str, str, str], None] = {}
    rules: list[RuleSpec] = []
    while True:
        cur.skip_separators()
        if cur.skip("}"):
            break
        tok = cur.take()
        at = cur.last
        if tok is None:
            raise ParseError(f"unterminated block for {context}", cur.span())
        if tok == "process":
            spec, name_at = _parse_process_block(cur)
            if spec.name in members:
                raise DuplicateDefinitionError(
                    f"process {spec.name!r} declared twice in {context}",
                    cur.span(name_at),
                )
            members[spec.name] = spec
        elif tok == "channel":
            sa, pa, _ = _parse_qualified(cur)
            cur.take_punct("->")
            sb, pb, _ = _parse_qualified(cur)
            entry = (sa, pa, sb, pb)
            if entry in channels:
                raise DuplicateDefinitionError(
                    f"channel {sa}.{pa} -> {sb}.{pb} declared twice", cur.span(at)
                )
            channels[entry] = None
        elif tok in ("input", "output"):
            member, mport, _ = _parse_qualified(cur)
            if cur.take_ident("'binds'", allow_reserved=True) != "binds":
                raise ParseError("boundary statement needs 'binds'", cur.span())
            pproc, pport, pat = _parse_qualified(cur)
            if pproc != owner_name:
                raise ParseError(
                    f"boundary binds must name the owner {owner_name!r}, got {pproc!r}",
                    cur.span(pat),
                )
            entry = (member, mport, pport)
            target = input_binds if tok == "input" else output_binds
            if entry in target:
                raise DuplicateDefinitionError(
                    f"{tok} bind for {member}.{mport} declared twice", cur.span(at)
                )
            target[entry] = None
        elif tok == "rule":
            rules.append(_parse_rule_stmt(cur))
        else:
            raise ParseError(f"unexpected {_shown(tok)!r} in net block", cur.span(at))
    return NetSpec(
        tuple(members.values()), tuple(channels), tuple(input_binds), tuple(output_binds),
        tuple(rules),
    )


# --- model parsing ---------------------------------------------------------------


def _parse_path(cur: _Cursor) -> tuple[str, ...]:
    parts = [cur.take_ident("process name")]
    while cur.skip("."):
        parts.append(cur.take_ident("process name"))
    return tuple(parts)


def parse_model(text: str, filename: str = "<model>") -> Model:
    """Parse model text; structure mirrors the text, well-formedness aside."""
    cur = _Cursor(text, filename)
    # each sort's expression and its name's token index
    sort_decls: dict[str, tuple[SortExpr | None, int]] = {}
    top_procs: dict[str, ProcessSpec] = {}
    top_rules: list[RuleSpec] = []
    net_blocks: dict[tuple[str, ...], NetSpec] = {}

    while True:
        cur.skip_separators()
        if cur.peek() is None:
            break
        tok = cur.take()
        at = cur.last
        if tok == "sort":
            name = cur.take_ident("sort name")
            name_at = cur.last
            if name in sort_decls:
                raise DuplicateDefinitionError(f"sort {name!r} declared twice", cur.span())
            expr: SortExpr | None = None
            if cur.skip("="):
                expr = _parse_sort_expr(cur)
            sort_decls[name] = (expr, name_at)
        elif tok == "process":
            spec, name_at = _parse_process_block(cur)
            if spec.name in top_procs:
                raise DuplicateDefinitionError(
                    f"process {spec.name!r} declared twice at top level",
                    cur.span(name_at),
                )
            top_procs[spec.name] = spec
        elif tok == "net":
            if cur.take_ident("'for'", allow_reserved=True) != "for":
                raise ParseError("expected 'net for <path>'", cur.span())
            path = _parse_path(cur)
            where = f"net for {'.'.join(path)}"
            if path in net_blocks:
                raise DuplicateDefinitionError(f"{where} declared twice", cur.span(at))
            cur.take_punct("{")
            net_blocks[path] = _parse_net_statements(cur, path[-1], where)
        elif tok == "rule":
            top_rules.append(_parse_rule_stmt(cur))
        elif tok[0] in _IDENT_START:
            raise ParseError(f"unknown declaration {tok!r}", cur.span(at))
        else:
            raise ParseError(f"unexpected {_shown(tok)!r} at top level", cur.span(at))

    if not top_procs:
        raise ParseError("a model must declare a root process", cur.span(cur.pos))

    top = NetSpec(tuple(top_procs.values()), rules=tuple(top_rules))
    return _build_model(sort_decls, top, net_blocks, cur)


def _build_model(
    sort_decls: dict[str, tuple[SortExpr | None, int]],
    top: NetSpec,
    net_blocks: dict[tuple[str, ...], NetSpec],
    cur: _Cursor,
) -> Model:
    """Resolve the sort table in declaration order, then build the top level
    and each net block, parents first, with the ``decompose`` rule's builder;
    sorts are neither checked across nets nor propagated.

    A resolved sort nests at most ``MAX_SORT_NESTING`` record and collection
    sorts, however many declarations it is built through."""
    # each resolved sort and the record and collection sorts it nests
    resolved: dict[str, tuple[Sort, int]] = {}
    resolving: set[str] = set()

    def resolve_name(name: str, at: int, depth: int) -> tuple[Sort, int]:
        """``name`` resolved, referred to from inside ``depth`` record and
        collection sorts of the declaration at token ``at``.  A chain of
        aliases is followed in a loop, so it may be of any length."""
        aliases = []
        while name not in resolved:
            if name not in sort_decls:
                raise UnknownSortNameError(f"unknown sort name {name!r}", cur.span(at))
            if name in resolving:
                raise ParseError(f"recursive sort definition through {name!r}", cur.span(at))
            resolving.add(name)
            expr, name_at = sort_decls[name]
            if isinstance(expr, SortNameRef):
                aliases.append(name)
                name, at = expr.name, name_at
                continue
            resolved[name] = (
                (AtomicSort(name), 0) if expr is None else resolve_expr(expr, name_at, depth)
            )
        for alias in aliases:
            resolved[alias] = resolved[name]
        if depth + resolved[name][1] > MAX_SORT_NESTING:
            raise ParseError(_TOO_DEEP, cur.span(outer))
        return resolved[name]

    def resolve_expr(expr: SortExpr, at: int, depth: int) -> tuple[Sort, int]:
        if isinstance(expr, SortNameRef):
            return resolve_name(expr.name, at, depth)
        if depth == MAX_SORT_NESTING:
            raise ParseError(_TOO_DEEP, cur.span(outer))
        if isinstance(expr, CollectionExpr):
            element, nesting = resolve_expr(expr.element, at, depth + 1)
            return CollectionSort(expr.kind, element), nesting + 1
        fields = [(f, *resolve_expr(s, at, depth + 1)) for f, s in expr.fields]
        if len({f for f, _, _ in fields}) != len(fields):
            raise DuplicateDefinitionError("record field declared twice", cur.span(at))
        return RecordSort(tuple((f, s) for f, s, _ in fields)), 1 + max(n for _, _, n in fields)

    # a sort nested too deep is reported at the declaration resolved from the top
    for name, (_, outer) in sort_decls.items():
        resolve_name(name, outer, 0)
    table = {name: sort for name, (sort, _) in resolved.items()}

    processes: dict[ProcessId, Process] = {}
    nets: dict[ProcessId, tuple[ProcessNet, InterfaceBinding]] = {}
    ids: dict[tuple[str, ...], ProcessId] = {}

    def build(so_far: Model, owner: ProcessId, path: tuple[str, ...], spec: NetSpec) -> None:
        block = f"net for {'.'.join(path)}" if path else "top level"
        try:
            members, net, binding = build_subnet(so_far, owner, spec)
        except (UnknownPortError, InterfaceMismatchError) as exc:
            raise ParseError(f"{block}: {exc}") from exc
        processes.update((p.id, p) for p in members)
        ids.update((path + (p.name,), p.id) for p in members)
        if path:
            nets[owner] = (net, binding)

    # the top level is a block with no owner, its processes' ids bare names
    build(Model(table, {}, "", nets), "", (), top)
    # A net's owner is a member of its parent's net, so parents go first.
    # build_subnet reads the model's tables, not its root.  A member's id is
    # its owner's and its name, so the blocks of one depth cannot make the
    # same id, and each depth is built against the model the ones above made.
    for _, paths in itertools.groupby(sorted(net_blocks, key=len), key=len):
        so_far = Model(table, dict(processes), "", nets)
        for path in paths:
            if path not in ids:
                raise ParseError(f"net for {'.'.join(path)}: no such process is declared")
            build(so_far, ids[path], path, net_blocks[path])

    model = Model(table, processes, ids[(top.members[0].name,)], nets)
    # a port's inline record sort is resolved by build_subnet, which does not
    # look for a field declared twice
    if any(core.sort_problems(p.sort) for p in model.ports.values() if p.sort is not None):
        raise DuplicateDefinitionError("record field declared twice")
    return model


# --- script parsing ----------------------------------------------------------------


def _parse_port_path(cur: _Cursor) -> PortRef:
    segments = _parse_path(cur)
    if len(segments) < 2:
        raise ParseError("expected <process-path>.<port>", cur.span(cur.pos))
    return PortRef(segments[:-1], segments[-1])


def _take_head(cur: _Cursor) -> tuple[str, int]:
    """A rule name, its words joined by ``-``, and its first token's index."""
    head = cur.take_ident("rule name", allow_reserved=True)
    at = cur.last
    while cur.skip("-"):
        head += "-" + cur.take_ident("rule name", allow_reserved=True)
    return head, at


def parse_script(text: str, filename: str = "<script>") -> RefinementScript:
    """Parse a refinement script into an ordered list of rule invocations."""
    cur = _Cursor(text, filename)
    steps = []
    while True:
        cur.skip_separators()
        if cur.peek() is None:
            break
        head, at = _take_head(cur)
        if head == "decompose":
            path = _parse_path(cur)
            cur.take_punct("{")
            subnet = _parse_net_statements(cur, path[-1], f"decompose {'.'.join(path)}")
            steps.append(DecomposeStep(path, subnet))
        elif head == "add-channel":
            src = _parse_port_path(cur)
            cur.take_punct("->")
            dst = _parse_port_path(cur)
            steps.append(AddChannelStep(src, dst))
        elif head == "assign-sort":
            ref = _parse_port_path(cur)
            cur.take_punct(":")
            steps.append(AssignSortStep(ref, _parse_sort_expr(cur)))
        elif head == "split-port":
            ref = _parse_port_path(cur)
            cur.take_punct("->")
            parts = []
            while True:
                pname = cur.take_ident("part name")
                spec = PartSpec(pname)
                if cur.skip(":"):
                    if cur.skip("{"):
                        fields = [cur.take_ident("field name", allow_reserved=True)]
                        while cur.skip(","):
                            fields.append(cur.take_ident("field name", allow_reserved=True))
                        cur.take_punct("}")
                        spec = PartSpec(pname, fields=tuple(fields))
                    else:
                        spec = PartSpec(pname, ref=cur.take_ident("field or sort"))
                parts.append(spec)
                if not cur.skip(","):
                    break
            steps.append(SplitPortStep(ref, tuple(parts)))
        elif head == "fold":
            path = _parse_path(cur)
            cur.take_punct("{")
            group = [cur.take_ident("member name")]
            while cur.skip(","):
                group.append(cur.take_ident("member name"))
            cur.take_punct("}")
            if cur.take_ident("'as'", allow_reserved=True) != "as":
                raise ParseError("fold needs 'as <name>'", cur.span())
            new_name = cur.take_ident("process name")
            steps.append(FoldStep(path, tuple(group), new_name))
        elif head == "unfold":
            steps.append(UnfoldStep(_parse_path(cur)))
        else:
            raise UnknownRuleNameError(f"unknown rule {head!r}", cur.span(at))
    return RefinementScript(tuple(steps), provenance=filename)


# --- canonical printing ---------------------------------------------------------------


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
    table, names = model.sort_table, model._sort_names
    lines: list[str] = []
    for name in sorted(table):
        sort = table[name]
        # a self-named atomic anchors its alias group; otherwise the least name
        anchored = isinstance(sort, AtomicSort) and table.get(sort.name) == sort
        owner = sort.name if anchored else names[sort]
        if name != owner:
            lines.append(f"sort {name} = {owner}")
        elif sort == AtomicSort(name):
            lines.append(f"sort {name}")
        else:
            lines.append(f"sort {name} = {core.sort_structure(sort, names)}")
    if lines:
        lines.append("")

    lines.extend(_block_lines(net_spec(model, "", names), "", ""))
    paths = {owner: core.display_path(model, owner) for owner in model.nets}
    for owner in sorted(paths, key=paths.__getitem__):
        owner_proc = model.processes.get(owner)
        lines.append("")
        lines.append(f"net for {'.'.join(paths[owner])} {{")
        spec = net_spec(model, owner, names)
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
            proc = model.processes.get(member)
            name = proc.name if proc is not None else member
            # expanded only if its binding takes each of its ports inside, so
            # that every edge at it ends at a drawn node
            expand = remaining > 1 and member in model.nets and proc is not None
            if expand and set(proc.ports()) <= model.nets[member][1].to_subnet().keys():
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

    owners = model.port_owners

    def resolve(port_id: str) -> str:
        # descend through bindings while the owning process is expanded
        while owners.get(port_id) in expanded:
            port_id = model.nets[owners[port_id]][1].to_subnet()[port_id]
        return port_id

    def label(sort: Sort | None) -> str:
        if sort is None:
            return ""
        return f" [label={_dot_quote(str(core.sort_expr(sort, model._sort_names)))}]"

    def edge(src_port: str, dst_port: str) -> None:
        sort = None
        for p in (src_port, dst_port):
            port = model.ports.get(p)
            if port is not None and port.sort is not None:
                sort = port.sort
                break
        src, dst = owners.get(resolve(src_port)), owners.get(resolve(dst_port))
        if src is None or dst is None:
            return
        lines.append(f"  {node_of(src)} -> {node_of(dst)}{label(sort)};")

    for ch in sorted(net.channels, key=lambda c: (c.source, c.dest)):
        edge(ch.source, ch.dest)

    env_count = 0
    for boundary, inward in ((net.env_inputs, True), (net.env_outputs, False)):
        for port_id in sorted(boundary):
            port_id = resolve(port_id)
            port = model.ports.get(port_id)
            if port is None:
                continue
            env = f"e{env_count}"
            env_count += 1
            lines.append(f"  {env} [shape=point, label=\"\"];")
            node = node_of(owners[port_id])
            ends = (env, node) if inward else (node, env)
            lines.append(f"  {ends[0]} -> {ends[1]}{label(port.sort)};")

    lines.append("}")
    return "\n".join(lines) + "\n"


__all__ = [
    "parse_model",
    "print_model",
    "parse_script",
    "export_dot",
    "SourceSpan",
]
