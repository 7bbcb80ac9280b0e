"""Text format for models and refinement scripts, plus DOT export.

The formats are specified in the README's "File formats".  The whole text
is split into tokens at once, by one regular expression, and a token's line
and column are computed only for an error.  Statements are read by index:
each reader takes the index of its first token and returns what it read
with the index after it; it tests each token inline, against the set of
the text's names or the punctuation it expects, so reading a statement
calls no function per token.  The cursor makes each error that names a
token, from the token's index.

A model's top level and each of its ``net for`` blocks are read into a
``refine.NetSpec`` of ``ProcessSpec`` and ``RuleSpec`` values: named tuples,
each about as cheap to build as a tuple, with one sort expression shared by
the ports that name one sort.  Each block is then built as a decomposition
of its owner by ``refine.build_subnet``, the builder the ``decompose`` rule
uses, which resolves each distinct sort expression once and finds each port
a rule or channel names in a dictionary of its member's ports.  The parser
keeps only the grammar and the sort table, and tolerates ill-formed nets:
the validator owns all constraint checking.  Printing goes the other way,
each net from its ``refine.net_spec``, the spec ``build_subnet`` builds it
back from; the brute-force search takes its ``decompose`` candidates from
the same exporter.
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
    """The tokens of a text, which the readers below read by index.

    A token is its source text, a string keeping its quotes, so its first
    character gives its kind: a letter or ``_`` an identifier, ``"`` a
    string, anything else punctuation.  The list ends in ``None``, which is
    none of the tokens a reader looks for, so a reader stops there without
    a test for the end.  Positions are computed only for errors, from a
    token's index.
    """

    def __init__(self, text: str, filename: str):
        tokens = _TOKEN.findall(text)
        if "#" in text:
            tokens = [tok for tok in tokens if tok[0] != "#"]
        distinct = set(tokens)
        tokens.append(None)
        self.tokens: list[str | None] = tokens
        self.text = text
        self.filename = filename
        bad = [tok for tok in distinct if len(tok) == 1 and tok not in _GOOD_CHARS]
        if bad:
            first = min(map(tokens.index, bad))
            tok = tokens[first]
            what = "unterminated string" if tok == '"' else f"unexpected character {tok!r}"
            raise self.error(what, first)
        # the text's identifiers, and those of them that may name something
        self.words = {tok for tok in distinct if tok[0] in _IDENT_START}
        self.names = self.words - RESERVED
        # one reference per sort name, shared by the ports that name it
        self.sort_refs: dict[str, SortNameRef] = {}
        # the token of each sort name's first reference, where the model
        # reader reports a name that no declaration defines
        self.sort_ref_at: dict[str, int] = {}
        # the name token of the first port whose inline sort declares a
        # record field twice; the model reader reports it after the build
        self.field_twice: int | None = None

    def span(self, index: int) -> SourceSpan:
        """Where token ``index`` starts; at the end, the position just past
        the last line."""
        if index >= len(self.tokens) - 1:
            lines = self.text.splitlines() or [""]
            return SourceSpan(self.filename, len(lines), len(lines[-1]) + 1)
        starts = (m.start(1) for m in _TOKEN.finditer(self.text) if m[1][0] != "#")
        offset = next(itertools.islice(starts, index, None))
        # the token's first character ends the last of these lines
        lines = self.text[: offset + 1].splitlines()
        return SourceSpan(self.filename, len(lines), len(lines[-1]))

    def error(self, message: str, index: int, kind: type[ParseError] = ParseError) -> ParseError:
        """The error ``kind`` with ``message`` at token ``index``; every
        error a reader raises is made here."""
        return kind(message, self.span(index))

    def expected(
        self, index: int, what: str, name: bool = False, otherwise: str = ""
    ) -> ParseError:
        """The error for token ``index``, which is not the ``what`` expected.

        With ``name``, a name was expected, and a reserved word there gets
        its own message; with ``otherwise``, a keyword was, and another
        identifier there gets that message."""
        tok = self.tokens[index]
        if tok in self.words and name:
            return self.error(f"{tok!r} is a reserved word and cannot name a {what}", index)
        if tok in self.words and otherwise:
            return self.error(otherwise, index)
        got = f", got {_shown(tok)!r}" if tok else ""
        return self.error(f"expected {what}{got}", index)


# --- shared statement readers ---------------------------------------------------


def _parse_sort_expr(cur: _Cursor, i: int, depth: int = 0) -> tuple[SortExpr, int]:
    """A sort expression inside ``depth`` record and collection sorts."""
    toks = cur.tokens
    tok = toks[i]
    if tok not in cur.words:
        raise cur.error("expected a sort expression", i)
    if tok in ("record", core.SEQUENCE, core.SET) and depth == MAX_SORT_NESTING:
        raise cur.error(_TOO_DEEP, i)
    if tok == "record":
        at = i
        if toks[i + 1] != "{":
            raise cur.expected(i + 1, "'{'")
        i += 2
        fields: list[tuple[str, SortExpr]] = []
        while toks[i] != "}":
            fname = toks[i]
            if fname not in cur.words:
                raise cur.expected(i, "field name")
            if toks[i + 1] != ":":
                raise cur.expected(i + 1, "':'")
            fexpr, i = _parse_sort_expr(cur, i + 2, depth + 1)
            fields.append((fname, fexpr))
            if toks[i] == ",":
                i += 1
        if not fields:
            raise cur.error("a record sort needs at least one field", at)
        return RecordExpr(tuple(fields)), i + 1
    if tok in (core.SEQUENCE, core.SET):
        element, i = _parse_sort_expr(cur, i + 1, depth + 1)
        return CollectionExpr(tok, element), i
    if tok in RESERVED:
        raise cur.error(f"{tok!r} cannot name a sort", i)
    cur.sort_ref_at.setdefault(tok, i)
    return SortNameRef(tok), i + 1


def _field_twice(expr: SortExpr) -> bool:
    """Whether a record sort in ``expr`` declares a field twice."""
    while isinstance(expr, CollectionExpr):
        expr = expr.element
    if not isinstance(expr, RecordExpr):
        return False
    names = {name for name, _ in expr.fields}
    return len(names) != len(expr.fields) or any(_field_twice(s) for _, s in expr.fields)


def _parse_words(
    cur: _Cursor, i: int, sep: str, what: str, name: bool = True
) -> tuple[tuple[str, ...], int]:
    """Identifiers joined by ``sep``, and the index after them: names, or
    with ``name`` false any identifiers, reserved words too."""
    toks = cur.tokens
    allowed = cur.names if name else cur.words
    words = []
    while True:
        tok = toks[i]
        if tok not in allowed:
            raise cur.expected(i, what, name)
        words.append(tok)
        if toks[i + 1] != sep:
            return tuple(words), i + 1
        i += 2


def _parse_process_block(cur: _Cursor, i: int) -> tuple[ProcessSpec, int, int]:
    """A process block, its name's token index and the index after it.

    A port's sort that is a plain name is read here; any other goes to
    ``_parse_sort_expr``."""
    toks, names = cur.tokens, cur.names
    name = toks[i]
    if name not in names:
        raise cur.expected(i, "process name", name=True)
    name_at = i
    if toks[i + 1] != "{":
        raise cur.expected(i + 1, "'{'")
    i += 2
    inputs: list[tuple[str, SortExpr | None]] = []
    outputs: list[tuple[str, SortExpr | None]] = []
    note = ""
    seen: set[str] = set()
    refs = cur.sort_refs
    while True:
        tok = toks[i]
        while tok == ";":
            i += 1
            tok = toks[i]
        if tok == "}":
            break
        if tok is None:
            raise cur.error(f"unterminated process block {name!r}", i)
        at = i
        i += 1
        if tok in (INPUT, OUTPUT):
            decls = inputs if tok == INPUT else outputs
            # a port declared twice is reported once the section is read
            twice = None
            pname = toks[i]
            while pname in names:
                if pname in seen and twice is None:
                    twice = i
                seen.add(pname)
                sexpr = None
                if toks[i + 1] != ":":
                    i += 1
                elif toks[i + 2] in names:
                    sexpr = refs.get(toks[i + 2])
                    if sexpr is None:
                        sexpr = refs[toks[i + 2]] = SortNameRef(toks[i + 2])
                        cur.sort_ref_at.setdefault(toks[i + 2], i + 2)
                    i += 3
                else:
                    sexpr, after = _parse_sort_expr(cur, i + 2)
                    if cur.field_twice is None and _field_twice(sexpr):
                        cur.field_twice = i
                    i = after
                decls.append((pname, sexpr))
                pname = toks[i]
            if twice is not None:
                raise cur.error(
                    f"port {toks[twice]!r} declared twice on process {name!r}",
                    twice,
                    DuplicateDefinitionError,
                )
        elif tok == "note":
            text = toks[i]
            if text is None or text[0] != '"':
                raise cur.error("note expects a quoted string", i)
            note = text[1:-1]
            i += 1
        else:
            raise cur.error(f"unexpected {_shown(tok)!r} in process block", at)
    return ProcessSpec(name, tuple(inputs), tuple(outputs), note), name_at, i + 1


def _parse_labeled_ports(cur: _Cursor, i: int) -> tuple[tuple[tuple[str, str], ...], int]:
    toks, names = cur.tokens, cur.names
    if toks[i] != "{":
        raise cur.expected(i, "'{'")
    i += 1
    refs: list[tuple[str, str]] = []
    pname = toks[i]
    while pname != "}":
        if pname not in names:
            raise cur.expected(i, "port name", name=True)
        if toks[i + 1] == ".":
            label = toks[i + 2]
            if label not in cur.words:
                raise cur.expected(i + 2, "fragment label")
            i += 3
        else:
            label = WHOLE
            i += 1
        refs.append((pname, label))
        if toks[i] == ",":
            i += 1
        pname = toks[i]
    return tuple(refs), i + 1


def _parse_rule_stmt(cur: _Cursor, i: int) -> tuple[RuleSpec, int]:
    toks, names = cur.tokens, cur.names
    proc = toks[i]
    if proc not in names:
        raise cur.expected(i, "process name", name=True)
    if toks[i + 1] != ":":
        raise cur.expected(i + 1, "':'")
    if toks[i + 2] != "needs":
        raise cur.expected(i + 2, "'needs'", otherwise="firing rule must start with 'needs'")
    needs, i = _parse_labeled_ports(cur, i + 3)
    if toks[i] != "produces":
        raise cur.expected(i, "'produces'", otherwise="firing rule needs a 'produces' list")
    produces, i = _parse_labeled_ports(cur, i + 1)
    compute = "tag"
    if toks[i] == "using":
        compute = toks[i + 1]
        if compute not in names:
            raise cur.expected(i + 1, "compute name", name=True)
        i += 2
    return RuleSpec(proc, needs, produces, compute), i


def _parse_qualified(cur: _Cursor, i: int) -> tuple[str, str, int]:
    """``process.port`` and the index after it."""
    toks, names = cur.tokens, cur.names
    if toks[i] not in names:
        raise cur.expected(i, "process name", name=True)
    if toks[i + 1] != ".":
        raise cur.expected(i + 1, "'.'")
    if toks[i + 2] not in names:
        raise cur.expected(i + 2, "port name", name=True)
    return toks[i], toks[i + 2], i + 3


def _parse_net_statements(
    cur: _Cursor, i: int, owner_name: str, context: str
) -> tuple[NetSpec, int]:
    """The statements of a block up to its ``}``, and the index after it."""
    toks = cur.tokens
    # dicts keep declaration order and find a repeat in constant time
    members: dict[str, ProcessSpec] = {}
    channels: dict[tuple[str, str, str, str], None] = {}
    input_binds: dict[tuple[str, str, str], None] = {}
    output_binds: dict[tuple[str, str, str], None] = {}
    rules: list[RuleSpec] = []
    while True:
        tok = toks[i]
        while tok == ";":
            i += 1
            tok = toks[i]
        at = i
        i += 1
        if tok == "}":
            break
        if tok == "rule":
            rule, i = _parse_rule_stmt(cur, i)
            rules.append(rule)
        elif tok == "process":
            spec, name_at, i = _parse_process_block(cur, i)
            if spec.name in members:
                raise cur.error(
                    f"process {spec.name!r} declared twice in {context}",
                    name_at,
                    DuplicateDefinitionError,
                )
            members[spec.name] = spec
        elif tok == "channel":
            sa, pa, i = _parse_qualified(cur, i)
            if toks[i] != "->":
                raise cur.expected(i, "'->'")
            sb, pb, i = _parse_qualified(cur, i + 1)
            entry = (sa, pa, sb, pb)
            if entry in channels:
                raise cur.error(
                    f"channel {sa}.{pa} -> {sb}.{pb} declared twice", at, DuplicateDefinitionError
                )
            channels[entry] = None
        elif tok in ("input", "output"):
            member, mport, i = _parse_qualified(cur, i)
            if toks[i] != "binds":
                raise cur.expected(i, "'binds'", otherwise="boundary statement needs 'binds'")
            pproc, pport, after = _parse_qualified(cur, i + 1)
            if pproc != owner_name:
                raise cur.error(
                    f"boundary binds must name the owner {owner_name!r}, got {pproc!r}", i + 1
                )
            i = after
            entry = (member, mport, pport)
            target = input_binds if tok == "input" else output_binds
            if entry in target:
                raise cur.error(
                    f"{tok} bind for {member}.{mport} declared twice", at, DuplicateDefinitionError
                )
            target[entry] = None
        elif tok is None:
            raise cur.error(f"unterminated block for {context}", at)
        else:
            raise cur.error(f"unexpected {_shown(tok)!r} in net block", at)
    spec = NetSpec(
        tuple(members.values()), tuple(channels), tuple(input_binds), tuple(output_binds),
        tuple(rules),
    )
    return spec, i


# --- model parsing ---------------------------------------------------------------


def parse_model(text: str, filename: str = "<model>") -> Model:
    """Parse model text; structure mirrors the text, well-formedness aside."""
    cur = _Cursor(text, filename)
    toks, names = cur.tokens, cur.names
    # each sort's expression and its name's token index
    sort_decls: dict[str, tuple[SortExpr | None, int]] = {}
    top_procs: dict[str, ProcessSpec] = {}
    top_rules: list[RuleSpec] = []
    net_blocks: dict[tuple[str, ...], NetSpec] = {}

    i = 0
    while True:
        tok = toks[i]
        while tok == ";":
            i += 1
            tok = toks[i]
        if tok is None:
            break
        at = i
        i += 1
        if tok == "sort":
            name = toks[i]
            if name not in names:
                raise cur.expected(i, "sort name", name=True)
            if name in sort_decls:
                raise cur.error(f"sort {name!r} declared twice", i, DuplicateDefinitionError)
            name_at = i
            expr: SortExpr | None = None
            i += 1
            if toks[i] == "=":
                expr, i = _parse_sort_expr(cur, i + 1)
            sort_decls[name] = (expr, name_at)
        elif tok == "process":
            spec, name_at, i = _parse_process_block(cur, i)
            if spec.name in top_procs:
                raise cur.error(
                    f"process {spec.name!r} declared twice at top level",
                    name_at,
                    DuplicateDefinitionError,
                )
            top_procs[spec.name] = spec
        elif tok == "net":
            if toks[i] != "for":
                raise cur.expected(i, "'for'", otherwise="expected 'net for <path>'")
            path, i = _parse_words(cur, i + 1, ".", "process name")
            where = f"net for {'.'.join(path)}"
            if path in net_blocks:
                raise cur.error(f"{where} declared twice", at, DuplicateDefinitionError)
            if toks[i] != "{":
                raise cur.expected(i, "'{'")
            net_blocks[path], i = _parse_net_statements(cur, i + 1, path[-1], where)
        elif tok == "rule":
            rule, i = _parse_rule_stmt(cur, i)
            top_rules.append(rule)
        elif tok in cur.words:
            raise cur.error(f"unknown declaration {tok!r}", at)
        else:
            raise cur.error(f"unexpected {_shown(tok)!r} at top level", at)

    if not top_procs:
        raise cur.error("a model must declare a root process", i)

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
                raise cur.error(f"unknown sort name {name!r}", at, UnknownSortNameError)
            if name in resolving:
                raise cur.error(f"recursive sort definition through {name!r}", at)
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
            raise cur.error(_TOO_DEEP, outer)
        return resolved[name]

    def resolve_expr(expr: SortExpr, at: int, depth: int) -> tuple[Sort, int]:
        if isinstance(expr, SortNameRef):
            return resolve_name(expr.name, at, depth)
        if depth == MAX_SORT_NESTING:
            raise cur.error(_TOO_DEEP, outer)
        if isinstance(expr, CollectionExpr):
            element, nesting = resolve_expr(expr.element, at, depth + 1)
            return CollectionSort(expr.kind, element), nesting + 1
        fields = [(f, *resolve_expr(s, at, depth + 1)) for f, s in expr.fields]
        if len({f for f, _, _ in fields}) != len(fields):
            raise cur.error("record field declared twice", at, DuplicateDefinitionError)
        return RecordSort(tuple((f, s) for f, s, _ in fields)), 1 + max(n for _, _, n in fields)

    # a sort nested too deep is reported at the declaration resolved from the top
    for name, (_, outer) in sort_decls.items():
        resolve_name(name, outer, 0)
    table = {name: sort for name, (sort, _) in resolved.items()}
    # every declaration resolved, so only a port can name an undeclared sort
    for name, at in cur.sort_ref_at.items():
        if name not in table:
            raise cur.error(f"unknown sort name {name!r}", at, UnknownSortNameError)

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

    # a port's inline record sort is resolved by build_subnet, which does not
    # look for a field declared twice
    if cur.field_twice is not None:
        raise cur.error("record field declared twice", cur.field_twice, DuplicateDefinitionError)
    return Model(table, processes, ids[(top.members[0].name,)], nets)


# --- script parsing ----------------------------------------------------------------


def _parse_port_path(cur: _Cursor, i: int) -> tuple[PortRef, int]:
    segments, i = _parse_words(cur, i, ".", "process name")
    if len(segments) < 2:
        raise cur.error("expected <process-path>.<port>", i)
    return PortRef(segments[:-1], segments[-1]), i


def parse_script(text: str, filename: str = "<script>") -> RefinementScript:
    """Parse a refinement script into an ordered list of rule invocations."""
    cur = _Cursor(text, filename)
    toks, names = cur.tokens, cur.names
    steps = []
    i = 0
    while True:
        while toks[i] == ";":
            i += 1
        if toks[i] is None:
            break
        # a rule name is words joined by ``-``
        at = i
        words, i = _parse_words(cur, i, "-", "rule name", name=False)
        head = "-".join(words)
        if head == "decompose":
            path, i = _parse_words(cur, i, ".", "process name")
            if toks[i] != "{":
                raise cur.expected(i, "'{'")
            subnet, i = _parse_net_statements(cur, i + 1, path[-1], f"decompose {'.'.join(path)}")
            steps.append(DecomposeStep(path, subnet))
        elif head == "add-channel":
            src, i = _parse_port_path(cur, i)
            if toks[i] != "->":
                raise cur.expected(i, "'->'")
            dst, i = _parse_port_path(cur, i + 1)
            steps.append(AddChannelStep(src, dst))
        elif head == "assign-sort":
            ref, i = _parse_port_path(cur, i)
            if toks[i] != ":":
                raise cur.expected(i, "':'")
            sexpr, i = _parse_sort_expr(cur, i + 1)
            steps.append(AssignSortStep(ref, sexpr))
        elif head == "split-port":
            ref, i = _parse_port_path(cur, i)
            if toks[i] != "->":
                raise cur.expected(i, "'->'")
            i += 1
            parts = []
            while True:
                pname = toks[i]
                if pname not in names:
                    raise cur.expected(i, "part name", name=True)
                spec = PartSpec(pname)
                i += 1
                if toks[i] == ":" and toks[i + 1] == "{":
                    fields, i = _parse_words(cur, i + 2, ",", "field name", name=False)
                    if toks[i] != "}":
                        raise cur.expected(i, "'}'")
                    i += 1
                    spec = PartSpec(pname, fields=fields)
                elif toks[i] == ":":
                    if toks[i + 1] not in names:
                        raise cur.expected(i + 1, "field or sort", name=True)
                    spec = PartSpec(pname, ref=toks[i + 1])
                    i += 2
                parts.append(spec)
                if toks[i] != ",":
                    break
                i += 1
            steps.append(SplitPortStep(ref, tuple(parts)))
        elif head == "fold":
            path, i = _parse_words(cur, i, ".", "process name")
            if toks[i] != "{":
                raise cur.expected(i, "'{'")
            group, i = _parse_words(cur, i + 1, ",", "member name")
            if toks[i] != "}":
                raise cur.expected(i, "'}'")
            if toks[i + 1] != "as":
                raise cur.expected(i + 1, "'as'", otherwise="fold needs 'as <name>'")
            if toks[i + 2] not in names:
                raise cur.expected(i + 2, "process name", name=True)
            steps.append(FoldStep(path, group, toks[i + 2]))
            i += 3
        elif head == "unfold":
            path, i = _parse_words(cur, i, ".", "process name")
            steps.append(UnfoldStep(path))
        else:
            raise cur.error(f"unknown rule {head!r}", at, UnknownRuleNameError)
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
    path order.  Isomorphic models print byte-identically; parsing the
    output yields a model isomorphic to the input.
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

    clusters = 0
    owners = model.port_owners

    def by_name(member: str) -> tuple[str, str]:
        return (model.processes[member].name if member in model.processes else member, member)

    # depth first with an explicit stack of the nets being drawn, innermost
    # last, each with the members it has left, its levels left and its indent
    stack = [(iter(sorted(net.processes, key=by_name)), depth, "  ")]
    while stack:
        members, remaining, indent = stack[-1]
        for member in members:
            proc = model.processes.get(member)
            name = proc.name if proc is not None else member
            expand = remaining > 1 and member in model.nets and proc is not None
            if expand:
                # only if its binding takes each of its ports to a port a
                # member of its subnet holds: every edge at it then ends at a
                # drawn node, and following bindings down ends
                subnet, binding = model.nets[member]
                inner = binding.to_subnet()
                expand = all(owners.get(inner.get(p)) in subnet.processes for p in proc.ports())
            if expand:
                expanded.add(member)
                lines.append(f"{indent}subgraph cluster{clusters} {{")
                lines.append(f"{indent}  label={_dot_quote(name)};")
                clusters += 1
                stack.append(
                    (iter(sorted(subnet.processes, key=by_name)), remaining - 1, indent + "  ")
                )
                break
            lines.append(f"{indent}{node_of(member)} [label={_dot_quote(name)}];")
        else:
            stack.pop()
            if stack:
                lines.append(f"{indent[2:]}}}")

    def resolve(port_id: str) -> str:
        # descend through bindings while the owning process is expanded; in
        # a tree that is at most depth - 1 levels, and a containment cycle
        # must not make it more
        for _ in range(depth - 1):
            if owners.get(port_id) not in expanded:
                break
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
