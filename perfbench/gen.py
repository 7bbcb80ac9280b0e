"""Seeded generator of benchmark inputs as ``.bpn`` / ``.bps`` / env text.

The generator builds its own tree of processes and renders it as text; it
does not import the package, so a commit and its parent receive byte-identical
inputs for the same seed.  Like real hierarchies, every net names its members
``p0``, ``p1``, ... so member names repeat across levels.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

ATOMICS = ("S0", "S1", "S2", "S3")
RECORDS = {
    "R0": (("f0", "S0"), ("f1", "S1")),
    "R1": (("f0", "S2"), ("f1", "S3"), ("f2", "S0")),
}
SORT_NAMES = ATOMICS + tuple(RECORDS)


@dataclass
class Proc:
    name: str
    ins: list[tuple[str, str | None]] = field(default_factory=list)
    outs: list[tuple[str, str | None]] = field(default_factory=list)
    # (needs, produces) port-name tuples; every label is ``whole``
    rules: list[tuple[tuple[str, ...], tuple[str, ...]]] = field(default_factory=list)
    net: Net | None = None
    path: tuple[str, ...] = ()

    def port_names(self) -> set[str]:
        return {n for n, _ in self.ins} | {n for n, _ in self.outs}


@dataclass
class Net:
    members: list[Proc]
    channels: list[tuple[str, str, str, str]] = field(default_factory=list)
    in_binds: list[tuple[str, str, str]] = field(default_factory=list)
    out_binds: list[tuple[str, str, str]] = field(default_factory=list)


@dataclass
class Tree:
    """A generated model: the root process with nets hanging off it."""

    root: Proc

    def processes(self) -> list[Proc]:
        """Every process, breadth first from the root."""
        out, queue = [], deque([self.root])
        while queue:
            proc = queue.popleft()
            out.append(proc)
            if proc.net is not None:
                queue.extend(proc.net.members)
        return out

    def leaves(self) -> list[Proc]:
        return [p for p in self.processes() if p.net is None and p is not self.root]


def _fresh(proc: Proc, prefix: str) -> str:
    taken = proc.port_names()
    k = 0
    while f"{prefix}{k}" in taken:
        k += 1
    return f"{prefix}{k}"


def _pick_sort(rng: random.Random) -> str | None:
    return None if rng.random() < 0.4 else rng.choice(SORT_NAMES)


def _add_channel(rng: random.Random, net: Net, src: Proc, dst: Proc) -> None:
    bound = {m for owner, m, _ in net.out_binds if owner == src.name}
    reusable = [(n, s) for n, s in src.outs if n not in bound]
    if reusable and rng.random() < 0.3:
        sname, sort = rng.choice(reusable)
    else:
        sname, sort = _fresh(src, "o"), _pick_sort(rng)
        src.outs.append((sname, sort))
    dname = _fresh(dst, "c")
    dst.ins.append((dname, sort))
    net.channels.append((src.name, sname, dst.name, dname))


def _rules(rng: random.Random, proc: Proc, max_rules: int) -> None:
    """One rule per output group; each rule needs a non-empty input subset."""
    ins = [n for n, _ in proc.ins]
    outs = [n for n, _ in proc.outs]
    if max_rules == 1:
        proc.rules = [(tuple(ins), tuple(outs))]
        return
    groups = min(len(outs), rng.randint(1, max_rules))
    cuts = sorted(rng.sample(range(1, len(outs)), groups - 1)) if groups > 1 else []
    bounds = [0, *cuts, len(outs)]
    proc.rules = []
    for a, b in zip(bounds, bounds[1:]):
        needs = tuple(n for n in ins if rng.random() < 0.5) or (rng.choice(ins),)
        proc.rules.append((needs, tuple(outs[a:b])))


def decompose(
    rng: random.Random, proc: Proc, members: int, max_rules: int = 1, min_outs: int = 1
) -> Net:
    """Attach a random acyclic, total subnet realizing ``proc``'s interface."""
    mems = [Proc(f"p{i}", path=proc.path + (f"p{i}",)) for i in range(members)]
    net = Net(mems)
    for k, (pname, sort) in enumerate(proc.ins):
        member = mems[0] if k == 0 else rng.choice(mems)
        mname = _fresh(member, "i")
        member.ins.append((mname, sort))
        net.in_binds.append((member.name, mname, pname))
    for k, (pname, sort) in enumerate(proc.outs):
        member = mems[-1] if k == 0 else rng.choice(mems)
        mname = _fresh(member, "o")
        member.outs.append((mname, sort))
        net.out_binds.append((member.name, mname, pname))
    # channels run from earlier to later members only, so the net is acyclic
    for j in range(1, members):
        for _ in range(1 + (rng.random() < 0.5)):
            _add_channel(rng, net, mems[rng.randrange(j)], mems[j])
    for member in mems:
        while len(member.outs) < min_outs or not member.outs:
            member.outs.append((_fresh(member, "o"), _pick_sort(rng)))
        _rules(rng, member, max_rules)
    proc.net = net
    return net


def _root(rng: random.Random, n_in: int, n_out: int) -> Proc:
    root = Proc(
        "system",
        [(f"in_{k}", _pick_sort(rng)) for k in range(n_in)],
        [(f"out_{k}", _pick_sort(rng)) for k in range(n_out)],
        path=("system",),
    )
    _rules(rng, root, 1)
    return root


def hier_model(rng: random.Random, target: int, max_members: int = 6) -> Tree:
    """A deep model of ``target`` processes, decomposed breadth first."""
    root = _root(rng, rng.randint(1, 3), rng.randint(1, 3))
    total, queue = 1, deque([root])
    while queue and total < target:
        proc = queue.popleft()
        if queue and rng.random() < 0.25:  # leave some leaves shallow
            continue
        left = target - total
        members = min(rng.randint(2, max_members), left)
        if left - members == 1:  # never leave a single process over
            members += 1 if members < max_members else -1
        total += members
        queue.extend(decompose(rng, proc, members).members)
    return Tree(root)


def wide_model(rng: random.Random, members: int) -> Tree:
    """A single-level net; each member has one to three rules."""
    root = _root(rng, 4, 4)
    decompose(rng, root, members, max_rules=3, min_outs=3)
    return Tree(root)


def derive_base(rng: random.Random) -> Tree:
    """A fixed shape with seeded atomic sorts, for the search workload.

    The root net runs p0 -> p1 -> p2; p1 and p2 are decomposed into members
    named a* and b*, so both can be unfolded.  Which documents carry no
    sort, and which carries a record, is fixed; the seed picks the atomic
    sort of every other document.  Every base therefore offers the search
    the same candidates, and every search of one kind costs the same.
    """
    docs = [rng.choice(ATOMICS) for _ in range(9)]
    docs[0] = "R1"
    docs[3] = docs[8] = None

    def proc(name, path, ins, outs):
        p = Proc(name, [(n, docs[d]) for n, d in ins], [(n, docs[d]) for n, d in outs],
                 path=path)
        _rules(rng, p, 1)
        return p

    root = proc("system", ("system",), [("in_0", 0), ("in_1", 1)], [("out_0", 7), ("out_1", 8)])
    top = ("system",)
    p0 = proc("p0", top + ("p0",), [("i0", 0), ("i1", 1)], [("o0", 2), ("o1", 3)])
    p1 = proc("p1", top + ("p1",), [("c0", 2)], [("o0", 5)])
    p2 = proc("p2", top + ("p2",), [("c0", 3), ("c1", 5)], [("o0", 7), ("o1", 8)])
    root.net = Net([p0, p1, p2],
                   [("p0", "o0", "p1", "c0"), ("p0", "o1", "p2", "c0"), ("p1", "o0", "p2", "c1")],
                   [("p0", "i0", "in_0"), ("p0", "i1", "in_1")],
                   [("p2", "o0", "out_0"), ("p2", "o1", "out_1")])
    a0 = proc("a0", p1.path + ("a0",), [("i0", 2)], [("o0", 4)])
    a1 = proc("a1", p1.path + ("a1",), [("c0", 4)], [("o0", 5)])
    p1.net = Net([a0, a1], [("a0", "o0", "a1", "c0")], [("a0", "i0", "c0")],
                 [("a1", "o0", "o0")])
    b0 = proc("b0", p2.path + ("b0",), [("i0", 3)], [("o0", 6)])
    b1 = proc("b1", p2.path + ("b1",), [("i0", 5), ("c0", 6)], [("o0", 7), ("o1", 8)])
    p2.net = Net([b0, b1], [("b0", "o0", "b1", "c0")], [("b0", "i0", "c0"), ("b1", "i0", "c1")],
                 [("b1", "o0", "o0"), ("b1", "o1", "o1")])
    return Tree(root)


# --- rendering --------------------------------------------------------------------


def _ports_text(ports: list[tuple[str, str | None]]) -> str:
    return " ".join(n if s is None else f"{n} : {s}" for n, s in ports)


def _process_text(proc: Proc) -> str:
    parts = []
    if proc.ins:
        parts.append("in " + _ports_text(proc.ins))
    if proc.outs:
        parts.append("out " + _ports_text(proc.outs))
    return f"process {proc.name} {{ {'; '.join(parts)} }}"


def _rule_lines(proc: Proc) -> list[str]:
    return [
        f"rule {proc.name} : needs {{ {', '.join(needs)} }} produces {{ {', '.join(prods)} }}"
        for needs, prods in proc.rules
    ]


def net_body(owner: Proc) -> list[str]:
    net = owner.net
    lines = []
    for member in net.members:
        lines.append(_process_text(member))
        lines.extend(_rule_lines(member))
    lines += [f"channel {a}.{pa} -> {b}.{pb}" for a, pa, b, pb in net.channels]
    lines += [f"input {m}.{mp} binds {owner.name}.{pp}" for m, mp, pp in net.in_binds]
    lines += [f"output {m}.{mp} binds {owner.name}.{pp}" for m, mp, pp in net.out_binds]
    return lines


def model_text(tree: Tree) -> str:
    lines = [f"sort {name}" for name in ATOMICS]
    for name, fields in RECORDS.items():
        inner = ", ".join(f"{f}: {s}" for f, s in fields)
        lines.append(f"sort {name} = record {{ {inner} }}")
    lines.append("")
    lines.append(_process_text(tree.root))
    lines.extend(_rule_lines(tree.root))
    for proc in tree.processes():
        if proc.net is not None:
            lines.append("")
            lines.append(f"net for {'.'.join(proc.path)} {{")
            lines.extend("  " + line for line in net_body(proc))
            lines.append("}")
    return "\n".join(lines) + "\n"


def env_text(tree: Tree) -> str:
    return "".join(f"{name} whole = v{k}\n" for k, (name, _) in enumerate(tree.root.ins))


def expected_outputs(tree: Tree) -> str:
    """``simulate`` stdout under the default ``tag`` compute when every root
    input arrives whole: each root output carries one ``whole`` per need of
    the leaf rule that produces it."""
    lines = []
    for pport, _ in tree.root.outs:
        proc, port = tree.root, pport
        while proc.net is not None:
            member, port = next((m, mp) for m, mp, pp in proc.net.out_binds if pp == port)
            proc = next(m for m in proc.net.members if m.name == member)
        needs = next(n for n, prods in proc.rules if port in prods)
        lines.append((pport, "whole", "(" + "+".join(["whole"] * len(needs)) + ")"))
    return "".join(f"{n} {lab} = {text}\n" for n, lab, text in sorted(lines))


def dot_shape(tree: Tree) -> tuple[list[str], list[str], int]:
    """Node labels, cluster labels and edge count of ``export-dot --depth 2``."""
    net = tree.root.net
    nodes, clusters = [], []
    for member in net.members:
        if member.net is None:
            nodes.append(member.name)
        else:
            clusters.append(member.name)
            nodes.extend(m.name for m in member.net.members)
    return nodes, clusters, len(net.channels) + len(net.in_binds) + len(net.out_binds)


# --- refinement scripts --------------------------------------------------------------


def script_text(rng: random.Random, tree: Tree, blocks: int = 2) -> tuple[str, list[Proc]]:
    """A script using all six rules on ``blocks`` distinct leaves.

    Each block decomposes a leaf into two fresh members, wires and sorts a
    fresh channel between them, splits their internal channel, folds the
    first member and unfolds the leaf.  Fresh names keep every step valid.
    Returns the text and the leaves it rewrites.
    """
    leaves = rng.sample(tree.leaves(), blocks)
    lines = []
    for k, leaf in enumerate(leaves):
        at = ".".join(leaf.path)
        a, b = f"u{k}a", f"u{k}b"
        ins = [n for n, _ in leaf.ins]
        outs = [n for n, _ in leaf.outs]
        lines.append(f"decompose {at} {{")
        lines.append(f"  process {a} {{ in {_ports_text(leaf.ins)}; out m{k} }}")
        lines.append(f"  rule {a} : needs {{ {', '.join(ins)} }} produces {{ m{k} }}")
        lines.append(f"  process {b} {{ in n{k}; out {_ports_text(leaf.outs)} }}")
        lines.append(f"  rule {b} : needs {{ n{k} }} produces {{ {', '.join(outs)} }}")
        lines.append(f"  channel {a}.m{k} -> {b}.n{k}")
        lines += [f"  input {a}.{n} binds {leaf.name}.{n}" for n in ins]
        lines += [f"  output {b}.{n} binds {leaf.name}.{n}" for n in outs]
        lines.append("}")
        lines.append(f"add-channel {at}.{a}.x{k} -> {at}.{b}.y{k}")
        lines.append(f"assign-sort {at}.{a}.x{k} : {rng.choice(ATOMICS)}")
        lines.append(f"split-port {at}.{a}.m{k} -> m{k}a, m{k}b")
        lines.append(f"fold {at} {{ {a} }} as w{k}")
        lines.append(f"unfold {at}")
    return "\n".join(lines) + "\n", leaves
