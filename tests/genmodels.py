"""Seeded random well-formed models and random applicable rule applications.

Models are built exclusively through the rule engine (decompose applied to a
bare root), so generation exercises the same code paths the tests check and
every generated model is well-formed by construction.  Proposals draw their
vocabulary from the model's own sort table and the refined-side port names,
which keeps them inside the brute-force oracle's search universe.
"""

from __future__ import annotations

import dataclasses
import random

from bpnet import refine
from bpnet.core import (
    Channel,
    FiringRule,
    InterfaceBinding,
    Port,
    Process,
    ProcessNet,
    INPUT,
    OUTPUT,
    WHOLE,
    AtomicSort,
    Model,
    RecordSort,
    Sort,
    SortExpr,
    SortNameRef,
    container_index,
    display_path,
    fresh_name,
    serialize_order,
    sort_expr,
)
from bpnet.errors import BpnError
from bpnet.refine import (
    AddChannelStep,
    AssignSortStep,
    DecomposeStep,
    FoldStep,
    NetSpec,
    PartSpec,
    PortRef,
    ProcessSpec,
    RuleSpec,
    SplitPortStep,
)


def gen_sort_table(rng: random.Random) -> dict[str, Sort]:
    atomics = [f"S{i}" for i in range(rng.randint(2, 4))]
    table: dict[str, Sort] = {name: AtomicSort(name) for name in atomics}
    for i in range(rng.randint(1, 2)):
        fields = tuple(
            (f"f{j}", table[rng.choice(atomics)]) for j in range(rng.randint(2, 3))
        )
        table[f"R{i}"] = RecordSort(fields)
    return table


def _pick_sort_name(rng: random.Random, table) -> str | None:
    if rng.random() < 0.4:
        return None
    return rng.choice(sorted(table))


def random_net_spec(model: Model, pid: str, rng: random.Random, members: int) -> NetSpec:
    """A random subnet realizing the interface of ``pid``.

    Channels only run from earlier to later members, so the net is acyclic;
    every member input is either a boundary input or a channel destination,
    so totality holds by construction.
    """
    proc = model.processes[pid]
    names = [f"p{i}" for i in range(members)]
    ins: dict[str, list[tuple[str, SortExpr | None]]] = {n: [] for n in names}
    outs: dict[str, list[tuple[str, SortExpr | None]]] = {n: [] for n in names}
    input_binds, output_binds, channels = [], [], []

    def taken(member: str) -> set[str]:
        return {p for p, _ in ins[member]} | {p for p, _ in outs[member]}

    for port_id in proc.inputs:
        port = model.ports[port_id]
        member = rng.choice(names)
        pname = fresh_name(port.name, taken(member))
        sexpr = sort_expr(port.sort, model._sort_names) if port.sort is not None else None
        ins[member].append((pname, sexpr))
        input_binds.append((member, pname, port.name))
    for port_id in proc.outputs:
        port = model.ports[port_id]
        member = rng.choice(names)
        pname = fresh_name(port.name, taken(member))
        sexpr = sort_expr(port.sort, model._sort_names) if port.sort is not None else None
        outs[member].append((pname, sexpr))
        output_binds.append((member, pname, port.name))

    for n in range(rng.randint(members - 1, 2 * members)):
        i = rng.randrange(members - 1)
        j = rng.randrange(i + 1, members)
        src, dst = names[i], names[j]
        if outs[src] and rng.random() < 0.3:
            sname, sexpr = rng.choice(outs[src])
        else:
            sname = fresh_name(f"o{n}", taken(src))
            picked = _pick_sort_name(rng, model.sort_table)
            sexpr = SortNameRef(picked) if picked else None
            outs[src].append((sname, sexpr))
        dname = fresh_name(f"c{n}", taken(dst))
        ins[dst].append((dname, sexpr))
        channels.append((src, sname, dst, dname))

    if rng.random() < 0.3:
        member = rng.choice(names)
        outs[member].append((fresh_name("d0", taken(member)), None))

    specs = tuple(
        ProcessSpec(n, tuple(ins[n]), tuple(outs[n])) for n in names
    )
    rules = tuple(
        RuleSpec(
            n,
            tuple((p, WHOLE) for p, _ in ins[n]),
            tuple((p, WHOLE) for p, _ in outs[n]),
        )
        for n in names
    )
    return NetSpec(specs, tuple(channels), tuple(input_binds), tuple(output_binds), rules)


def gen_model(
    seed: int,
    max_depth: int = 3,
    max_members: int = 6,
    decompose_prob: float = 0.5,
) -> Model:
    """A random well-formed model with the given hierarchy bounds."""
    rng = random.Random(seed)
    table = gen_sort_table(rng)
    from bpnet.core import Port, Process

    ports = []
    ins, outs = [], []
    for i in range(rng.randint(1, 2)):
        sname = _pick_sort_name(rng, table)
        pid = f"system:in_{i}"
        ports.append(Port(pid, f"in_{i}", INPUT, table[sname] if sname else None))
        ins.append(pid)
    for i in range(rng.randint(1, 2)):
        sname = _pick_sort_name(rng, table)
        pid = f"system:out_{i}"
        ports.append(Port(pid, f"out_{i}", OUTPUT, table[sname] if sname else None))
        outs.append(pid)
    from bpnet.core import FiringRule

    root = Process(
        "system",
        "system",
        tuple(ports),
        firing_rules=(
            FiringRule(
                tuple((p, WHOLE) for p in ins), tuple((p, WHOLE) for p in outs)
            ),
        ),
    )
    model = Model(sort_table=table, processes={"system": root}, root="system", nets={})

    queue: list[tuple[tuple[str, ...], int]] = [(("system",), 0)]
    while queue:
        path, depth = queue.pop(0)
        if depth >= max_depth:
            continue
        if depth > 0 and rng.random() > decompose_prob:
            continue
        members = rng.randint(2, max_members)
        pid = ".".join(path)
        spec = random_net_spec(model, pid, rng, members)
        model, _ = DecomposeStep(path, spec).apply(model)
        for mspec in spec.members:
            queue.append((path + (mspec.name,), depth + 1))
    return model


# The search benchmark's base shape: the root net runs p0 -> p1 -> p2, and p1
# and p2 are decomposed into members named a* and b*.  Member names are
# unique per level, so both subnets can be unfolded, alone or in turn.
DERIVE_BASE = """\
sort S0
sort S1
sort S2
sort S3
sort R0 = record { f0: S0, f1: S1 }
sort R1 = record { f0: S2, f1: S3, f2: S0 }

process system { in in_0 : R1 in_1 : S2; out out_0 : S0 out_1 }
rule system : needs { in_0, in_1 } produces { out_0, out_1 }

net for system {
  process p0 { in i0 : R1 i1 : S2; out o0 : S0 o1 }
  rule p0 : needs { i0, i1 } produces { o0, o1 }
  process p1 { in c0 : S0; out o0 : S0 }
  rule p1 : needs { c0 } produces { o0 }
  process p2 { in c0 c1 : S0; out o0 : S0 o1 }
  rule p2 : needs { c0, c1 } produces { o0, o1 }
  channel p0.o0 -> p1.c0
  channel p0.o1 -> p2.c0
  channel p1.o0 -> p2.c1
  input p0.i0 binds system.in_0
  input p0.i1 binds system.in_1
  output p2.o0 binds system.out_0
  output p2.o1 binds system.out_1
}

net for system.p1 {
  process a0 { in i0 : S0; out o0 : S1 }
  rule a0 : needs { i0 } produces { o0 }
  process a1 { in c0 : S1; out o0 : S0 }
  rule a1 : needs { c0 } produces { o0 }
  channel a0.o0 -> a1.c0
  input a0.i0 binds p1.c0
  output a1.o0 binds p1.o0
}

net for system.p2 {
  process b0 { in i0; out o0 : S1 }
  rule b0 : needs { i0 } produces { o0 }
  process b1 { in i0 : S0 c0 : S1; out o0 : S0 o1 }
  rule b1 : needs { i0, c0 } produces { o0, o1 }
  channel b0.o0 -> b1.c0
  input b0.i0 binds p2.c0
  input b1.i0 binds p2.c1
  output b1.o0 binds p2.o0
  output b1.o1 binds p2.o1
}
"""


def one_step_pairs(count: int) -> list[tuple[Model, Model, str]]:
    """Criterion 8's corpus: (base, refined, kind) one accepted proposal apart."""
    pairs = []
    seed = 0
    while len(pairs) < count:
        base = gen_model(seed, max_depth=2, max_members=4, decompose_prob=0.3)
        proposal = propose_step(base, random.Random(50_000 + seed))
        seed += 1
        if proposal is not None:
            pairs.append((base, *proposal))
    return pairs


def two_step_pairs(count: int) -> list[tuple[Model, Model, str]]:
    """(base, refined, "kind+kind") two accepted proposals apart, rng 70,000 + seed."""
    pairs = []
    seed = 0
    while len(pairs) < count:
        base = gen_model(seed, max_depth=2, max_members=4, decompose_prob=0.3)
        rng = random.Random(70_000 + seed)
        seed += 1
        first = propose_step(base, rng)
        second = first and propose_step(first[0], rng)
        if second:
            pairs.append((base, second[0], f"{first[1]}+{second[1]}"))
    return pairs


# --- random applicable rule applications ----------------------------------------


def _port_ref(model: Model, port_id: str) -> PortRef:
    """The script name of a port: its holder's path and its own name."""
    return PortRef(display_path(model, model.port_owners[port_id]), model.ports[port_id].name)


def _try_assign(model: Model, rng: random.Random) -> Model | None:
    unsorted = sorted(p for p in model.ports if model.ports[p].sort is None)
    if not unsorted:
        return None
    port = rng.choice(unsorted)
    sort = SortNameRef(rng.choice(sorted(model.sort_table)))
    return AssignSortStep(_port_ref(model, port), sort).apply(model)[0]


def _try_add(model: Model, rng: random.Random) -> Model | None:
    owners = sorted(model.nets)
    if not owners:
        return None
    owner = rng.choice(owners)
    net, _ = model.nets[owner]
    if len(net.processes) < 2:
        return None
    order = serialize_order(model, owner)
    members = sorted(net.processes, key=lambda m: order[m])
    i = rng.randrange(len(members) - 1)
    j = rng.randrange(i + 1, len(members))
    src_pid, dst_pid = members[i], members[j]
    src_proc = model.processes[src_pid]

    def port_names(pid: str) -> set[str]:
        return {
            model.ports[p].name
            for p in model.processes[pid].ports()
            if p in model.ports
        }

    if src_proc.outputs and rng.random() < 0.6:
        src_name = model.ports[rng.choice(sorted(src_proc.outputs))].name
    else:
        src_name = fresh_name(f"x{rng.randrange(100)}", port_names(src_pid))
    dst_name = fresh_name(f"y{rng.randrange(100)}", port_names(dst_pid))
    source = PortRef(display_path(model, src_pid), src_name)
    dest = PortRef(display_path(model, dst_pid), dst_name)
    return AddChannelStep(source, dest).apply(model)[0]


def _try_decompose(model: Model, rng: random.Random) -> Model | None:
    located = container_index(model)
    leaves = sorted(
        p
        for p in model.processes
        if p not in model.nets and (p == model.root or p in located)
    )
    if not leaves:
        return None
    pid = rng.choice(leaves)
    path = display_path(model, pid)
    spec = random_net_spec(model, pid, rng, rng.randint(2, 3))
    return DecomposeStep(path, spec).apply(model)[0]


def _try_split(model: Model, rng: random.Random) -> Model | None:
    candidates = sorted(
        p
        for p in model.ports
        if model.ports[p].sort is None
        or (
            isinstance(model.ports[p].sort, RecordSort)
            and len(model.ports[p].sort.fields) >= 2
        )
    )
    if not candidates:
        return None
    port_id = rng.choice(candidates)
    port = model.ports[port_id]
    if port.sort is None:
        parts = [PartSpec(f"{port.name}_sa"), PartSpec(f"{port.name}_sb")]
    else:
        fields = list(port.sort.fields)
        rng.shuffle(fields)
        cut = rng.randint(1, len(fields) - 1)
        groups = [fields[:cut], fields[cut:]]
        parts = []
        for gi, group in enumerate(groups):
            # a part takes its fields' sub-record in record order
            parts.append(PartSpec(f"{port.name}_s{gi}", fields=tuple(f for f, _ in group)))
    return SplitPortStep(_port_ref(model, port_id), tuple(parts)).apply(model)[0]


def _try_fold(model: Model, rng: random.Random) -> Model | None:
    owners = sorted(o for o in model.nets if len(model.nets[o][0].processes) >= 2)
    if not owners:
        return None
    owner = rng.choice(owners)
    net, _ = model.nets[owner]
    members = sorted(net.processes)
    size = rng.randint(1, len(members) - 1)
    group = rng.sample(members, size)
    names = {
        model.processes[m].name for m in net.processes if m in model.processes
    }
    new_name = fresh_name(f"q{rng.randrange(100)}", names)
    group_names = tuple(model.processes[m].name for m in group)
    return FoldStep(display_path(model, owner), group_names, new_name).apply(model)[0]


def _try_unfold(model: Model, rng: random.Random) -> Model | None:
    located = container_index(model)
    candidates = sorted(p for p in model.nets if p in located)
    if not candidates:
        return None
    child = rng.choice(candidates)
    return refine.unfold(model, located[child], child)


_KINDS = {
    "assign": _try_assign,
    "add": _try_add,
    "decompose": _try_decompose,
    "split": _try_split,
    "fold": _try_fold,
    "unfold": _try_unfold,
}


def propose_step(
    model: Model, rng: random.Random, kinds: list[str] | None = None
) -> tuple[Model, str] | None:
    """Apply one random applicable rule; None when nothing applies."""
    order = list(kinds) if kinds else list(_KINDS)
    # keep long random walks from ballooning: stop growing big models
    if kinds is None and len(model.processes) > 30:
        order.remove("decompose")
    rng.shuffle(order)
    for kind in order:
        for _ in range(8):
            try:
                result = _KINDS[kind](model, rng)
            except BpnError:
                continue
            if result is not None and result is not model:
                return result, kind
    return None


def random_convex_group(model: Model, rng: random.Random, owner: str) -> list[str]:
    """A random group that folds without creating parent-level cycles."""
    from bpnet.core import process_digraph

    net, _ = model.nets[owner]
    members = sorted(net.processes)
    graph = process_digraph(model, net)
    for _ in range(20):
        size = rng.randint(1, len(members) - 1)
        group = set(rng.sample(members, size))
        convex = True
        outside = set(members) - group
        for start in group:
            stack = [s for s in graph.get(start, ()) if s in outside]
            seen = set(stack)
            while stack:
                node = stack.pop()
                for succ in graph.get(node, ()):
                    if succ in group:
                        convex = False
                        break
                    if succ in outside and succ not in seen:
                        seen.add(succ)
                        stack.append(succ)
                if not convex:
                    break
            if not convex:
                break
        if convex:
            return sorted(group)
    return [members[0]]


def rename_ids(model: Model) -> Model:
    """The same model under a fresh, unrelated id scheme."""
    pmap = {pid: f"P{i}" for i, pid in enumerate(sorted(model.processes))}
    qmap = {pid: f"q{i}" for i, pid in enumerate(sorted(model.ports))}
    procs = {}
    for pid, proc in model.processes.items():
        procs[pmap[pid]] = Process(
            pmap[pid],
            proc.name,
            tuple(dataclasses.replace(port, id=qmap[port.id]) for port in proc.interface),
            proc.behavior_note,
            tuple(
                FiringRule(
                    tuple((qmap[p], lab) for p, lab in r.needs),
                    tuple((qmap[p], lab) for p, lab in r.produces),
                    r.compute,
                )
                for r in proc.firing_rules
            ),
        )
    nets = {}
    for owner, (net, binding) in model.nets.items():
        nets[pmap[owner]] = (
            ProcessNet(
                frozenset(pmap[m] for m in net.processes),
                frozenset(Channel(qmap[c.source], qmap[c.dest]) for c in net.channels),
                frozenset(qmap[p] for p in net.env_inputs),
                frozenset(qmap[p] for p in net.env_outputs),
            ),
            InterfaceBinding(
                tuple(sorted((qmap[a], qmap[b]) for a, b in binding.pairs))
            ),
        )
    return Model(model.sort_table, procs, pmap[model.root], nets)


def chain_text(length: int, back_edge: bool = False) -> str:
    """Model text of one net whose members ``p0 .. p{length-1}`` each feed the
    next; with ``back_edge`` the last also feeds the first, closing a cycle."""
    lines = ["process system { }", "net for system {"]
    lines.append("  process p0 { in back; out o }" if back_edge else "  process p0 { out o }")
    lines += [f"  process p{k} {{ in i; out o }}" for k in range(1, length)]
    lines += [f"  channel p{k - 1}.o -> p{k}.i" for k in range(1, length)]
    if back_edge:
        lines.append(f"  channel p{length - 1}.o -> p0.back")
    lines.append("}")
    return "\n".join(lines) + "\n"
