"""The validator that ``core.validate_model`` replaced, kept as an oracle.

It ran the per-process checks in whole-model passes of its own, beside the
copies in ``validate_scope``, and reported an undefined net member twice:
once from the containment check and once from the net's own checks.  Its
cycle search, ``find_cycle``, is the recursive one ``core.find_cycle``
replaced; it fails on chains deeper than the recursion limit.

Ports live in the process holding them, so the checks comparing a port
table with the processes' lists went with that table; the rest read a
port's owner from ``Model.port_owners``.

A port id listed by two interface entries, or a process listed by two
nets, leaves a port with no one owner or a process with no one parent.
On such a model it reports, as ``core`` does, only the checks that read
neither: the sort table, the root and the net owners, and the repeats.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from bpnet.core import (
    BINDING_INCOMPLETE,
    BINDING_SORT_MISMATCH,
    CYCLE_DETECTED,
    DANGLING_REF,
    HIERARCHY_NOT_TREE,
    INPUT,
    INPUT_BOTH_INTERNAL_AND_ENV,
    INPUT_MULTIPLY_DRIVEN,
    INPUT_UNCONNECTED,
    OUTPUT,
    PORT_CLASH,
    SELF_LOOP,
    SORT_MISMATCH,
    WHOLE,
    Channel,
    InterfaceBinding,
    Model,
    Port,
    PortId,
    ProcessId,
    ProcessNet,
    RecordSort,
    Violation,
    render_sort,
    sort_problems,
    sorts_compatible,
)


def find_cycle(graph: Mapping[ProcessId, set[ProcessId]]) -> list[ProcessId] | None:
    """A directed cycle in the successor map, or None when acyclic."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    stack: list[ProcessId] = []

    def visit(node: ProcessId) -> list[ProcessId] | None:
        color[node] = GREY
        stack.append(node)
        for succ in sorted(graph[node]):
            if color[succ] == GREY:
                return stack[stack.index(succ) :]
            if color[succ] == WHITE:
                cycle = visit(succ)
                if cycle is not None:
                    return cycle
        stack.pop()
        color[node] = BLACK
        return None

    for node in sorted(graph):
        if color[node] == WHITE:
            cycle = visit(node)
            if cycle is not None:
                return list(cycle)
    return None


def _check_table_sorts(model: Model) -> Iterator[Violation]:
    for name in sorted(model.sort_table):
        for problem in sort_problems(model.sort_table[name]):
            yield Violation(SORT_MISMATCH, (name,), f"malformed sort: {problem}")


def _check_port_sorts(model: Model) -> Iterator[Violation]:
    for pid in sorted(model.ports):
        port = model.ports[pid]
        if port.sort is not None:
            for problem in sort_problems(port.sort):
                yield Violation(SORT_MISMATCH, (pid,), f"malformed port sort: {problem}")


def _check_listings(model: Model) -> Iterator[Violation]:
    """Each port id listed by more than one interface entry, and each
    process listed by more than one net."""
    listed_by: dict[PortId, list[ProcessId]] = {}
    for pid in sorted(model.processes):
        for port_id in model.processes[pid].ports():
            listed_by.setdefault(port_id, []).append(pid)
    for port_id in sorted(listed_by):
        listers = listed_by[port_id]
        if len(listers) > 1:
            yield Violation(
                PORT_CLASH,
                (port_id,) + tuple(listers),
                "port listed by more than one process interface entry",
            )
    membership: dict[ProcessId, list[ProcessId]] = {}
    for owner in sorted(model.nets):
        for member in sorted(model.nets[owner][0].processes):
            membership.setdefault(member, []).append(owner)
    for member in sorted(membership):
        owners = membership[member]
        if len(owners) > 1:
            yield Violation(
                HIERARCHY_NOT_TREE,
                (member,) + tuple(owners),
                "process contained in more than one net",
            )


def _check_roots(model: Model) -> Iterator[Violation]:
    if model.root not in model.processes:
        yield Violation(DANGLING_REF, (model.root,), "root process is undefined")
    for owner in sorted(model.nets):
        if owner not in model.processes:
            yield Violation(DANGLING_REF, (owner,), "net owner is undefined")
    if any(model.root in net.processes for net, _ in model.nets.values()):
        yield Violation(
            HIERARCHY_NOT_TREE,
            (model.root,),
            "root process must not be contained in any net",
        )


def _check_port_tables(model: Model) -> Iterator[Violation]:
    for pid in sorted(model.processes):
        proc = model.processes[pid]
        seen_names: dict[str, PortId] = {}
        for port_ids in (proc.inputs, proc.outputs):
            for port_id in port_ids:
                port = model.ports[port_id]
                if port.name in seen_names and seen_names[port.name] != port_id:
                    yield Violation(
                        PORT_CLASH,
                        (pid, port_id),
                        f"duplicate port name {port.name!r} on process",
                    )
                seen_names.setdefault(port.name, port_id)


def _check_firing_rules(model: Model) -> Iterator[Violation]:
    for pid in sorted(model.processes):
        proc = model.processes[pid]
        inputs, outputs = set(proc.inputs), set(proc.outputs)
        for rule in proc.firing_rules:
            for port_id, label in rule.needs:
                yield from _check_rule_ref(model, pid, port_id, label, inputs, "needs")
            for port_id, label in rule.produces:
                yield from _check_rule_ref(model, pid, port_id, label, outputs, "produces")


def _check_rule_ref(
    model: Model,
    pid: ProcessId,
    port_id: PortId,
    label: str,
    allowed: set[PortId],
    side: str,
) -> Iterator[Violation]:
    if port_id not in allowed:
        expected = "input" if side == "needs" else "output"
        yield Violation(
            DANGLING_REF,
            (pid, port_id),
            f"firing rule {side} {port_id!r}, which is not an {expected} port of the process",
        )
        return
    port = model.ports.get(port_id)
    if port is None:
        return
    if label == WHOLE:
        return
    if not isinstance(port.sort, RecordSort) or port.sort.field_sort(label) is None:
        yield Violation(
            DANGLING_REF,
            (pid, port_id),
            f"firing rule uses label {label!r} which is not a record field of the port sort",
        )


def _member_name_violations(
    model: Model, owner: ProcessId, net: ProcessNet
) -> Iterator[Violation]:
    names_seen: dict[str, ProcessId] = {}
    for member in sorted(net.processes):
        proc = model.processes.get(member)
        if proc is None:
            continue
        if proc.name in names_seen and names_seen[proc.name] != member:
            yield Violation(
                PORT_CLASH,
                (owner, member, names_seen[proc.name]),
                f"duplicate process name {proc.name!r} within one net",
            )
        names_seen.setdefault(proc.name, member)


def _check_hierarchy(model: Model) -> Iterator[Violation]:
    """Undefined members, member names and the containment walk, on a model
    that lists each process at most once."""
    parent: dict[ProcessId, ProcessId] = {}
    for owner in sorted(model.nets):
        net, _ = model.nets[owner]
        for member in sorted(net.processes):
            parent[member] = owner
            if member not in model.processes:
                yield Violation(
                    DANGLING_REF, (owner, member), "net contains an undefined process"
                )
        yield from _member_name_violations(model, owner, net)
    for pid in sorted(model.processes):
        if pid == model.root:
            continue
        if pid not in parent:
            yield Violation(
                HIERARCHY_NOT_TREE, (pid,), "process is not contained in any net"
            )
            continue
        seen = {pid}
        node = pid
        while node in parent:
            node = parent[node]
            if node in seen:
                yield Violation(
                    HIERARCHY_NOT_TREE,
                    tuple(sorted(seen)),
                    "containment relation is cyclic",
                )
                break
            seen.add(node)


def _net_body_violations(model: Model, net: ProcessNet, at: str) -> Iterator[Violation]:
    """Constraints 1-4 plus totality and reference integrity, sans binding."""
    members = sorted(net.processes)
    defined = [m for m in members if m in model.processes]
    for member in members:
        if member not in model.processes:
            yield Violation(DANGLING_REF, (at, member), "net member is undefined")
    member_set = set(defined)
    owner = model.port_owners

    def resolvable(port_id: PortId) -> Port | None:
        return model.ports.get(port_id)

    usable_channels: list[Channel] = []
    self_loopers: list[ProcessId] = []
    for ch in sorted(net.channels, key=lambda c: (c.source, c.dest)):
        src, dst = resolvable(ch.source), resolvable(ch.dest)
        ok = True
        if src is None:
            yield Violation(DANGLING_REF, (at, ch.source), "channel source is undefined")
            ok = False
        if dst is None:
            yield Violation(DANGLING_REF, (at, ch.dest), "channel dest is undefined")
            ok = False
        if not ok:
            continue
        if src.direction != OUTPUT:
            yield Violation(
                DANGLING_REF, (at, ch.source), "channel source is not an output port"
            )
            ok = False
        if dst.direction != INPUT:
            yield Violation(
                DANGLING_REF, (at, ch.dest), "channel dest is not an input port"
            )
            ok = False
        if owner[ch.source] not in member_set:
            yield Violation(
                DANGLING_REF, (at, ch.source), "channel source is not on a member process"
            )
            ok = False
        if owner[ch.dest] not in member_set:
            yield Violation(
                DANGLING_REF, (at, ch.dest), "channel dest is not on a member process"
            )
            ok = False
        if ok and owner[ch.source] == owner[ch.dest]:
            yield Violation(
                SELF_LOOP,
                (owner[ch.source], ch.source, ch.dest),
                "channel connects a process to itself",
            )
            self_loopers.append(owner[ch.source])
            ok = False
        if ok:
            usable_channels.append(ch)
            if not sorts_compatible(src.sort, dst.sort):
                yield Violation(
                    SORT_MISMATCH,
                    (ch.source, ch.dest),
                    f"channel sorts differ: {render_sort(src.sort)} vs {render_sort(dst.sort)}",
                )

    for boundary, direction in ((net.env_inputs, INPUT), (net.env_outputs, OUTPUT)):
        for port_id in sorted(boundary):
            port = resolvable(port_id)
            if port is None:
                yield Violation(DANGLING_REF, (at, port_id), "boundary port is undefined")
            elif port.direction != direction or owner[port_id] not in member_set:
                yield Violation(
                    DANGLING_REF,
                    (at, port_id),
                    f"boundary {direction}-entry is not an {direction}put port of a member",
                )

    driven: dict[PortId, int] = {}
    for ch in usable_channels:
        driven[ch.dest] = driven.get(ch.dest, 0) + 1
    for port_id in sorted(driven):
        if driven[port_id] > 1:
            yield Violation(
                INPUT_MULTIPLY_DRIVEN,
                (port_id,),
                f"input port driven by {driven[port_id]} channels",
            )
        if port_id in net.env_inputs:
            yield Violation(
                INPUT_BOTH_INTERNAL_AND_ENV,
                (port_id,),
                "input port is both a channel destination and an environment input",
            )
    for member in defined:
        for port_id in model.processes[member].inputs:
            if port_id not in driven and port_id not in net.env_inputs:
                yield Violation(
                    INPUT_UNCONNECTED,
                    (member, port_id),
                    "input port is neither channel-driven nor an environment input",
                )

    graph: dict[ProcessId, set[ProcessId]] = {p: set() for p in defined}
    for ch in usable_channels:
        s, d = owner[ch.source], owner[ch.dest]
        if s != d:
            graph[s].add(d)
    for p in self_loopers:
        if p in graph:
            graph[p].add(p)
    cycle = find_cycle(graph)
    if cycle is not None:
        yield Violation(
            CYCLE_DETECTED,
            tuple(cycle),
            "channels induce a cyclic dependency between processes",
        )


def _binding_violations(
    model: Model, owner: ProcessId, net: ProcessNet, binding: InterfaceBinding
) -> Iterator[Violation]:
    proc = model.processes.get(owner)
    if proc is None:
        return
    boundary = net.env_inputs | net.env_outputs
    seen_parent: set[PortId] = set()
    seen_inner: set[PortId] = set()
    for parent_port, inner_port in sorted(binding.pairs):
        if parent_port in seen_parent:
            yield Violation(
                BINDING_INCOMPLETE, (owner, parent_port), "parent port bound twice"
            )
        if inner_port in seen_inner:
            yield Violation(
                BINDING_INCOMPLETE, (owner, inner_port), "boundary port bound twice"
            )
        seen_parent.add(parent_port)
        seen_inner.add(inner_port)
        pp, ip = model.ports.get(parent_port), model.ports.get(inner_port)
        if pp is None or model.port_owners[parent_port] != owner:
            yield Violation(
                BINDING_INCOMPLETE,
                (owner, parent_port),
                "binding names a port that is not on the decomposed process",
            )
            continue
        if ip is None or inner_port not in boundary:
            yield Violation(
                BINDING_INCOMPLETE,
                (owner, inner_port),
                "binding names a port that is not on the subnet boundary",
            )
            continue
        expected = net.env_inputs if pp.direction == INPUT else net.env_outputs
        if inner_port not in expected:
            yield Violation(
                BINDING_INCOMPLETE,
                (owner, parent_port, inner_port),
                "binding does not preserve port direction",
            )
        both_unspecified = pp.sort is None and ip.sort is None
        if not both_unspecified and pp.sort != ip.sort:
            yield Violation(
                BINDING_SORT_MISMATCH,
                (parent_port, inner_port),
                "bound ports must both be unspecified or carry equal sorts",
            )
    for port_id in sorted(proc.ports()):
        if port_id not in seen_parent:
            yield Violation(
                BINDING_INCOMPLETE,
                (owner, port_id),
                "parent port is not bound to any subnet boundary port",
            )
    for port_id in sorted(boundary):
        if port_id not in seen_inner:
            yield Violation(
                BINDING_INCOMPLETE,
                (owner, port_id),
                "subnet boundary port is not bound to any parent port",
            )


def reference_validate_model(model: Model) -> list[Violation]:
    """Union of per-net validation plus global id-uniqueness and tree checks;
    only the checks that read no port owner and no parent where a port id or
    a process is listed twice."""
    listings = list(_check_listings(model))
    findings = [*_check_table_sorts(model), *_check_roots(model), *listings]
    if listings:
        return findings
    findings.extend(_check_port_sorts(model))
    findings.extend(_check_port_tables(model))
    findings.extend(_check_firing_rules(model))
    findings.extend(_check_hierarchy(model))
    for owner in sorted(model.nets):
        if owner not in model.processes:
            continue
        net, binding = model.nets[owner]
        findings.extend(_net_body_violations(model, net, owner))
        findings.extend(_binding_violations(model, owner, net, binding))
    return findings
