"""Refinement rules as total-or-rejected transformations of whole models.

Each rule has one public form, its script step (``DecomposeStep`` ...
``UnfoldStep``): ``apply`` resolves the step's process paths and port
names to ids and runs the rule's engine, ``_<rule>(model, ids...)``, which
either returns a new, well-formed model with its substitution or raises a
``RuleError`` leaving the input untouched.  An engine collects only the
process and net entries it writes, and ``core.edit`` builds its result
from them.  ``apply_script`` replays an ordered list of steps and
accumulates a trace that records how each original port is realized in
the refined model (the ``~>`` map).
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import core
from .core import (
    INPUT,
    OUTPUT,
    WHOLE,
    Channel,
    FiringRule,
    InterfaceBinding,
    Model,
    Port,
    PortId,
    Process,
    ProcessId,
    ProcessNet,
    RecordSort,
    Sort,
    SortExpr,
    resolve_sort_expr,
)
from .errors import (
    AlreadyDecomposedError,
    BpnError,
    ChildNotDecomposedError,
    CrossNetEndpointsError,
    EmptyGroupError,
    FreshnessViolationError,
    GroupNotSubsetError,
    InterfaceMismatchError,
    NoSuchChildError,
    NotConvexError,
    PartitionMismatchError,
    SortConflictError,
    SortMismatchError,
    StepFailedError,
    TooFewPartsError,
    UnknownPortError,
    WouldBeIllFormedError,
    WouldCreateCycleError,
)


# --- refinement bookkeeping --------------------------------------------------


@dataclass(frozen=True)
class _Repl:
    """One replacement of a port: where it went and which labels it carries.

    ``fields is None`` means the replacement carries every label unchanged
    (a binding push-down); otherwise the replacement is a split part that
    carries the listed record fields, as label ``whole`` when ``bare``.
    """

    port: PortId
    fields: frozenset[str] | None = None
    bare: bool = False


@dataclass(frozen=True)
class _Subst:
    ports: Mapping[PortId, tuple[_Repl, ...]] = field(default_factory=dict)
    procs: Mapping[ProcessId, frozenset[ProcessId]] = field(default_factory=dict)


def _map_fragment(repls: tuple[_Repl, ...], label: str) -> list[tuple[PortId, str]]:
    if label == WHOLE:
        return [(r.port, WHOLE) for r in repls]
    out = []
    for r in repls:
        if r.fields is not None and label in r.fields:
            out.append((r.port, WHOLE if r.bare else label))
    if not out:
        out = [(r.port, label) for r in repls]
    return out


class Trace:
    """Accumulated witness of a script replay.

    The trace keeps only each step's substitutions and derives every image
    from them.  ``port_image`` and ``port_map`` give the ports realizing a
    port of the base model at the deepest refinement level of the current
    model; ``process_image`` does the same for processes; ``fragment_image``
    additionally follows record-field labels through port splits.
    """

    def __init__(self, base: Model):
        self.base = base
        self._substs: list[_Subst] = []

    def record(self, subst: _Subst) -> None:
        self._substs.append(subst)

    def port_map(self) -> dict[PortId, frozenset[PortId]]:
        """The ``~>`` relation: each base port to the ports refining it."""
        return {p: self.port_image(p) for p in self.base.ports}

    def port_image(self, port: PortId) -> frozenset[PortId]:
        if port not in self.base.ports:
            raise KeyError(port)
        # the label ``whole`` reaches every replacement of a port
        return frozenset(p for p, _ in self.fragment_image(port, WHOLE))

    def process_image(self, pid: ProcessId) -> frozenset[ProcessId]:
        if pid not in self.base.processes:
            raise KeyError(pid)
        image = frozenset({pid})
        for subst in self._substs:
            if subst.procs:
                image = frozenset(q for p in image for q in subst.procs.get(p, (p,)))
        return image

    def fragment_image(self, port: PortId, label: str) -> frozenset[tuple[PortId, str]]:
        frontier = {(port, label)}
        for subst in self._substs:
            if not subst.ports:
                continue
            nxt: set[tuple[PortId, str]] = set()
            for p, lab in frontier:
                repls = subst.ports.get(p)
                if repls is None:
                    nxt.add((p, lab))
                else:
                    nxt.update(_map_fragment(repls, lab))
            frontier = nxt
        return frozenset(frontier)

    def __len__(self) -> int:
        return len(self._substs)


# --- shared helpers -----------------------------------------------------------


def _validated(before: Model, after: Model, context: str) -> Model:
    """Reject the result unless it is well-formed.

    ``core.edit`` recorded what the rule changed, so
    ``core.validate_change`` checks only that, and the tree.
    """
    violations = core.validate_change(before, after)
    if violations:
        raise WouldBeIllFormedError(f"{context} would leave the model ill-formed", violations)
    return after


def _rewire(
    entry: tuple[ProcessNet, InterfaceBinding], parts: Mapping[PortId, tuple[PortId, ...]]
) -> tuple[ProcessNet, InterfaceBinding]:
    """A net and its binding with each port of ``parts`` replaced by its
    parts; a channel or a binding pair is replaced part by part."""
    net, binding = entry

    def pairwise(
        pairs: Iterable[tuple[PortId, PortId]], problem: str
    ) -> list[tuple[PortId, PortId]]:
        out: list[tuple[PortId, PortId]] = []
        for a, b in pairs:
            if a not in parts and b not in parts:
                out.append((a, b))
                continue
            parts_a, parts_b = parts.get(a, (a,)), parts.get(b, (b,))
            if len(parts_a) != len(parts_b):
                raise WouldBeIllFormedError(problem.format(a, b))
            out += zip(parts_a, parts_b)
        return out

    def boundary(members: frozenset[PortId]) -> frozenset[PortId]:
        return frozenset(q for p in members for q in parts.get(p, (p,)))

    channels = {ch for ch in net.channels if ch.source not in parts and ch.dest not in parts}
    touched = [(ch.source, ch.dest) for ch in net.channels - channels]
    problem = "channel {!r} -> {!r} has only one split endpoint"
    channels.update(Channel(s, d) for s, d in pairwise(touched, problem))
    pairs = pairwise(binding.pairs, "binding pair {!r} ~ {!r} split on one side only")
    return (
        ProcessNet(
            net.processes,
            frozenset(channels),
            boundary(net.env_inputs),
            boundary(net.env_outputs),
        ),
        InterfaceBinding(tuple(sorted(pairs))),
    )


def _splice(
    processes: ChainMap[ProcessId, Process],
    holders: Mapping[PortId, ProcessId],
    parts: Mapping[PortId, Sequence[Port]],
) -> None:
    """Replace each port of ``parts`` by its parts, where it stood in the
    interface of its holder in ``processes``."""
    for pid in {holders[p] for p in parts}:
        proc = processes[pid]
        interface = tuple(q for p in proc.interface for q in parts.get(p.id, (p,)))
        processes[pid] = replace(proc, interface=interface)


def _check_sort_value(sort: Sort, context: str) -> None:
    problems = core.sort_problems(sort)
    if problems:
        raise WouldBeIllFormedError(f"{context}: malformed sort ({problems[0]})")


# --- decomposition ------------------------------------------------------------


def _decompose(
    model: Model,
    pid: ProcessId,
    new_processes: Sequence[Process],
    subnet: ProcessNet,
    binding: InterfaceBinding,
) -> tuple[Model, _Subst]:
    """Attach the subnet ``build_subnet`` made, of fresh processes holding
    fresh ports, to the undecomposed process ``pid``.

    The binding must be a direction-preserving bijection between the ports
    of ``pid`` and the subnet boundary.  Sorts propagate across the new
    binding where exactly one side specifies them.
    """
    proc = model.processes[pid]
    new_ports = {port.id: port for p in new_processes for port in p.interface}
    holders = {port.id: p.id for p in new_processes for port in p.interface}

    to_subnet = binding.to_subnet()
    boundary = subnet.env_inputs | subnet.env_outputs
    parent_ports = set(proc.ports())
    if set(to_subnet) != parent_ports or len(binding.pairs) != len(parent_ports):
        raise InterfaceMismatchError(
            f"binding must be total and injective on the ports of {pid!r}"
        )
    if set(to_subnet.values()) != set(boundary) or len(set(to_subnet.values())) != len(
        to_subnet
    ):
        raise InterfaceMismatchError("binding must map onto the subnet boundary")

    sorted_now: dict[PortId, tuple[Port]] = {}
    for parent_port, inner_port in binding.pairs:
        pp, ip = model.ports[parent_port], new_ports[inner_port]
        inner_boundary = subnet.env_inputs if pp.direction == INPUT else subnet.env_outputs
        if inner_port not in inner_boundary:
            raise InterfaceMismatchError(
                f"binding does not preserve direction for {parent_port!r}"
            )
        if pp.sort is not None and ip.sort is not None and pp.sort != ip.sort:
            raise InterfaceMismatchError(
                f"bound ports {parent_port!r} and {inner_port!r} carry different sorts"
            )
        # one-sided sorts propagate across the fresh binding
        if pp.sort is not None and ip.sort is None:
            sorted_now[inner_port] = (replace(ip, sort=pp.sort),)
        elif ip.sort is not None and pp.sort is None:
            sorted_now[parent_port] = (replace(pp, sort=ip.sort),)
            holders[parent_port] = pid

    processes = ChainMap({p.id: p for p in new_processes}, model.processes)
    _splice(processes, holders, sorted_now)
    result = core.edit(model, processes.maps[0], {pid: (subnet, binding)})
    result = _validated(model, result, f"decomposing {pid!r}")
    subst = _Subst(
        ports={p: (_Repl(to_subnet[p]),) for p in proc.ports()},
        procs={pid: frozenset(subnet.processes)},
    )
    return result, subst


# --- adding channels -----------------------------------------------------------


def _add_channel(
    model: Model, source: tuple[ProcessId, str], dest: tuple[ProcessId, str]
) -> tuple[Model, _Subst]:
    """Add a dataflow channel between two (process, port name) endpoints,
    adjusting every affected layer.

    Fresh ports are created where the named ports do not exist; a fresh port
    on a decomposed process is realized downward through its subnet, and
    endpoints in different subtrees are lifted to their lowest common net.
    """
    src_pid, dst_pid = source[0], dest[0]
    if src_pid == dst_pid:
        raise WouldCreateCycleError("a channel may not connect a process to itself")

    chain_s = core.containment_chain(model, src_pid)
    chain_d = core.containment_chain(model, dst_pid)
    if src_pid in chain_d or dst_pid in chain_s:
        raise CrossNetEndpointsError("one endpoint process contains the other")
    common = next((a for a in chain_s if a in chain_d), None)
    if common is None or common not in model.nets:
        raise CrossNetEndpointsError("endpoints do not share an enclosing net")

    ports = ChainMap({}, model.ports)
    processes = ChainMap({}, model.processes)
    nets = ChainMap({}, model.nets)

    def add_port(pid: ProcessId, name: str, direction: str) -> PortId:
        proc = processes[pid]
        final_name = core.fresh_name(name, {p.name for p in proc.interface})
        port_id = core.fresh_id(f"{pid}:{final_name}", ports)
        ports[port_id] = port = Port(port_id, final_name, direction)
        processes[pid] = replace(proc, interface=proc.interface + (port,))
        return port_id

    def bind(owner: ProcessId, parent_port: PortId, inner: PortId, direction: str) -> None:
        """Put ``inner`` on the boundary of ``owner``'s net, bound to ``parent_port``."""
        net, binding = nets[owner]
        if direction == INPUT:
            net = replace(net, env_inputs=net.env_inputs | {inner})
        else:
            net = replace(net, env_outputs=net.env_outputs | {inner})
        pairs = tuple(sorted(binding.pairs + ((parent_port, inner),)))
        nets[owner] = (net, InterfaceBinding(pairs))

    def realize_down(pid: ProcessId, name: str, direction: str) -> PortId:
        """Create the port on ``pid`` and mirror it through decomposed layers."""
        port_id = add_port(pid, name, direction)
        cur_pid, cur_port = pid, port_id
        while cur_pid in nets:
            members = sorted(
                nets[cur_pid][0].processes,
                key=lambda m: (processes[m].name if m in processes else m, m),
            )
            if not members:
                raise WouldBeIllFormedError(
                    f"cannot realize a fresh port inside the empty net of {cur_pid!r}"
                )
            member = members[0]
            inner = add_port(member, name, direction)
            bind(cur_pid, cur_port, inner, direction)
            cur_pid, cur_port = member, inner
        return port_id

    def resolve_endpoint(pid: ProcessId, name: str, direction: str) -> PortId:
        existing = core.port_by_name(model, pid, name)
        if existing is not None:
            if model.ports[existing].direction != direction:
                raise WouldBeIllFormedError(
                    f"{name!r} on {pid!r} is not an "
                    f"{'input' if direction == INPUT else 'output'} port"
                )
            return existing
        return realize_down(pid, name, direction)

    src_port = resolve_endpoint(*source, OUTPUT)
    dst_port = resolve_endpoint(*dest, INPUT)
    if ports[src_port].sort is not None and ports[dst_port].sort is not None:
        if ports[src_port].sort != ports[dst_port].sort:
            raise SortMismatchError(
                f"channel endpoints carry different sorts: "
                f"{core.render_sort(ports[src_port].sort)} vs "
                f"{core.render_sort(ports[dst_port].sort)}"
            )

    def lift(chain: list[ProcessId], port_id: PortId, direction: str) -> PortId:
        """Mirror the port on ``chain[0]`` up to the member of the common net."""
        for owner in chain[1 : chain.index(common)]:
            parent_port = add_port(owner, ports[port_id].name, direction)
            bind(owner, parent_port, port_id, direction)
            port_id = parent_port
        return port_id

    top_src = lift(chain_s, src_port, OUTPUT)
    top_dst = lift(chain_d, dst_port, INPUT)

    net, binding = nets[common]
    new_net = replace(net, channels=net.channels | {Channel(top_src, top_dst)})
    nets[common] = (new_net, binding)

    # the checks below read the candidate's port index and containment map
    candidate = core.edit(model, processes.maps[0], nets.maps[0])
    cycle = core.find_cycle(core.process_digraph(candidate, new_net))
    if cycle is not None:
        raise WouldCreateCycleError(
            f"channel would close the cycle {' -> '.join(cycle)} in the net of {common!r}"
        )

    # keep constraint 3 an invariant: propagate a one-sided sort over the closure
    closure = core.port_closure(candidate, src_port)
    specified = {ports[p].sort for p in closure if ports[p].sort is not None}
    if len(specified) > 1:
        raise SortMismatchError("channel would connect ports with conflicting sorts")
    if len(specified) == 1:
        the_sort = next(iter(specified))
        sorted_now = {
            p: (replace(ports[p], sort=the_sort),) for p in closure if ports[p].sort is None
        }
        _splice(processes, candidate.port_owners, sorted_now)
        candidate = core.edit(model, processes.maps[0], nets.maps[0])

    return _validated(model, candidate, "adding the channel"), _Subst()


# --- data refinement ------------------------------------------------------------


def _assign_sort(model: Model, port: PortId, sort: Sort) -> tuple[Model, _Subst]:
    """Assign a sort to a port and its whole peer/binding closure.

    Idempotent when the closure already carries the sort; rejected with
    ``SortConflictError`` when any closure member carries a different one.
    """
    _check_sort_value(sort, "assign_sort")
    closure = core.port_closure(model, port)
    for member in sorted(closure):
        existing = model.ports[member].sort
        if existing is not None and existing != sort:
            raise SortConflictError(
                f"port {member!r} already carries sort {core.render_sort(existing)}"
            )
    sorted_now = {
        m: (replace(model.ports[m], sort=sort),) for m in closure if model.ports[m].sort is None
    }
    if not sorted_now:
        return model, _Subst()
    processes = ChainMap({}, model.processes)
    _splice(processes, model.port_owners, sorted_now)
    result = core.edit(model, processes.maps[0])
    return _validated(model, result, "assigning the sort"), _Subst()


# --- channel decomposition --------------------------------------------------------


# the fields a part of a record port takes: one field, bare, or a field set
PartFields = str | tuple[str, ...]


def part_fields(record: RecordSort, sorts: Sequence[Sort | None]) -> list[PartFields | None]:
    """The fields each part of a split of ``record`` takes, from its sort.

    A record sort whose fields the record has takes those fields; any other
    sort takes the first field of equal sort that no earlier part took,
    bare.  A part matching neither way takes None.
    """
    names = set(record.field_names())
    claimed: set[str] = set()
    out: list[PartFields | None] = []
    for sort in sorts:
        fields: PartFields | None
        if isinstance(sort, RecordSort) and names.issuperset(sort.field_names()):
            fields = sort.field_names()
            claimed.update(fields)
        else:
            fields = next(
                (f for f, fsort in record.fields if f not in claimed and fsort == sort), None
            )
            if fields is not None:
                claimed.add(fields)
        out.append(fields)
    return out


def _part_sort(record: RecordSort, fields: PartFields) -> Sort | None:
    """The sort of a part taking these fields of ``record``: a bare field's
    own sort, or a field set's sub-record in record order; None when the
    record lacks one of the fields."""
    if isinstance(fields, str):
        return record.field_sort(fields)
    sub = tuple((f, fsort) for f, fsort in record.fields if f in fields)
    return RecordSort(sub) if len(sub) == len(fields) else None


def _split_port(
    model: Model, port: PortId, parts: Sequence[tuple[str, Sort | None, PartFields | None]]
) -> tuple[Model, _Subst]:
    """Split a port (and its whole closure) into parallel parts given as
    (name, sort, fields).

    On a record port each part carries the fields it takes, with the sort
    ``SplitPortStep`` resolved from them; the parts take every field once.
    An unspecified port splits freely.  Channels, boundary memberships,
    interface bindings, and firing-rule references are rewritten at every
    affected level.
    """
    origin = model.ports[port]
    if len(parts) < 2:
        raise TooFewPartsError("a split needs at least two parts")
    part_names = [name for name, _, _ in parts]
    if len(set(part_names)) != len(part_names):
        raise PartitionMismatchError("part names must be distinct")
    for _, psort, _ in parts:
        if psort is not None:
            _check_sort_value(psort, "split_port")

    labels: list[tuple[frozenset[str] | None, bool]] = []
    if isinstance(origin.sort, RecordSort):
        claimed: set[str] = set()
        for name, _, fields in parts:
            bare = isinstance(fields, str)
            names = {fields} if bare else set(fields)
            taken = names & claimed
            if bare and taken:
                raise PartitionMismatchError(
                    f"part {name!r} does not match any unclaimed record field"
                )
            if taken:
                raise PartitionMismatchError(
                    f"fields {sorted(taken)} covered by more than one part"
                )
            claimed |= names
            labels.append((frozenset(names), bare))
        missing = set(origin.sort.field_names()) - claimed
        if missing:
            raise PartitionMismatchError(f"fields {sorted(missing)} not covered by any part")
    elif origin.sort is None:
        labels = [(None, False)] * len(parts)
    else:
        raise PartitionMismatchError(
            f"only record-sorted or unspecified ports can be split, "
            f"not {core.render_sort(origin.sort)}"
        )

    closure = sorted(core.port_closure(model, port))
    for member in closure:
        msort = model.ports[member].sort
        if msort is not None and msort != origin.sort:
            raise SortConflictError(
                f"closure member {member!r} carries a different sort; cannot split"
            )

    holders = model.port_owners
    ports = ChainMap({}, model.ports)
    split: dict[PortId, tuple[Port, ...]] = {}
    for member in closure:
        old, owner = ports[member], holders[member]
        other_names = {p.name for p in model.processes[owner].interface if p.id != member}
        new = []
        for name, psort, _ in parts:
            if name in other_names:
                raise FreshnessViolationError(
                    f"part name {name!r} clashes with an existing port on {owner!r}"
                )
            new_id = core.fresh_id(f"{owner}:{name}", ports)
            ports[new_id] = part = Port(new_id, name, old.direction, psort)
            new.append(part)
        split[member] = tuple(new)
    part_ids = {member: tuple(p.id for p in new) for member, new in split.items()}

    repls = {
        member: tuple(_Repl(p, *label) for p, label in zip(part_ids[member], labels))
        for member in closure
    }

    def rewrite_refs(
        refs: tuple[tuple[PortId, str], ...]
    ) -> tuple[tuple[PortId, str], ...]:
        # a label follows the split as a trace fragment does
        out: list[tuple[PortId, str]] = []
        for ref_port, label in refs:
            if ref_port in repls:
                out.extend(_map_fragment(repls[ref_port], label))
            else:
                out.append((ref_port, label))
        return tuple(dict.fromkeys(out))

    processes = ChainMap({}, model.processes)
    _splice(processes, holders, split)
    owners = {holders[m] for m in closure}
    for owner in owners:
        proc = processes[owner]
        processes[owner] = replace(
            proc,
            firing_rules=tuple(
                replace(r, needs=rewrite_refs(r.needs), produces=rewrite_refs(r.produces))
                for r in proc.firing_rules
            ),
        )

    # the nets that list an owner of the closure, or that one owns
    located = core.container_index(model)
    nets = {
        owner: _rewire(model.nets[owner], part_ids)
        for owner in {located[o] for o in owners if o in located} | (owners & model.nets.keys())
    }
    result = core.edit(model, processes.maps[0], nets)
    return _validated(model, result, f"splitting {port!r}"), _Subst(ports=repls)


# --- folding and unfolding --------------------------------------------------------


# kept only for perfbench/spans.py, which installs a span on it by name
def unfold(model: Model, parent: ProcessId, child: ProcessId) -> Model:
    return _unfold(model, parent, child)[0]


def _unfold(model: Model, parent: ProcessId, child: ProcessId) -> tuple[Model, _Subst]:
    """Replace a decomposed member by the contents of its subnet."""
    net, parent_binding = model.net_of(parent)
    if child not in net.processes:
        raise NoSuchChildError(f"{child!r} is not a member of the net of {parent!r}")
    if child not in model.nets:
        raise ChildNotDecomposedError(f"{child!r} has no net to unfold")
    subnet, child_binding = model.nets[child]
    down = child_binding.to_subnet()
    child_ports = model.processes[child].ports()
    unbound = [p for p in child_ports if p not in down]
    if unbound:
        raise InterfaceMismatchError(
            f"port {unbound[0]!r} of {child!r} is bound to no port of its net"
        )
    inner = {p: (down[p],) for p in child_ports}
    rewired, binding = _rewire((net, parent_binding), inner)
    merged = ProcessNet(
        (net.processes - {child}) | subnet.processes,
        rewired.channels | subnet.channels,
        rewired.env_inputs,
        rewired.env_outputs,
    )

    result = core.edit(model, {child: None}, {child: None, parent: (merged, binding)})
    result = _validated(model, result, f"unfolding {child!r}")
    subst = _Subst(
        ports={p: (_Repl(q),) for p, (q,) in inner.items()},
        procs={child: frozenset(subnet.processes)},
    )
    return result, subst


def _fold(
    model: Model, owner: ProcessId, group: Iterable[ProcessId], new_name: str
) -> tuple[Model, _Subst]:
    """Extract a convex process group of a net into a fresh decomposed process."""
    net, owner_binding = model.net_of(owner)
    group = frozenset(group)
    if not group:
        raise EmptyGroupError("the folded group must be non-empty")
    if group == net.processes:
        raise GroupNotSubsetError(
            "the folded group must be a proper subset of the net's processes"
        )

    # a convex group is one whose contraction to the new process closes no cycle
    qid = core.fresh_id(f"{owner}.{new_name}", model.processes)
    contracted: dict[ProcessId, set[ProcessId]] = {qid: set()}
    for node, succs in core.process_digraph(model, net).items():
        edges = contracted.setdefault(qid if node in group else node, set())
        edges.update(qid if succ in group else succ for succ in succs)
    contracted[qid].discard(qid)
    cycle = core.find_cycle(contracted)
    if cycle is not None:
        raise NotConvexError("folding would create a cycle at the parent level", cycle)

    member_names = {
        model.processes[m].name for m in net.processes - group if m in model.processes
    }
    if new_name in member_names:
        raise FreshnessViolationError(
            f"process name {new_name!r} already used in the net of {owner!r}"
        )

    inside = {p for m in group for p in model.processes[m].ports()}
    internal = frozenset(
        ch for ch in net.channels if ch.source in inside and ch.dest in inside
    )
    external = net.channels - internal
    boundary_in = sorted(({ch.dest for ch in external} | net.env_inputs) & inside)
    boundary_out = sorted(({ch.source for ch in external} | net.env_outputs) & inside)

    ports = ChainMap({}, model.ports)
    q_ports: list[Port] = []
    q_port_names: set[str] = set()
    fresh: dict[PortId, tuple[PortId]] = {}
    for direction, boundary in ((INPUT, boundary_in), (OUTPUT, boundary_out)):
        for inner in boundary:
            inner_port = ports[inner]
            name = core.fresh_name(inner_port.name, q_port_names)
            q_port_names.add(name)
            port_id = core.fresh_id(f"{qid}:{name}", ports)
            ports[port_id] = Port(port_id, name, direction, inner_port.sort)
            q_ports.append(ports[port_id])
            fresh[inner] = (port_id,)

    remaining = ProcessNet(
        (net.processes - group) | {qid}, external, net.env_inputs, net.env_outputs
    )
    extracted = ProcessNet(
        processes=group,
        channels=internal,
        env_inputs=frozenset(boundary_in),
        env_outputs=frozenset(boundary_out),
    )
    q_binding = InterfaceBinding(
        tuple(sorted((q, inner) for inner, (q,) in fresh.items()))
    )

    result = core.edit(
        model,
        {qid: Process(qid, new_name, tuple(q_ports))},
        {owner: _rewire((remaining, owner_binding), fresh), qid: (extracted, q_binding)},
    )
    return _validated(model, result, f"folding into {new_name!r}"), _Subst()


# --- scripts -------------------------------------------------------------------


@dataclass(frozen=True)
class PortRef:
    """A port named by process path and port display name."""

    path: tuple[str, ...]
    port: str


class RuleSpec(NamedTuple):
    """A firing rule as text names it, a named tuple like every spec."""

    process: str
    needs: tuple[tuple[str, str], ...]
    produces: tuple[tuple[str, str], ...]
    compute: str = "tag"


class ProcessSpec(NamedTuple):
    """A process as text declares it, a named tuple like every spec."""

    name: str
    inputs: tuple[tuple[str, SortExpr | None], ...] = ()
    outputs: tuple[tuple[str, SortExpr | None], ...] = ()
    note: str = ""


class NetSpec(NamedTuple):
    """Textual form of a subnet, a named tuple: members, wiring, binds."""

    members: tuple[ProcessSpec, ...] = ()
    channels: tuple[tuple[str, str, str, str], ...] = ()
    input_binds: tuple[tuple[str, str, str], ...] = ()  # member, member-port, parent-port
    output_binds: tuple[tuple[str, str, str], ...] = ()
    rules: tuple[RuleSpec, ...] = ()


def build_subnet(
    model: Model, pid: ProcessId, spec: NetSpec
) -> tuple[list[Process], ProcessNet, InterfaceBinding]:
    """Materialize a NetSpec as fresh processes, holding fresh ports, under
    ``pid``.

    An empty ``pid`` builds top-level processes, each with its bare name as
    its id.  The model's tables are read, never copied, so building a model
    block by block stays linear in its size.
    """
    table, processes, ports = model.sort_table, model.processes, model.ports
    prefix = f"{pid}." if pid else ""
    member_ids: dict[str, ProcessId] = {}
    # each member's port ids by port name, by member name
    port_ids: dict[str, dict[str, PortId]] = {}
    # each member's name, note and ports, then its firing rules, by its new id
    made: dict[ProcessId, tuple[str, str, tuple[Port, ...]]] = {}
    rules: dict[ProcessId, list[FiringRule]] = {}
    new_ports: dict[PortId, Port] = {}
    # each sort expression, and None, resolved once, by identity (the spec keeps it alive)
    sorts: dict[int, Sort | None] = {id(None): None}

    for name, inputs, outputs, note in spec.members:
        if name in member_ids:
            raise FreshnessViolationError(f"member {name!r} declared twice")
        mid = prefix + name
        if mid in made or mid in processes:
            mid = core.fresh_id(mid, ChainMap(made, processes))
        member_ids[name] = mid
        port_ids[name] = own = {}
        interface = []
        for direction, decls in ((INPUT, inputs), (OUTPUT, outputs)):
            for pname, sexpr in decls:
                port_id = f"{mid}:{pname}"
                if port_id in new_ports or port_id in ports:
                    port_id = core.fresh_id(port_id, ChainMap(new_ports, ports))
                if id(sexpr) not in sorts:
                    sorts[id(sexpr)] = resolve_sort_expr(sexpr, table)
                new_ports[port_id] = port = Port(port_id, pname, direction, sorts[id(sexpr)])
                own[pname] = port_id
                interface.append(port)
        made[mid] = (name, note, tuple(interface))
        rules[mid] = []

    def member_port(member: str, port: str) -> PortId:
        port_id = port_ids.get(member, {}).get(port)
        if port_id is None:
            raise UnknownPortError(f"no port {port!r} on subnet member {member!r}")
        return port_id

    # each reference is one lookup; a miss is found again, in order, for
    # member_port's error
    for rspec in spec.rules:
        member = rspec.process
        mid = member_ids.get(member)
        if mid is None:
            raise UnknownPortError(f"rule names unknown subnet member {member!r}")
        own = port_ids[member]
        try:
            needs = tuple([(own[p], lab) for p, lab in rspec.needs])
            produces = tuple([(own[p], lab) for p, lab in rspec.produces])
        except KeyError:
            for p, _ in rspec.needs + rspec.produces:
                member_port(member, p)
            raise
        rules[mid].append(FiringRule(needs, produces, rspec.compute))
    members = [
        Process(mid, name, interface, note, tuple(rules[mid]))
        for mid, (name, note, interface) in made.items()
    ]

    try:
        channels = frozenset(
            [Channel(port_ids[sa][pa], port_ids[sb][pb]) for sa, pa, sb, pb in spec.channels]
        )
    except KeyError:
        for sa, pa, sb, pb in spec.channels:
            member_port(sa, pa)
            member_port(sb, pb)
        raise

    pairs: list[tuple[PortId, PortId]] = []
    env_in: set[PortId] = set()
    env_out: set[PortId] = set()
    for binds, boundary in ((spec.input_binds, env_in), (spec.output_binds, env_out)):
        for member, mport, parent_port in binds:
            parent_id = core.port_by_name(model, pid, parent_port)
            if parent_id is None:
                raise InterfaceMismatchError(
                    f"decomposed process has no port named {parent_port!r}"
                )
            inner = member_port(member, mport)
            boundary.add(inner)
            pairs.append((parent_id, inner))

    net = ProcessNet(
        processes=frozenset(made),
        channels=channels,
        env_inputs=frozenset(env_in),
        env_outputs=frozenset(env_out),
    )
    return members, net, InterfaceBinding(tuple(sorted(pairs)))


def net_spec(model: Model, owner: ProcessId, names: Mapping[Sort, str]) -> NetSpec:
    """The NetSpec that ``build_subnet`` builds the net of ``owner`` back
    from, each port sort in its reference form against ``names``, a sort
    table's index such as ``Model._sort_names``.

    An empty ``owner`` gives the top level: the root, then the other
    processes no net contains, by (name, id).  Members come by (name, id)
    and ports in declared order.  A decomposed member's note and firing
    rules are left out, because its net is authoritative.
    """
    processes, ports = model.processes, model.ports

    def by_name(pid: ProcessId) -> tuple[str, ProcessId]:
        return processes[pid].name, pid

    if owner:
        net, binding = model.nets[owner]
        pids = sorted((m for m in net.processes if m in processes), key=by_name)
    else:
        contained = core.container_index(model)
        pids = [model.root] if model.root in processes else []
        pids += sorted(
            (p for p in processes if p not in contained and p != model.root), key=by_name
        )

    exprs: dict[Sort, SortExpr] = {}

    def decls(port_ids: tuple[PortId, ...]) -> tuple[tuple[str, SortExpr | None], ...]:
        out: list[tuple[str, SortExpr | None]] = []
        for port_id in port_ids:
            port = ports[port_id]
            expr = None
            if port.sort is not None:
                expr = exprs.get(port.sort)
                if expr is None:
                    expr = exprs[port.sort] = core.sort_expr(port.sort, names)
            out.append((port.name, expr))
        return tuple(out)

    def refs(pairs: tuple[tuple[PortId, str], ...]) -> tuple[tuple[str, str], ...]:
        return tuple([(ports[p].name, label) for p, label in pairs if p in ports])

    members: list[ProcessSpec] = []
    rules: list[RuleSpec] = []
    for pid in pids:
        proc = processes[pid]
        leaf = pid not in model.nets
        note = proc.behavior_note if leaf else ""
        members.append(ProcessSpec(proc.name, decls(proc.inputs), decls(proc.outputs), note))
        if leaf:
            rules += [
                RuleSpec(proc.name, refs(r.needs), refs(r.produces), r.compute)
                for r in proc.firing_rules
            ]
    if not owner:
        return NetSpec(tuple(members), rules=tuple(rules))

    def ref(port_id: PortId) -> tuple[str, str]:
        return processes[model.port_owners[port_id]].name, ports[port_id].name

    to_parent = binding.to_parent()

    def binds(boundary: frozenset[PortId]) -> tuple[tuple[str, str, str], ...]:
        return tuple(
            sorted(
                ref(p) + (ports[to_parent[p]].name,)
                for p in boundary
                if p in ports and to_parent.get(p) in ports
            )
        )

    channels = sorted(
        ref(ch.source) + ref(ch.dest)
        for ch in net.channels
        if ch.source in ports and ch.dest in ports
    )
    return NetSpec(
        tuple(members),
        tuple(channels),
        binds(net.env_inputs),
        binds(net.env_outputs),
        tuple(rules),
    )


@dataclass(frozen=True)
class DecomposeStep:
    path: tuple[str, ...]
    subnet: NetSpec

    def apply(self, model: Model) -> tuple[Model, _Subst]:
        pid = core.resolve_path(model, self.path)
        if pid in model.nets:
            raise AlreadyDecomposedError(f"process {pid!r} is already decomposed")
        return _decompose(model, pid, *build_subnet(model, pid, self.subnet))


@dataclass(frozen=True)
class AddChannelStep:
    source: PortRef
    dest: PortRef

    def apply(self, model: Model) -> tuple[Model, _Subst]:
        src = core.resolve_path(model, self.source.path), self.source.port
        dst = core.resolve_path(model, self.dest.path), self.dest.port
        return _add_channel(model, src, dst)


@dataclass(frozen=True)
class AssignSortStep:
    port: PortRef
    sort: SortExpr

    def apply(self, model: Model) -> tuple[Model, _Subst]:
        pid = core.resolve_path(model, self.port.path)
        port_id = core.port_by_name(model, pid, self.port.port)
        if port_id is None:
            raise UnknownPortError(f"no port named {self.port.port!r} on {pid!r}")
        return _assign_sort(model, port_id, resolve_sort_expr(self.sort, model.sort_table))


@dataclass(frozen=True)
class PartSpec:
    """One split part: a name plus a field reference, field set, or sort name."""

    name: str
    ref: str | None = None
    fields: tuple[str, ...] | None = None


@dataclass(frozen=True)
class SplitPortStep:
    port: PortRef
    parts: tuple[PartSpec, ...]

    def apply(self, model: Model) -> tuple[Model, _Subst]:
        pid = core.resolve_path(model, self.port.path)
        port_id = core.port_by_name(model, pid, self.port.port)
        if port_id is None:
            raise UnknownPortError(f"no port named {self.port.port!r} on {pid!r}")
        sort = model.ports[port_id].sort
        resolved: list[tuple[str, Sort | None, PartFields | None]] = []
        for part in self.parts:
            if isinstance(sort, RecordSort):
                fields = part.ref if part.fields is None else part.fields
                if fields is None:
                    raise PartitionMismatchError(
                        f"part {part.name!r} needs a field reference on a record port"
                    )
                psort = _part_sort(sort, fields)
                if psort is None:
                    if isinstance(fields, str):
                        problem = f"record has no field named {fields!r}"
                    elif set(fields) <= set(sort.field_names()):
                        twice = next(f for i, f in enumerate(fields) if f in fields[:i])
                        problem = f"part {part.name!r} lists field {twice!r} twice"
                    else:
                        problem = f"part {part.name!r} names fields missing from the record"
                    raise PartitionMismatchError(problem)
                resolved.append((part.name, psort, fields))
            elif part.fields is not None:
                raise PartitionMismatchError(
                    "field lists are only meaningful for record-sorted ports"
                )
            elif part.ref is not None:
                psort = resolve_sort_expr(core.SortNameRef(part.ref), model.sort_table)
                resolved.append((part.name, psort, None))
            else:
                resolved.append((part.name, None, None))
        return _split_port(model, port_id, resolved)


@dataclass(frozen=True)
class FoldStep:
    path: tuple[str, ...]
    group: tuple[str, ...]
    new_name: str

    def apply(self, model: Model) -> tuple[Model, _Subst]:
        owner = core.resolve_path(model, self.path)
        net, _ = model.net_of(owner)
        by_name = {
            model.processes[m].name: m for m in net.processes if m in model.processes
        }
        members = []
        for name in self.group:
            if name not in by_name:
                raise GroupNotSubsetError(
                    f"no member named {name!r} in the net of {owner!r}"
                )
            members.append(by_name[name])
        return _fold(model, owner, members, self.new_name)


@dataclass(frozen=True)
class UnfoldStep:
    path: tuple[str, ...]

    def apply(self, model: Model) -> tuple[Model, _Subst]:
        if len(self.path) < 2:
            raise NoSuchChildError("the root process cannot be unfolded")
        child = core.resolve_path(model, self.path)
        parent = core.resolve_path(model, self.path[:-1])
        return _unfold(model, parent, child)


Step = DecomposeStep | AddChannelStep | AssignSortStep | SplitPortStep | FoldStep | UnfoldStep


@dataclass(frozen=True)
class RefinementScript:
    """Ordered rule invocations; replaying them is the refinement witness."""

    steps: tuple[Step, ...] = ()
    provenance: str | None = None


def apply_script(model: Model, script: RefinementScript) -> tuple[Model, Trace]:
    """Apply script steps in order, all-or-nothing.

    The first failing step raises ``StepFailedError`` with its 1-based index;
    models are immutable, so the caller's model is unchanged on failure.
    """
    trace = Trace(model)
    current = model
    for index, step in enumerate(script.steps, start=1):
        try:
            current, subst = step.apply(current)
        except BpnError as exc:
            raise StepFailedError(index, exc) from exc
        trace.record(subst)
    return current, trace


__all__ = [
    "Trace",
    "part_fields",
    "PortRef",
    "RuleSpec",
    "ProcessSpec",
    "NetSpec",
    "PartSpec",
    "build_subnet",
    "net_spec",
    "DecomposeStep",
    "AddChannelStep",
    "AssignSortStep",
    "SplitPortStep",
    "FoldStep",
    "UnfoldStep",
    "Step",
    "RefinementScript",
    "apply_script",
]
