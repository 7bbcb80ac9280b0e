"""Domain types for hierarchical business process nets and their validator.

A model is a finite tree of process nets: every process holds its typed input
and output ports, a net wires member processes through directed channels, and
a decomposed process is linked to its subnet through an interface binding.
Each fact about a port is stored once, in the process holding it; the model's
port index and the owner of each port are derived from the processes, once
per model.  All values are immutable; every operation in this package is a
pure function from model to result.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Container, Iterable, Mapping, Optional, Union

from .errors import CycleDetectedError, NoNetError, UnknownProcessError, UnknownSortNameError

ProcessId = str
PortId = str

INPUT = "in"
OUTPUT = "out"

SEQUENCE = "seq"
SET = "set"
COLLECTION_KINDS = (SEQUENCE, SET)


class _cached:
    """A view of an immutable value, computed on its first read and stored
    in the instance ``__dict__``, where later reads find it first.

    ``functools.cached_property`` does the same but, on Python 3.11, takes
    a lock on every first read.  Without it, two threads reading a view
    first at once may both compute it, and get equal values: the instance
    does not change.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


# --- sorts -----------------------------------------------------------------


@dataclass(frozen=True)
class AtomicSort:
    name: str


@dataclass(frozen=True)
class RecordSort:
    """Record of named component sorts; field order is structural."""

    fields: tuple[tuple[str, "Sort"], ...]

    # the generated hash, computed once: records key the sort-check cache
    @_cached
    def _hash(self) -> int:
        return hash((self.fields,))

    def __hash__(self) -> int:
        return self._hash

    def field_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fields)

    def field_sort(self, name: str) -> Optional["Sort"]:
        for fname, fsort in self.fields:
            if fname == name:
                return fsort
        return None


@dataclass(frozen=True)
class CollectionSort:
    kind: str  # "seq" or "set"
    element: "Sort"

    # the generated hash, computed once, as for records
    @_cached
    def _hash(self) -> int:
        return hash((self.kind, self.element))

    def __hash__(self) -> int:
        return self._hash


Sort = Union[AtomicSort, RecordSort, CollectionSort]


@functools.lru_cache(maxsize=4096)
def _sort_problems_cached(sort: Sort) -> tuple[str, ...]:
    problems: list[str] = []
    if isinstance(sort, RecordSort):
        if not sort.fields:
            problems.append("record sort has no fields")
        names = [name for name, _ in sort.fields]
        for name in sorted(set(n for n in names if names.count(n) > 1)):
            problems.append(f"record field {name!r} duplicated")
        for _, fsort in sort.fields:
            problems.extend(_sort_problems_cached(fsort))
    elif isinstance(sort, CollectionSort):
        if sort.kind not in COLLECTION_KINDS:
            problems.append(f"unknown collection kind {sort.kind!r}")
        problems.extend(_sort_problems_cached(sort.element))
    return tuple(problems)


def sort_problems(sort: Sort) -> list[str]:
    """Structural defects of a sort value (empty or duplicated record fields)."""
    return list(_sort_problems_cached(sort))


def sorts_compatible(a: Sort | None, b: Sort | None) -> bool:
    """Whether two port sorts may sit on the two ends of a channel.

    Underspecification is permitted: a missing sort is compatible with
    anything.  Two specified sorts must be structurally equal.
    """
    return a is b or a is None or b is None or a == b


# --- firing rules ----------------------------------------------------------


@dataclass(frozen=True)
class FiringRule:
    """Executable stand-in for a process behavior relation.

    ``needs`` lists the (input port, fragment label) pairs that must all be
    present before the rule fires; ``produces`` lists the (output port,
    label) pairs it emits.  In simulation each produced fragment carries
    the tag of the labels consumed; an environment fragment's payload text
    is read and checked, but never shown.  ``compute``, the text format's
    ``using NAME``, is carried through the model, printed and matched, but
    does not change simulation.
    """

    needs: tuple[tuple[PortId, str], ...]
    produces: tuple[tuple[PortId, str], ...]
    compute: str = "tag"


WHOLE = "whole"


# --- processes, nets, models -----------------------------------------------


@dataclass(frozen=True)
class Port:
    id: PortId
    name: str
    direction: str  # INPUT or OUTPUT
    sort: Sort | None = None


@dataclass(frozen=True)
class Process:
    """A process and its interface: the ports it holds, which it owns."""

    id: ProcessId
    name: str
    interface: tuple[Port, ...] = ()
    behavior_note: str = ""
    firing_rules: tuple[FiringRule, ...] = ()

    # views of the interface, and the process's own checks, computed once:
    # models share their processes

    @_cached
    def inputs(self) -> tuple[PortId, ...]:
        """The ids of the input ports, in declared order."""
        return tuple([port.id for port in self.interface if port.direction == INPUT])

    @_cached
    def outputs(self) -> tuple[PortId, ...]:
        """The ids of the output ports, in declared order."""
        return tuple([port.id for port in self.interface if port.direction == OUTPUT])

    def ports(self) -> tuple[PortId, ...]:
        """The input ids, then the output ids."""
        return self.inputs + self.outputs

    @_cached
    def violations(self) -> tuple["Violation", ...]:
        """What ``_process_violations`` finds on this process."""
        found: list[Violation] = []
        _process_violations(self, found)
        return tuple(found)


@dataclass(frozen=True)
class Channel:
    source: PortId
    dest: PortId


@dataclass(frozen=True)
class ProcessNet:
    """A net (P, C, I, O): member processes, channels, and the env boundary."""

    processes: frozenset[ProcessId] = frozenset()
    channels: frozenset[Channel] = frozenset()
    env_inputs: frozenset[PortId] = frozenset()
    env_outputs: frozenset[PortId] = frozenset()


@dataclass(frozen=True)
class InterfaceBinding:
    """Direction-preserving bijection: parent port <-> subnet boundary port."""

    pairs: tuple[tuple[PortId, PortId], ...] = ()

    def to_subnet(self) -> dict[PortId, PortId]:
        return {parent: inner for parent, inner in self.pairs}

    def to_parent(self) -> dict[PortId, PortId]:
        return {inner: parent for parent, inner in self.pairs}


@dataclass(frozen=True)
class Model:
    """A root process plus a tree-shaped assignment of nets to processes.
    The read functions assume one holder per port id and one listing per
    process; ``validate_model`` reports a model that breaks this."""

    sort_table: Mapping[str, Sort]
    processes: Mapping[ProcessId, Process]
    root: ProcessId
    nets: Mapping[ProcessId, tuple[ProcessNet, InterfaceBinding]]

    def process(self, pid: ProcessId) -> Process:
        try:
            return self.processes[pid]
        except KeyError:
            raise UnknownProcessError(f"unknown process {pid!r}") from None

    def net_of(self, owner: ProcessId) -> tuple[ProcessNet, InterfaceBinding]:
        self.process(owner)
        try:
            return self.nets[owner]
        except KeyError:
            raise NoNetError(f"process {owner!r} has no net") from None

    @_cached
    def _interfaces(self) -> tuple[dict[PortId, Port], dict[PortId, ProcessId], int]:
        """Each port id mapped to its port and to the process holding it,
        found in one pass over the processes, and the number of ports they
        hold: more than the ids where an id is held twice.  A rule's result
        gets it carried from the model the rule ran on (``edit``)."""
        ports: dict[PortId, Port] = {}
        owners: dict[PortId, ProcessId] = {}
        held = 0
        for pid, proc in self.processes.items():
            held += len(proc.interface)
            for port in proc.interface:
                ports[port.id] = port
                owners[port.id] = pid
        return ports, owners, held

    @_cached
    def ports(self) -> Mapping[PortId, Port]:
        """Each port of the model by id (read-only)."""
        return MappingProxyType(self._interfaces[0])

    @_cached
    def port_owners(self) -> Mapping[PortId, ProcessId]:
        """The process holding each port, by port id (read-only)."""
        return MappingProxyType(self._interfaces[1])

    @_cached
    def _sort_names(self) -> dict[Sort, str]:
        """Each sort the table declares, mapped to its least name."""
        table = self.sort_table
        # names in falling order, so that the least is written last
        return {table[name]: name for name in sorted(table, reverse=True)}

    @_cached
    def _containers(self) -> tuple[dict[ProcessId, ProcessId], int]:
        """Each net member mapped to the owner of the net listing it, and
        the number of listings: more than the members where one is listed
        twice.  Computed once, on first use: a model is immutable, and
        ``dataclasses.replace`` builds a new instance with an empty cache.
        A rule's result gets it carried, as ``_interfaces``.
        """
        index: dict[ProcessId, ProcessId] = {}
        listed = 0
        for owner, (net, _) in self.nets.items():
            listed += len(net.processes)
            index.update(dict.fromkeys(net.processes, owner))
        return index, listed

    @_cached
    def _flat(self) -> tuple[ProcessNet, dict[PortId, PortId]]:
        """The leaf-level net plus the composed binding from root ports to
        its boundary, computed once.

        Walks the tree down from the root: its leaves are the flat net's
        processes, and every channel endpoint, boundary port and root port
        is followed down through the interface bindings to a leaf's port.
        Port ids are unique across the model, so names may repeat between
        levels.
        """
        if self.root not in self.nets:
            root = self.processes[self.root]
            net = ProcessNet(
                processes=frozenset({self.root}),
                env_inputs=frozenset(root.inputs),
                env_outputs=frozenset(root.outputs),
            )
            return net, {p: p for p in root.ports()}
        owners, seen, leaves = [self.root], {self.root}, set()
        for owner in owners:  # grows as it goes: every decomposed process once
            for member in self.nets[owner][0].processes:
                if member not in self.nets:
                    leaves.add(member)
                elif member not in seen:
                    seen.add(member)
                    owners.append(member)
        root_net, root_binding = self.nets[self.root]
        down: dict[PortId, PortId] = {}
        for owner in reversed(owners):  # children first, so inner ports are resolved
            for parent_port, inner in self.nets[owner][1].pairs:
                down[parent_port] = down.get(inner, inner)
        # the channels no binding moves are kept, and their union reuses their hashes
        channels = set().union(*(self.nets[owner][0].channels for owner in owners))
        moved = [ch for ch in channels if ch.source in down or ch.dest in down]
        channels.difference_update(moved)
        channels.update(
            Channel(down.get(ch.source, ch.source), down.get(ch.dest, ch.dest)) for ch in moved
        )
        flat = ProcessNet(
            processes=frozenset(leaves),
            channels=frozenset(channels),
            env_inputs=frozenset(down.get(p, p) for p in root_net.env_inputs),
            env_outputs=frozenset(down.get(p, p) for p in root_net.env_outputs),
        )
        return flat, {p: down[p] for p, _ in root_binding.pairs}


def container_index(model: Model) -> Mapping[ProcessId, ProcessId]:
    """Map each process to the owner of the net containing it (read-only)."""
    return MappingProxyType(model._containers[0])


def containment_chain(model: Model, pid: ProcessId) -> list[ProcessId]:
    """``pid``, then each process containing the one before it.  The walk
    up the containment map ends at the root, at a process no net lists, or
    at the first process it reaches twice, so also on cyclic containment."""
    located = model._containers[0]
    chain = [pid]
    seen: set[ProcessId] = set()
    while pid != model.root and pid not in seen:
        seen.add(pid)
        pid = located.get(pid)
        if pid is None:
            break
        chain.append(pid)
    return chain


def display_path(model: Model, pid: ProcessId) -> tuple[str, ...]:
    """Names from the root to a process, as used in the text format."""
    processes = model.processes
    return tuple(
        processes[p].name if p in processes else p
        for p in reversed(containment_chain(model, pid))
    )


def resolve_path(model: Model, path: tuple[str, ...]) -> ProcessId:
    """Process id for a dotted name path starting at the root."""
    if not path:
        raise UnknownProcessError("empty process path")
    root = model.processes.get(model.root)
    if root is None or root.name != path[0]:
        raise UnknownProcessError(f"path must start at the root process, got {path[0]!r}")
    cur = model.root
    for name in path[1:]:
        entry = model.nets.get(cur)
        if entry is None:
            raise UnknownProcessError(
                f"process {'.'.join(path)!r}: {model.processes[cur].name!r} has no net"
            )
        net, _ = entry
        matches = sorted(
            m
            for m in net.processes
            if m in model.processes and model.processes[m].name == name
        )
        if not matches:
            raise UnknownProcessError(f"no process named {name!r} in net of {cur!r}")
        cur = matches[0]
    return cur


def port_by_name(model: Model, pid: ProcessId, name: str) -> PortId | None:
    proc = model.processes.get(pid)
    if proc is None:
        return None
    ports = model.ports
    for port_id in proc.ports():
        if ports[port_id].name == name:
            return port_id
    return None


def format_port(model: Model, pid: PortId) -> str:
    """Render a port as ``name^{process-name}`` for diagnostics and traces."""
    port = model.ports.get(pid)
    if port is None:
        return pid
    return f"{port.name}^{{{model.processes[model.port_owners[pid]].name}}}"


def fresh_id(base: str, taken: Container[str]) -> str:
    """``base``, else ``base~n`` for the least ``n >= 2`` not in ``taken``."""
    if base not in taken:
        return base
    for n in itertools.count(2):
        candidate = f"{base}~{n}"
        if candidate not in taken:
            return candidate


def fresh_name(base: str, taken: Container[str]) -> str:
    """``base``, else ``base_n`` for the least ``n >= 2`` not in ``taken``."""
    if base not in taken:
        return base
    for n in itertools.count(2):
        candidate = f"{base}_{n}"
        if candidate not in taken:
            return candidate


# --- violations -------------------------------------------------------------

PORT_CLASH = "PortClash"
DANGLING_REF = "DanglingRef"
INPUT_BOTH_INTERNAL_AND_ENV = "InputBothInternalAndEnv"
INPUT_MULTIPLY_DRIVEN = "InputMultiplyDriven"
INPUT_UNCONNECTED = "InputUnconnected"
SORT_MISMATCH = "SortMismatch"
CYCLE_DETECTED = "CycleDetected"
BINDING_INCOMPLETE = "BindingIncomplete"
BINDING_SORT_MISMATCH = "BindingSortMismatch"
HIERARCHY_NOT_TREE = "HierarchyNotTree"
SELF_LOOP = "SelfLoop"

VIOLATION_CODES = frozenset(
    {
        PORT_CLASH,
        DANGLING_REF,
        INPUT_BOTH_INTERNAL_AND_ENV,
        INPUT_MULTIPLY_DRIVEN,
        INPUT_UNCONNECTED,
        SORT_MISMATCH,
        CYCLE_DETECTED,
        BINDING_INCOMPLETE,
        BINDING_SORT_MISMATCH,
        HIERARCHY_NOT_TREE,
        SELF_LOOP,
    }
)


@dataclass(frozen=True)
class Violation:
    code: str
    location: tuple[str, ...]
    message: str

    def __post_init__(self) -> None:
        if self.code not in VIOLATION_CODES:
            raise ValueError(f"unknown violation code {self.code!r}")
        if not self.location:
            raise ValueError("a violation must name at least one location")

    def __str__(self) -> str:
        return f"{self.code} {','.join(self.location)}: {self.message}"


# --- process-level dependency graph -----------------------------------------


def process_digraph(
    model: Model, net: ProcessNet, include_self: bool = False
) -> dict[ProcessId, set[ProcessId]]:
    """Successor map between member processes induced by the net's channels.

    Self-loop channels are cycles of length one; they are included only when
    ``include_self`` is set (the validator reports them separately).
    """
    graph: dict[ProcessId, set[ProcessId]] = {p: set() for p in net.processes}
    owners = model.port_owners
    for ch in net.channels:
        src, dst = owners.get(ch.source), owners.get(ch.dest)
        if src in graph and dst in graph and (src != dst or include_self):
            graph[src].add(dst)
    return graph


def find_cycle(graph: Mapping[ProcessId, set[ProcessId]]) -> list[ProcessId] | None:
    """A directed cycle in the successor map, or None when acyclic.

    Depth-first from each node in sorted order, successors in sorted order,
    so the witness is deterministic.  The search keeps its own stack, so a
    long chain cannot exhaust the interpreter's recursion limit.  A node
    without successors lies on no cycle and is closed without a visit.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(graph, WHITE)
    for start in sorted(graph):
        if color[start] != WHITE or not graph[start]:
            continue
        color[start] = GREY
        path = [start]
        pending = [iter(sorted(graph[start]))]
        while pending:
            for succ in pending[-1]:
                seen = color[succ]
                if seen == GREY:
                    return path[path.index(succ) :]
                if seen == WHITE:
                    if not graph[succ]:
                        color[succ] = BLACK
                        continue
                    color[succ] = GREY
                    path.append(succ)
                    pending.append(iter(sorted(graph[succ])))
                    break
            else:
                pending.pop()
                color[path.pop()] = BLACK
    return None


def serialize_order(model: Model, owner: ProcessId) -> dict[ProcessId, int]:
    """Injective numbering of the net's processes increasing along channels.

    Kahn's algorithm with lexicographic (name, id) tie-breaking among ready
    processes, so the witness is deterministic.  Raises CycleDetectedError
    with a witness cycle when no such numbering exists.
    """
    net, _ = model.net_of(owner)
    graph = process_digraph(model, net, include_self=True)
    indegree = {node: 0 for node in graph}
    for node, succs in graph.items():
        for succ in succs:
            indegree[succ] += 1

    def key(pid: ProcessId) -> tuple[str, str]:
        proc = model.processes.get(pid)
        return (proc.name if proc else pid, pid)

    ready = sorted((p for p, d in indegree.items() if d == 0), key=key)
    order: dict[ProcessId, int] = {}
    rank = 1
    while ready:
        node = ready.pop(0)
        order[node] = rank
        rank += 1
        freed = []
        for succ in graph[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                freed.append(succ)
        ready = sorted(ready + freed, key=key)
    if len(order) != len(graph):
        remaining = {
            n: {s for s in succs if s not in order}
            for n, succs in graph.items()
            if n not in order
        }
        cycle = find_cycle(remaining) or sorted(remaining)
        raise CycleDetectedError(
            f"net of {owner!r} admits no serialization", list(cycle)
        )
    return order


def abstract_net(model: Model, owner: ProcessId) -> tuple[frozenset[PortId], frozenset[PortId]]:
    """The black-box view of a decomposed process: its subnet's boundary sets."""
    net, _ = model.net_of(owner)
    return net.env_inputs, net.env_outputs


# --- validation --------------------------------------------------------------
#
# Each check is implemented once.  ``_process_violations`` holds the checks
# of one process, which read only the process, so ``Process.violations``
# runs them once per process however many models share it; a net's checks
# read its owner, members and their ports too, so they run again in every
# model.  ``validate_scope`` runs the checks on a scope, ``validate_change``
# on the scope a rule's result changed, and ``validate_model`` on every
# process and net after the whole-model checks.  Every check appends to the
# findings list it is passed.  Where a check reports in sorted order, it
# finds the offenders in one unsorted pass and sorts only those.


def _process_violations(proc: Process, out: list[Violation]) -> None:
    """Port names, port sorts and firing-rule references of a process, in
    the order ``ports`` lists the ports."""
    pid = proc.id
    seen_names: dict[str, PortId] = {}
    for direction in (INPUT, OUTPUT):
        for port in proc.interface:
            if port.direction != direction:
                continue
            if seen_names.setdefault(port.name, port.id) != port.id:
                out.append(
                    Violation(
                        PORT_CLASH,
                        (pid, port.id),
                        f"duplicate port name {port.name!r} on process",
                    )
                )
            # an atomic sort has no structural defect
            if not isinstance(port.sort, AtomicSort):
                for problem in _sort_problems_cached(port.sort):
                    out.append(
                        Violation(SORT_MISMATCH, (port.id,), f"malformed port sort: {problem}")
                    )
    held = {port.id: port for port in proc.interface}
    for rule in proc.firing_rules:
        for side, refs, allowed in (
            ("needs", rule.needs, proc.inputs),
            ("produces", rule.produces, proc.outputs),
        ):
            for port_id, label in refs:
                if port_id not in allowed:
                    kind = "input" if side == "needs" else "output"
                    problem = f"{side} {port_id!r}, which is not an {kind} port of the process"
                else:
                    # a ``whole`` reference to a held port is always sound
                    sort = held[port_id].sort
                    if label == WHOLE or isinstance(sort, RecordSort) and sort.field_sort(label):
                        continue
                    problem = f"uses label {label!r} which is not a record field of the port sort"
                out.append(Violation(DANGLING_REF, (pid, port_id), f"firing rule {problem}"))


def _model_violations(model: Model, out: list[Violation]) -> bool:
    """The checks that need the whole model: the sort table, the root, the
    net owners, port ids held and processes listed twice, and the tree.
    Returns whether each port id is held once and each process listed once;
    if not, the containment walk, which reads the parents, is skipped."""
    table = model.sort_table
    for name in sorted([name for name, sort in table.items() if _sort_problems_cached(sort)]):
        for problem in _sort_problems_cached(table[name]):
            out.append(Violation(SORT_MISMATCH, (name,), f"malformed sort: {problem}"))
    processes, nets, root = model.processes, model.nets, model.root
    if root not in processes:
        out.append(Violation(DANGLING_REF, (root,), "root process is undefined"))
    for owner in sorted([owner for owner in nets if owner not in processes]):
        out.append(Violation(DANGLING_REF, (owner,), "net owner is undefined"))
    # more listings than entries in a table: some key is listed twice
    parent, listed = model._containers
    if listed > len(parent):
        pairs = ((member, o) for o in sorted(nets) for member in nets[o][0].processes)
        message = "process contained in more than one net"
        out += [Violation(HIERARCHY_NOT_TREE, at, message) for at in _listed_twice(pairs)]
    if root in parent:
        out.append(
            Violation(HIERARCHY_NOT_TREE, (root,), "root process must not be contained in any net")
        )
    _, owners, held = model._interfaces
    if held > len(owners):
        pairs = ((port, pid) for pid in sorted(processes) for port in processes[pid].ports())
        message = "port listed by more than one process interface entry"
        out += [Violation(PORT_CLASH, at, message) for at in _listed_twice(pairs)]
    if listed > len(parent) or held > len(owners):
        return False
    # a process whose parent chain ends without repeating is placed; so is
    # every process on that chain, which is not walked again
    placed: set[ProcessId] = set()
    found: dict[ProcessId, Violation] = {}
    for pid in processes:
        if pid == root or pid in placed:
            continue
        if pid not in parent:
            found[pid] = Violation(
                HIERARCHY_NOT_TREE, (pid,), "process is not contained in any net"
            )
            continue
        seen = {pid}
        node = pid
        while True:
            node = parent[node]
            if node in placed or node not in parent:
                placed |= seen
                break
            if node in seen:
                found[pid] = Violation(
                    HIERARCHY_NOT_TREE, tuple(sorted(seen)), "containment relation is cyclic"
                )
                break
            seen.add(node)
    for pid in sorted(found):
        out.append(found[pid])
    return True


def _listed_twice(pairs: Iterable[tuple[str, str]]) -> list[tuple[str, ...]]:
    """Each key of the ``(key, lister)`` pairs listed more than once, in
    sorted order, followed by its listers in the order of the pairs."""
    listers: dict[str, list[str]] = {}
    for key, lister in pairs:
        listers.setdefault(key, []).append(lister)
    return [(key, *listers[key]) for key in sorted(listers) if len(listers[key]) > 1]


def _net_body_violations(model: Model, net: ProcessNet, at: str, out: list[Violation]) -> None:
    processes, ports, owners = model.processes, model.ports, model.port_owners
    # the process digraph; its keys are the defined members, in sorted order
    graph: dict[ProcessId, set[ProcessId]] = {}
    names_seen: dict[str, ProcessId] = {}
    for member in sorted(net.processes):
        proc = processes.get(member)
        if proc is None:
            out.append(Violation(DANGLING_REF, (at, member), "net member is undefined"))
            continue
        graph[member] = set()
        if proc.name in names_seen:
            out.append(
                Violation(
                    PORT_CLASH,
                    (at, member, names_seen[proc.name]),
                    f"duplicate process name {proc.name!r} within one net",
                )
            )
        else:
            names_seen[proc.name] = member

    # one pass over the channels checks each, counts the drivers of each
    # input and adds its edge to the digraph
    driven: dict[PortId, int] = {}
    for ch in sorted(net.channels, key=lambda c: (c.source, c.dest)):
        src, dst = ports.get(ch.source), ports.get(ch.dest)
        if src is None or dst is None:
            if src is None:
                out.append(
                    Violation(DANGLING_REF, (at, ch.source), "channel source is undefined")
                )
            if dst is None:
                out.append(Violation(DANGLING_REF, (at, ch.dest), "channel dest is undefined"))
            continue
        ok = True
        src_owner, dst_owner = owners[ch.source], owners[ch.dest]
        if src.direction != OUTPUT:
            out.append(
                Violation(DANGLING_REF, (at, ch.source), "channel source is not an output port")
            )
            ok = False
        if dst.direction != INPUT:
            out.append(
                Violation(DANGLING_REF, (at, ch.dest), "channel dest is not an input port")
            )
            ok = False
        if src_owner not in graph:
            out.append(
                Violation(
                    DANGLING_REF, (at, ch.source), "channel source is not on a member process"
                )
            )
            ok = False
        if dst_owner not in graph:
            out.append(
                Violation(DANGLING_REF, (at, ch.dest), "channel dest is not on a member process")
            )
            ok = False
        if not ok:
            continue
        if src_owner == dst_owner:
            out.append(
                Violation(
                    SELF_LOOP,
                    (src_owner, ch.source, ch.dest),
                    "channel connects a process to itself",
                )
            )
            graph[src_owner].add(src_owner)
            continue
        driven[ch.dest] = driven.get(ch.dest, 0) + 1
        graph[src_owner].add(dst_owner)
        if not sorts_compatible(src.sort, dst.sort):
            out.append(
                Violation(
                    SORT_MISMATCH,
                    (ch.source, ch.dest),
                    f"channel sorts differ: {render_sort(src.sort)} vs {render_sort(dst.sort)}",
                )
            )

    for boundary, direction in ((net.env_inputs, INPUT), (net.env_outputs, OUTPUT)):
        for port_id in sorted(boundary):
            port = ports.get(port_id)
            if port is None:
                out.append(Violation(DANGLING_REF, (at, port_id), "boundary port is undefined"))
            elif port.direction != direction or owners[port_id] not in graph:
                out.append(
                    Violation(
                        DANGLING_REF,
                        (at, port_id),
                        f"boundary {direction}-entry is not an {direction}put port of a member",
                    )
                )

    env_in = net.env_inputs
    for port_id in sorted([p for p, n in driven.items() if n > 1 or p in env_in]):
        if driven[port_id] > 1:
            out.append(
                Violation(
                    INPUT_MULTIPLY_DRIVEN,
                    (port_id,),
                    f"input port driven by {driven[port_id]} channels",
                )
            )
        if port_id in env_in:
            out.append(
                Violation(
                    INPUT_BOTH_INTERNAL_AND_ENV,
                    (port_id,),
                    "input port is both a channel destination and an environment input",
                )
            )
    for member in graph:
        for port_id in processes[member].inputs:
            if port_id not in driven and port_id not in env_in:
                out.append(
                    Violation(
                        INPUT_UNCONNECTED,
                        (member, port_id),
                        "input port is neither channel-driven nor an environment input",
                    )
                )

    cycle = find_cycle(graph)
    if cycle is not None:
        out.append(
            Violation(
                CYCLE_DETECTED,
                tuple(cycle),
                "channels induce a cyclic dependency between processes",
            )
        )


def _binding_violations(
    model: Model,
    owner: ProcessId,
    net: ProcessNet,
    binding: InterfaceBinding,
    out: list[Violation],
) -> None:
    proc = model.processes.get(owner)
    if proc is None:
        return
    ports, owners = model.ports, model.port_owners
    env_in, env_out = net.env_inputs, net.env_outputs
    seen_parent: set[PortId] = set()
    seen_inner: set[PortId] = set()
    for parent_port, inner_port in sorted(binding.pairs):
        if parent_port in seen_parent:
            out.append(
                Violation(BINDING_INCOMPLETE, (owner, parent_port), "parent port bound twice")
            )
        if inner_port in seen_inner:
            out.append(
                Violation(BINDING_INCOMPLETE, (owner, inner_port), "boundary port bound twice")
            )
        seen_parent.add(parent_port)
        seen_inner.add(inner_port)
        pp, ip = ports.get(parent_port), ports.get(inner_port)
        if owners.get(parent_port) != owner:
            out.append(
                Violation(
                    BINDING_INCOMPLETE,
                    (owner, parent_port),
                    "binding names a port that is not on the decomposed process",
                )
            )
            continue
        if ip is None or (inner_port not in env_in and inner_port not in env_out):
            out.append(
                Violation(
                    BINDING_INCOMPLETE,
                    (owner, inner_port),
                    "binding names a port that is not on the subnet boundary",
                )
            )
            continue
        if inner_port not in (env_in if pp.direction == INPUT else env_out):
            out.append(
                Violation(
                    BINDING_INCOMPLETE,
                    (owner, parent_port, inner_port),
                    "binding does not preserve port direction",
                )
            )
        # equal when both are unspecified
        if pp.sort is not ip.sort and pp.sort != ip.sort:
            out.append(
                Violation(
                    BINDING_SORT_MISMATCH,
                    (parent_port, inner_port),
                    "bound ports must both be unspecified or carry equal sorts",
                )
            )
    for port_id in sorted([p for p in proc.ports() if p not in seen_parent]):
        out.append(
            Violation(
                BINDING_INCOMPLETE,
                (owner, port_id),
                "parent port is not bound to any subnet boundary port",
            )
        )
    for port_id in sorted((env_in | env_out) - seen_inner):
        out.append(
            Violation(
                BINDING_INCOMPLETE,
                (owner, port_id),
                "subnet boundary port is not bound to any parent port",
            )
        )


def validate_net(model: Model, owner: ProcessId) -> list[Violation]:
    """All violations of the net owned by ``owner``.

    Covers member names, reference integrity, the four net constraints
    (internal/env disjointness, unique drivers, channel sort fit,
    acyclicity), input totality, and consistency of the interface binding.
    Output ports may feed any number of channels.
    """
    model.net_of(owner)
    return validate_scope(model, (owner,))


def validate_scope(
    model: Model,
    owners: Iterable[ProcessId] = (),
    processes: Iterable[ProcessId] = (),
) -> list[Violation]:
    """The per-process checks on ``processes``, by id, then the per-net checks
    on the nets of ``owners``, by owner: member names, reference integrity,
    constraints 1-4, input totality and the interface binding.  Each
    process must be in the model, and each owner must own a net.
    """
    findings: list[Violation] = []
    for pid in sorted(set(processes)):
        findings += model.processes[pid].violations
    for owner in sorted(set(owners)):
        net, binding = model.nets[owner]
        _net_body_violations(model, net, owner, findings)
        _binding_violations(model, owner, net, binding, findings)
    return findings


def edit(
    model: Model,
    processes: Mapping[ProcessId, Optional[Process]],
    nets: Mapping[ProcessId, Optional[tuple[ProcessNet, InterfaceBinding]]] = MappingProxyType({}),
) -> Model:
    """``model`` with each given process and net entry added or replaced,
    or removed where it is ``None``.  The result keeps ``model``'s sort
    table and root.  Every rule builds its result here, and the keys given
    are recorded on it for ``validate_change``.

    The result's port index and containment map are carried from
    ``model``'s where it has them without a repeat: copies with the entries
    of each replaced or removed process, and of each net whose members
    changed, taken out and those of each given one put in; a map no net's
    members changed in is shared.
    """
    old, listing = model.processes, model.nets
    table, listed = {**old, **processes}, {**listing, **nets}
    for written, entries in ((table, processes), (listed, nets)):
        for key in [key for key, entry in entries.items() if entry is None]:
            del written[key]
    result = Model(model.sort_table, table, model.root, listed)
    known, cache = model.__dict__, result.__dict__
    cache["_change"] = tuple(processes), tuple(nets)
    interfaces = known.get("_interfaces")
    if interfaces is not None and len(interfaces[1]) == interfaces[2]:
        ports, owners, held = interfaces[0].copy(), interfaces[1].copy(), interfaces[2]
        for pid in processes:
            for port in old[pid].interface if pid in old else ():
                held -= 1
                del ports[port.id], owners[port.id]
        for pid, proc in processes.items():
            for port in proc.interface if proc else ():
                held += 1
                ports[port.id] = port
                owners[port.id] = pid
        cache["_interfaces"] = ports, owners, held
    containers = known.get("_containers")
    if containers is not None and len(containers[0]) == containers[1]:
        # the owners of the nets whose members changed, were added or removed
        moved = [
            owner
            for owner, entry in nets.items()
            if entry is None
            or owner not in listing
            or listing[owner][0].processes is not entry[0].processes
        ]
        if not moved:
            cache["_containers"] = containers
        else:
            index, count = containers[0].copy(), containers[1]
            for owner in moved:
                for member in listing[owner][0].processes if owner in listing else ():
                    count -= 1
                    del index[member]
            for owner in moved:
                members = nets[owner][0].processes if nets[owner] else ()
                count += len(members)
                index.update(dict.fromkeys(members, owner))
            cache["_containers"] = index, count
    return result


def validate_change(before: Model, after: Model) -> list[Violation]:
    """``validate_scope`` on the entries whose checks read what ``after``,
    ``edit``'s result on ``before``, added, replaced or removed: each
    changed process, the net the containment map places it or a removed
    process in, the net each owns, and each changed net.  A process's
    checks read only the process, and a net's only the net, its owner, its
    members and the ports they hold.

    Where the scope is clean, a result with another sort table or root is
    validated in full.  With the same ones, where ``before``'s stored
    findings are empty, ``after``'s findings are settled here: empty if
    ``_keeps_tree`` holds, else ``validate_model(after)``.
    """
    change = after.__dict__.get("_change")
    if change is None:
        raise ValueError("validate_change needs a model that core.edit built")
    processes, listed = after.processes, after.nets
    procs = {pid for pid in change[0] if pid in processes}
    gone = {pid for pid in change[0] if pid not in processes}
    nets = [owner for owner in change[1] if owner in listed]
    reading = procs | gone
    located = after._containers[0]
    owners = {located[p] for p in reading if p in located}
    owners |= reading & listed.keys()
    owners.update(nets)
    found = validate_scope(after, owners, procs)
    same = after.sort_table is before.sort_table and after.root is before.root
    if found or same and before.__dict__.get("_findings") != ():
        return found
    if not same or not _keeps_tree(after, gone, nets):
        return validate_model(after)
    after.__dict__["_findings"] = ()
    return []


def _keeps_tree(model: Model, gone: set, nets: list) -> bool:
    """Whether the whole-model checks find nothing on ``model``, a result
    whose change scope is clean, of a clean parent with the same sort table
    and root, that adds or replaces the nets ``nets`` and removes the
    processes ``gone``, among other changes.

    Each listed member is defined, or a net check in scope would have found
    it, so with no repeat and one listing fewer than processes every other
    process is listed.  A parent changes only where a changed net lists a
    process, so if the chain up from each changed net's owner reaches the
    root, so does every chain: a member on its owner's chain is a cycle,
    which the chain ends on.
    """
    processes, listed, root = model.processes, model.nets, model.root
    _, owners, held = model._interfaces
    parent, listings = model._containers
    return (
        len(owners) == held
        and len(parent) == listings
        and root in processes
        and root not in parent
        and len(parent) == len(processes) - 1
        and processes.keys() >= set(nets)
        and listed.keys().isdisjoint(gone)
        and all(containment_chain(model, owner)[-1] == root for owner in nets)
    )


def validate_model(model: Model) -> list[Violation]:
    """Every violation: the whole-model checks, then the checks of each
    process by id, then those of each net by owner.  Where a port id is
    held twice or a process listed twice, the whole-model checks alone.
    The findings are stored on the model; each call returns a new list.
    """
    cache = model.__dict__
    found = cache.get("_findings")
    if found is None:
        findings: list[Violation] = []
        if _model_violations(model, findings):
            findings += validate_scope(model, model.nets, model.processes)
        found = cache["_findings"] = tuple(findings)
    return list(found)


# --- sort expressions ---------------------------------------------------------

# A sort expression is a sort as the model file spells it, and ``str`` of it
# is that text.


@dataclass(frozen=True)
class SortNameRef:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class RecordExpr:
    fields: tuple[tuple[str, "SortExpr"], ...]

    def __str__(self) -> str:
        inner = ", ".join(f"{name}: {fexpr}" for name, fexpr in self.fields)
        return f"record {{ {inner} }}"


@dataclass(frozen=True)
class CollectionExpr:
    kind: str
    element: "SortExpr"

    def __str__(self) -> str:
        return f"{self.kind} {self.element}"


SortExpr = Union[SortNameRef, RecordExpr, CollectionExpr]


def resolve_sort_expr(expr: SortExpr, table: Mapping[str, Sort]) -> Sort:
    """Resolve a textual sort expression against a table of declared sorts."""
    if isinstance(expr, SortNameRef):
        sort = table.get(expr.name)
        if sort is None:
            raise UnknownSortNameError(f"unknown sort name {expr.name!r}")
        return sort
    if isinstance(expr, CollectionExpr):
        return CollectionSort(expr.kind, resolve_sort_expr(expr.element, table))
    return RecordSort(
        tuple((name, resolve_sort_expr(fexpr, table)) for name, fexpr in expr.fields)
    )


def sort_expr(sort: Sort, names: Mapping[Sort, str]) -> SortExpr:
    """Reference form of a sort, the inverse of ``resolve_sort_expr``.

    It is the sort's name in ``names``, a sort table's index such as
    ``Model._sort_names``; otherwise the sort's structure.
    """
    name = names.get(sort)
    return sort_structure(sort, names) if name is None else SortNameRef(name)


def sort_structure(sort: Sort, names: Mapping[Sort, str]) -> SortExpr:
    """A sort's structure, each part in reference form against ``names``.
    An atomic sort is named by itself."""
    if isinstance(sort, AtomicSort):
        return SortNameRef(sort.name)
    if isinstance(sort, CollectionSort):
        return CollectionExpr(sort.kind, sort_expr(sort.element, names))
    return RecordExpr(tuple((name, sort_expr(fsort, names)) for name, fsort in sort.fields))


def render_sort(sort: Sort) -> str:
    """Structural text form of a sort, matching the model file grammar."""
    return str(sort_expr(sort, {}))


# --- sort closure ------------------------------------------------------------


def port_closure(model: Model, start: PortId) -> set[PortId]:
    """Transitive closure of a port under {channel peer, binding partner}.

    This is the set of ports that must agree on a sort for constraints to
    keep holding, and the set that a split must traverse.
    """
    seen = {start}
    work = [start]
    located, owners = model._containers[0], model.port_owners
    while work:
        pid = work.pop()
        owner = owners.get(pid)
        if owner is None:
            continue
        neighbors: list[PortId] = []
        owner_container = located.get(owner)
        if owner_container is not None and owner_container in model.nets:
            net, binding = model.nets[owner_container]
            for ch in net.channels:
                if ch.source == pid:
                    neighbors.append(ch.dest)
                if ch.dest == pid:
                    neighbors.append(ch.source)
            upward = binding.to_parent().get(pid)
            if upward is not None:
                neighbors.append(upward)
        if owner in model.nets:
            downward = model.nets[owner][1].to_subnet().get(pid)
            if downward is not None:
                neighbors.append(downward)
        for n in neighbors:
            if n not in seen:
                seen.add(n)
                work.append(n)
    return seen


__all__ = [
    "AtomicSort",
    "RecordSort",
    "CollectionSort",
    "Sort",
    "FiringRule",
    "Port",
    "Process",
    "Channel",
    "ProcessNet",
    "InterfaceBinding",
    "Model",
    "Violation",
    "INPUT",
    "OUTPUT",
    "WHOLE",
    "SEQUENCE",
    "SET",
    "VIOLATION_CODES",
    "SortNameRef",
    "RecordExpr",
    "CollectionExpr",
    "SortExpr",
    "resolve_sort_expr",
    "sort_expr",
    "sort_structure",
    "sorts_compatible",
    "sort_problems",
    "render_sort",
    "validate_net",
    "validate_model",
    "serialize_order",
    "abstract_net",
    "process_digraph",
    "find_cycle",
    "port_closure",
    "container_index",
    "containment_chain",
    "display_path",
    "resolve_path",
    "port_by_name",
    "format_port",
    "fresh_id",
    "fresh_name",
]
