"""Refinement checking: script replay, isomorphism, and a bounded search oracle.

The artifact's refinement relation is derivability by the rule calculus:
``check_refinement`` verifies a provided script witness, and
``brute_force_derivable`` exhaustively searches for one over a finite
parameter universe drawn from the two models.  A negative search answer
means "not derivable within budget", not "not a refinement".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import core
from .core import Model, PortId, Process, ProcessId, RecordSort, SortNameRef
from .errors import BpnError, SearchBudgetExceededError, StepFailedError
from .refine import (
    AddChannelStep,
    AssignSortStep,
    DecomposeStep,
    FoldStep,
    PartSpec,
    PortRef,
    RefinementScript,
    SplitPortStep,
    Step,
    Trace,
    UnfoldStep,
    apply_script,
    net_spec,
    part_fields,
)

REFINES = "Refines"
DOES_NOT_MATCH = "DoesNotMatch"
SCRIPT_FAILS = "ScriptFails"


@dataclass(frozen=True)
class Isomorphism:
    """Structure-preserving bijections witnessing that two models coincide."""

    process_map: dict[ProcessId, ProcessId]
    port_map: dict[PortId, PortId]


@dataclass(frozen=True)
class Verdict:
    status: str
    detail: str
    isomorphism: Isomorphism | None = None
    trace: Trace | None = None
    failed_step: int | None = None


def model_isomorphic(a: Model, b: Model) -> Isomorphism | None:
    """A witness that the models are equal up to id renaming, or None.

    Display names, directions, sorts, channels, boundaries, bindings, notes,
    and firing rules must all correspond; the sort tables must be equal.
    Matching is name-guided, which is exact whenever display names are
    unique per scope (guaranteed for well-formed models).
    """
    iso, _ = _match_models(a, b)
    return iso


def _match_models(a: Model, b: Model) -> tuple[Isomorphism | None, str]:
    if dict(a.sort_table) != dict(b.sort_table):
        return None, "sort tables differ"
    if len(a.processes) != len(b.processes) or len(a.ports) != len(b.ports):
        return None, "different numbers of processes or ports"
    proc_map: dict[ProcessId, ProcessId] = {}
    port_map: dict[PortId, PortId] = {}
    held_a, held_b = a.ports, b.ports
    # the decomposed pairs whose members are being matched, innermost last,
    # each with the member names it has left; and their processes in ``a``
    nets: list = []
    open_nets: set[ProcessId] = set()

    def match_ports(pa: Process, pb: Process) -> str | None:
        for side in ("inputs", "outputs"):
            ports_a, ports_b = getattr(pa, side), getattr(pb, side)
            if len(ports_a) != len(ports_b):
                return f"process {pa.name!r}: different number of {side}"
            by_name_a = {held_a[p].name: p for p in ports_a}
            by_name_b = {held_b[p].name: p for p in ports_b}
            if len(by_name_a) != len(ports_a) or len(by_name_b) != len(ports_b):
                return f"process {pa.name!r}: duplicate or dangling port names"
            if set(by_name_a) != set(by_name_b):
                return f"process {pa.name!r}: port names differ"
            for name in sorted(by_name_a):
                qa, qb = by_name_a[name], by_name_b[name]
                if held_a[qa].sort != held_b[qb].sort:
                    return f"port {name!r} of {pa.name!r}: sorts differ"
                port_map[qa] = qb
        return None

    def match_rules(pa: Process, pb: Process) -> str | None:
        if len(pa.firing_rules) != len(pb.firing_rules):
            return f"process {pa.name!r}: different number of firing rules"
        for ra, rb in zip(pa.firing_rules, pb.firing_rules):
            mapped_needs = {(port_map.get(p), lab) for p, lab in ra.needs}
            mapped_prods = {(port_map.get(p), lab) for p, lab in ra.produces}
            if (
                mapped_needs != set(rb.needs)
                or mapped_prods != set(rb.produces)
                or ra.compute != rb.compute
            ):
                return f"process {pa.name!r}: firing rules differ"
        return None

    def match_process(ida: ProcessId, idb: ProcessId) -> str | None:
        """Match a pair of processes; a decomposed pair goes on ``nets``,
        to have its members matched, and then its wiring."""
        pa, pb = a.processes.get(ida), b.processes.get(idb)
        if pa is None or pb is None:
            return "dangling process reference"
        if pa.name != pb.name:
            return f"process names differ: {pa.name!r} vs {pb.name!r}"
        proc_map[ida] = idb
        err = match_ports(pa, pb)
        if err:
            return err
        in_a, in_b = ida in a.nets, idb in b.nets
        if in_a != in_b:
            return f"process {pa.name!r} is decomposed in only one model"
        if not in_a:
            if pa.behavior_note != pb.behavior_note:
                return f"process {pa.name!r}: behavior notes differ"
            return match_rules(pa, pb)
        # the glass box is authoritative: black-box notes and firing rules
        # of a decomposed process are abstraction residue
        net_a, net_b = a.nets[ida][0], b.nets[idb][0]
        if len(net_a.processes) != len(net_b.processes):
            return f"net of {pa.name!r}: different number of members"
        by_name_a = {a.processes[m].name: m for m in net_a.processes if m in a.processes}
        by_name_b = {b.processes[m].name: m for m in net_b.processes if m in b.processes}
        if len(by_name_a) != len(net_a.processes) or len(by_name_b) != len(net_b.processes):
            return f"net of {pa.name!r}: duplicate or dangling member names"
        if set(by_name_a) != set(by_name_b):
            return f"net of {pa.name!r}: member names differ"
        if ida in open_nets:
            return f"net of {pa.name!r}: containment is cyclic"
        open_nets.add(ida)
        nets.append((ida, idb, iter(sorted(by_name_a)), by_name_a, by_name_b))
        return None

    def match_wiring(ida: ProcessId, idb: ProcessId) -> str | None:
        open_nets.discard(ida)
        net_a, bind_a = a.nets[ida]
        net_b, bind_b = b.nets[idb]
        name = a.processes[ida].name
        mapped_channels = {
            (port_map.get(ch.source), port_map.get(ch.dest)) for ch in net_a.channels
        }
        if mapped_channels != {(ch.source, ch.dest) for ch in net_b.channels}:
            return f"net of {name!r}: channels differ"
        if {port_map.get(p) for p in net_a.env_inputs} != set(net_b.env_inputs):
            return f"net of {name!r}: environment inputs differ"
        if {port_map.get(p) for p in net_a.env_outputs} != set(net_b.env_outputs):
            return f"net of {name!r}: environment outputs differ"
        mapped_binding = {(port_map.get(pp), port_map.get(ip)) for pp, ip in bind_a.pairs}
        if mapped_binding != set(bind_b.pairs):
            return f"net of {name!r}: interface bindings differ"
        return None

    def match_tree(ida: ProcessId, idb: ProcessId) -> str | None:
        """The pair and everything below it, depth first with the explicit
        stack ``nets``: each member's subtree before its net's wiring."""
        err = match_process(ida, idb)
        while nets and not err:
            depth = len(nets)
            ida, idb, names, by_name_a, by_name_b = nets[-1]
            for name in names:
                err = match_process(by_name_a[name], by_name_b[name])
                if err or len(nets) > depth:
                    break
            else:
                nets.pop()
                err = match_wiring(ida, idb)
        return err

    err = match_tree(a.root, b.root)
    if err:
        return None, err

    contained_a, contained_b = core.container_index(a), core.container_index(b)
    spare_a = sorted(p for p in a.processes if p not in contained_a and p != a.root)
    spare_b = sorted(p for p in b.processes if p not in contained_b and p != b.root)
    by_name_a = {a.processes[p].name: p for p in spare_a}
    by_name_b = {b.processes[p].name: p for p in spare_b}
    if set(by_name_a) != set(by_name_b) or len(by_name_a) != len(spare_a):
        return None, "top-level processes differ"
    for name in sorted(by_name_a):
        if by_name_a[name] in proc_map:
            continue
        err = match_tree(by_name_a[name], by_name_b[name])
        if err:
            return None, err
    if len(proc_map) != len(a.processes):
        return None, "some processes are unreachable from the root or top level"
    return Isomorphism(dict(proc_map), dict(port_map)), ""


def check_refinement(base: Model, refined: Model, script: RefinementScript) -> Verdict:
    """Replay the script on base and compare the result with refined."""
    try:
        result, trace = apply_script(base, script)
    except StepFailedError as exc:
        return Verdict(SCRIPT_FAILS, str(exc), failed_step=exc.index)
    iso, reason = _match_models(result, refined)
    if iso is None:
        return Verdict(DOES_NOT_MATCH, reason, trace=trace)
    return Verdict(REFINES, "script replay matches the refined model", iso, trace)


# --- bounded derivability search -------------------------------------------------


def _ports_by_name(model: Model, pid: ProcessId) -> dict[str, PortId]:
    return {model.ports[p].name: p for p in model.processes[pid].ports()}


class _Refined:
    """What a search reads of its refined model at every state, found once
    per search: the process names, and for each path the twin (the process
    at that path) with its ports by name, or None where no process is."""

    def __init__(self, model: Model) -> None:
        self.model = model
        self.names = {p.name for p in model.processes.values()}
        self._twins: dict[tuple[str, ...], tuple[ProcessId, dict[str, PortId]] | None] = {}

    def twin(self, path: tuple[str, ...]) -> tuple[ProcessId, dict[str, PortId]] | None:
        if path not in self._twins:
            try:
                pid = core.resolve_path(self.model, path)
                self._twins[path] = pid, _ports_by_name(self.model, pid)
            except BpnError:
                self._twins[path] = None
        return self._twins[path]


def _candidate_groups(
    current: Model, refined: _Refined
) -> Iterator[tuple[type, int, int, Iterable[Step]]]:
    """The candidate steps at ``current`` in groups ``(kind, delta, count,
    candidates)``: ``count`` steps of one rule kind, each changing the
    process count by ``delta``, counted from the lists the iterator walks
    and built only as it is walked.  Decompose gives one group per
    candidate, its delta the refined twin's member count, so a candidate is
    priced before its subnet spec is built; every other kind is one group.

    Parameters are drawn from the two models' names and sorts: fresh names
    come from the refined model's vocabulary at the corresponding position.
    """
    located = core.container_index(current)
    paths = {
        pid: core.display_path(current, pid)
        for pid in current.processes
        if pid == current.root or pid in located
    }
    pids = sorted(paths)

    def group(kind: type, count: int, candidates: Iterable[Step]):
        return kind, _PROCESS_DELTA[kind](None), count, candidates

    # assign-sort over unsorted ports
    sort_names = sorted(current.sort_table)
    unsorted = []
    for pid in pids:
        for port_id in sorted(current.processes[pid].ports()):
            port = current.ports[port_id]
            if port.sort is None:
                unsorted.append((paths[pid], port.name))
    yield group(AssignSortStep, len(unsorted) * len(sort_names), (
        AssignSortStep(PortRef(path, port), SortNameRef(name))
        for path, port in unsorted for name in sort_names
    ))

    # each process's twin at the same path in the refined model, its ports
    # by name, and the names the twin has that the process lacks
    twins = {pid: twin for pid in pids if (twin := refined.twin(paths[pid])) is not None}
    here = {pid: _ports_by_name(current, pid) for pid in twins}
    missing = {
        pid: sorted(twins[pid][1].keys() - here[pid].keys()) if pid in twins else []
        for pid in pids
    }

    # add-channel between processes, fresh names from the refined twin
    fresh = sum(map(len, missing.values()))
    src_names = {
        pid: sorted(
            {current.ports[p].name for p in current.processes[pid].outputs} | set(missing[pid])
        )
        for pid in (pids if fresh else ())
    }
    count = sum(len(names) * (fresh - len(missing[pid])) for pid, names in src_names.items())
    yield group(AddChannelStep, count, (
        AddChannelStep(PortRef(paths[src], src_name), PortRef(paths[dst], dst_name))
        for src in src_names for dst in pids if dst != src
        for src_name in src_names[src] for dst_name in missing[dst]
    ))

    # decompose a leaf using the refined model's subnet at the same path
    for pid in pids:
        twin = twins.get(pid, (None,))[0]
        if pid not in current.nets and twin in refined.model.nets:
            net, _ = refined.model.nets[twin]
            members = sum(m in refined.model.processes for m in net.processes)
            yield DecomposeStep, members, 1, (
                DecomposeStep(path, net_spec(refined.model, owner, current._sort_names))
                for path, owner in [(paths[pid], twin)]
            )

    # split a port that disappears in the refined twin
    splits = []
    for pid, (_, there_names) in twins.items():
        here_ports, names = here[pid], missing[pid]
        if len(names) < 2:
            continue
        for old_name in sorted(here_ports.keys() - there_names.keys()):
            old_port = current.ports[here_ports[old_name]]
            for k in range(2, len(names) + 1):
                for combo in itertools.permutations(names, k):
                    parts = _infer_parts(current, refined.model, old_port, combo, there_names)
                    if parts is not None:
                        splits.append((PortRef(paths[pid], old_name), parts))
    yield group(SplitPortStep, len(splits), itertools.starmap(SplitPortStep, splits))

    # fold convex groups, names from the refined model's vocabulary
    fold_names = sorted(refined.names - {p.name for p in current.processes.values()})
    folds = []
    for owner in sorted(current.nets) if fold_names else ():
        if owner not in paths:
            continue
        net, _ = current.nets[owner]
        members = sorted(
            current.processes[m].name for m in net.processes if m in current.processes
        )
        if len(members) >= 2:
            folds.append((paths[owner], members))
    count = sum((2 ** len(members) - 2) * len(fold_names) for _, members in folds)
    yield group(FoldStep, count, (
        FoldStep(path, chosen, new_name)
        for path, members in folds for size in range(1, len(members))
        for chosen in itertools.combinations(members, size) for new_name in fold_names
    ))

    # unfold any decomposed non-root process
    unfolds = [
        paths[pid]
        for pid in sorted(current.nets)
        if pid != current.root and pid in paths and len(paths[pid]) >= 2
    ]
    yield group(UnfoldStep, len(unfolds), map(UnfoldStep, unfolds))


def _infer_parts(
    current: Model,
    refined: Model,
    old_port,
    combo: tuple[str, ...],
    there_names: dict[str, PortId],
) -> tuple[PartSpec, ...] | None:
    targets = [refined.ports[there_names[name]] for name in combo]
    if any(target.direction != old_port.direction for target in targets):
        return None
    if isinstance(old_port.sort, RecordSort):
        fields = part_fields(old_port.sort, [target.sort for target in targets])
        if None in fields:
            return None
        return tuple(
            PartSpec(name, ref=f) if isinstance(f, str) else PartSpec(name, fields=f)
            for name, f in zip(combo, fields)
        )
    if old_port.sort is not None:
        return None
    parts = []
    for name, target in zip(combo, targets):
        if target.sort is None:
            parts.append(PartSpec(name))
            continue
        sort_name = current._sort_names.get(target.sort)
        if sort_name is None:
            return None
        parts.append(PartSpec(name, ref=sort_name))
    return tuple(parts)


# each rule kind's change to the process count, known before it is applied;
# only decompose's reads the step
_PROCESS_DELTA = {
    DecomposeStep: lambda step: len(step.subnet.members),
    FoldStep: lambda step: 1,
    UnfoldStep: lambda step: -1,
    AddChannelStep: lambda step: 0,
    AssignSortStep: lambda step: 0,
    SplitPortStep: lambda step: 0,
}


def _steps_needed(kind: type, delta: int, current: Model, refined: Model) -> int:
    """Fewest steps after a step of ``kind`` changing the process count by
    ``delta`` that can reach refined: only unfold lowers the process count,
    by one, so a surplus of k processes needs k steps and a deficit one;
    assign-sort keeps the port count, so if that differs from refined's its
    result needs one step more."""
    gap = len(refined.processes) - len(current.processes) - delta
    if gap:
        return max(-gap, 1)
    return int(kind is AssignSortStep and len(current.ports) != len(refined.ports))


def brute_force_derivable(
    base: Model,
    refined: Model,
    max_steps: int,
    node_limit: int = 200_000,
) -> RefinementScript | None:
    """Exhaustively search for a script deriving refined from base.

    Depth-first over the candidate enumeration, deterministic first witness.
    At each state the bound ``_steps_needed`` is checked once per group of
    ``_candidate_groups``, so once per rule kind and decompose candidate,
    and a group whose bound exceeds the steps left is neither built nor
    applied.  The bound never exceeds the true number of steps, so the first
    witness is the one a search applying every candidate returns.  Every
    candidate, skipped or applied, counts toward ``node_limit``, a skipped
    group all at once; past it the search raises SearchBudgetExceededError.
    """
    nodes = 0
    facts = _Refined(refined)

    def spend(count: int) -> None:
        nonlocal nodes
        nodes += count
        if nodes > node_limit:
            raise SearchBudgetExceededError(f"brute-force search exceeded {node_limit} nodes")

    def search(current: Model, depth: int, prefix: list[Step]) -> RefinementScript | None:
        iso, _ = _match_models(current, refined)
        if iso is not None:
            return RefinementScript(tuple(prefix))
        if depth >= max_steps:
            return None
        left = max_steps - depth - 1
        for kind, delta, count, candidates in _candidate_groups(current, facts):
            if _steps_needed(kind, delta, current, refined) > left:
                spend(count)
                continue
            for step in candidates:
                spend(1)
                try:
                    nxt, _ = step.apply(current)
                except BpnError:
                    continue
                found = search(nxt, depth + 1, prefix + [step])
                if found is not None:
                    return found
        return None

    return search(base, 0, [])


__all__ = [
    "Isomorphism",
    "Verdict",
    "REFINES",
    "DOES_NOT_MATCH",
    "SCRIPT_FAILS",
    "model_isomorphic",
    "check_refinement",
    "brute_force_derivable",
]
