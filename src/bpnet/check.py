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
from typing import Iterator

from . import core
from .core import Model, PortId, ProcessId, RecordSort, SortNameRef
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

    def match_ports(ida: ProcessId, idb: ProcessId) -> str | None:
        pa, pb = a.processes[ida], b.processes[idb]
        for side in ("inputs", "outputs"):
            ports_a, ports_b = getattr(pa, side), getattr(pb, side)
            if len(ports_a) != len(ports_b):
                return f"process {pa.name!r}: different number of {side}"
            by_name_a = {a.ports[p].name: p for p in ports_a}
            by_name_b = {b.ports[p].name: p for p in ports_b}
            if len(by_name_a) != len(ports_a) or len(by_name_b) != len(ports_b):
                return f"process {pa.name!r}: duplicate or dangling port names"
            if set(by_name_a) != set(by_name_b):
                return f"process {pa.name!r}: port names differ"
            for name in sorted(by_name_a):
                qa, qb = by_name_a[name], by_name_b[name]
                if a.ports[qa].sort != b.ports[qb].sort:
                    return f"port {name!r} of {pa.name!r}: sorts differ"
                port_map[qa] = qb
        return None

    def match_rules(ida: ProcessId, idb: ProcessId) -> str | None:
        pa, pb = a.processes[ida], b.processes[idb]
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
        pa, pb = a.processes.get(ida), b.processes.get(idb)
        if pa is None or pb is None:
            return "dangling process reference"
        if pa.name != pb.name:
            return f"process names differ: {pa.name!r} vs {pb.name!r}"
        proc_map[ida] = idb
        err = match_ports(ida, idb)
        if err:
            return err
        in_a, in_b = ida in a.nets, idb in b.nets
        if in_a != in_b:
            return f"process {pa.name!r} is decomposed in only one model"
        if in_a:
            # the glass box is authoritative: black-box notes and firing
            # rules of a decomposed process are abstraction residue
            return match_net(ida, idb)
        if pa.behavior_note != pb.behavior_note:
            return f"process {pa.name!r}: behavior notes differ"
        return match_rules(ida, idb)

    def match_net(ida: ProcessId, idb: ProcessId) -> str | None:
        net_a, bind_a = a.nets[ida]
        net_b, bind_b = b.nets[idb]
        name = a.processes[ida].name
        if len(net_a.processes) != len(net_b.processes):
            return f"net of {name!r}: different number of members"
        by_name_a = {
            a.processes[m].name: m for m in net_a.processes if m in a.processes
        }
        by_name_b = {
            b.processes[m].name: m for m in net_b.processes if m in b.processes
        }
        if len(by_name_a) != len(net_a.processes) or len(by_name_b) != len(net_b.processes):
            return f"net of {name!r}: duplicate or dangling member names"
        if set(by_name_a) != set(by_name_b):
            return f"net of {name!r}: member names differ"
        for member in sorted(by_name_a):
            err = match_process(by_name_a[member], by_name_b[member])
            if err:
                return err
        mapped_channels = {
            (port_map.get(ch.source), port_map.get(ch.dest)) for ch in net_a.channels
        }
        if mapped_channels != {(ch.source, ch.dest) for ch in net_b.channels}:
            return f"net of {name!r}: channels differ"
        if {port_map.get(p) for p in net_a.env_inputs} != set(net_b.env_inputs):
            return f"net of {name!r}: environment inputs differ"
        if {port_map.get(p) for p in net_a.env_outputs} != set(net_b.env_outputs):
            return f"net of {name!r}: environment outputs differ"
        mapped_binding = {
            (port_map.get(pp), port_map.get(ip)) for pp, ip in bind_a.pairs
        }
        if mapped_binding != set(bind_b.pairs):
            return f"net of {name!r}: interface bindings differ"
        return None

    err = match_process(a.root, b.root)
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
        err = match_process(by_name_a[name], by_name_b[name])
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


def _twin(refined: Model, path: tuple[str, ...]) -> ProcessId | None:
    try:
        return core.resolve_path(refined, path)
    except BpnError:
        return None


def _ports_by_name(model: Model, pid: ProcessId) -> dict[str, PortId]:
    return {model.ports[p].name: p for p in model.processes[pid].ports()}


def _candidate_steps(current: Model, refined: Model) -> Iterator[Step]:
    """Deterministic enumeration of plausible single rule applications.

    Parameters are drawn from the two models' names and sorts: fresh names
    come from the refined model's vocabulary at the corresponding position.
    """
    located = core.container_index(current)
    paths = {
        pid: core.display_path(current, pid)
        for pid in current.processes
        if pid == current.root or pid in located
    }
    sort_names = sorted(current.sort_table)

    # assign-sort over unsorted ports
    for pid in sorted(paths):
        path = paths[pid]
        proc = current.processes[pid]
        for port_id in sorted(proc.ports()):
            port = current.ports[port_id]
            if port.sort is not None:
                continue
            for name in sort_names:
                yield AssignSortStep(PortRef(path, port.name), SortNameRef(name))

    # each process's twin at the same path in the refined model, the ports
    # of both by name, and the names the twin has that the process lacks
    pids = sorted(paths)
    twins: dict[ProcessId, ProcessId] = {}
    for pid in pids:
        twin = _twin(refined, paths[pid])
        if twin is not None:
            twins[pid] = twin
    here = {pid: _ports_by_name(current, pid) for pid in twins}
    there = {pid: _ports_by_name(refined, twin) for pid, twin in twins.items()}
    missing = {
        pid: sorted(there[pid].keys() - here[pid].keys()) if pid in twins else []
        for pid in pids
    }

    # add-channel between processes, fresh names from the refined twin
    for src_pid in pids:
        src_names = sorted(
            {current.ports[p].name for p in current.processes[src_pid].outputs}
            | set(missing[src_pid])
        )
        for dst_pid in pids:
            if dst_pid == src_pid:
                continue
            for src_name in src_names:
                for dst_name in missing[dst_pid]:
                    yield AddChannelStep(
                        PortRef(paths[src_pid], src_name),
                        PortRef(paths[dst_pid], dst_name),
                    )

    # decompose a leaf using the refined model's subnet at the same path
    for pid in pids:
        if pid in current.nets:
            continue
        twin = twins.get(pid)
        if twin is not None and twin in refined.nets:
            yield DecomposeStep(paths[pid], net_spec(refined, twin, current._sort_names))

    # split a port that disappears in the refined twin
    for pid in twins:
        here_ports, there_names = here[pid], there[pid]
        gone = sorted(here_ports.keys() - there_names.keys())
        fresh = missing[pid]
        if len(fresh) < 2:
            continue
        for old_name in gone:
            old_port = current.ports[here_ports[old_name]]
            for k in range(2, len(fresh) + 1):
                for combo in itertools.permutations(fresh, k):
                    parts = _infer_parts(current, refined, old_port, combo, there_names)
                    if parts is not None:
                        yield SplitPortStep(PortRef(paths[pid], old_name), parts)

    # fold convex groups, names from the refined model's vocabulary
    refined_names = {p.name for p in refined.processes.values()}
    current_names = {p.name for p in current.processes.values()}
    fold_names = sorted(refined_names - current_names)
    for owner in sorted(current.nets):
        if owner not in paths:
            continue
        net, _ = current.nets[owner]
        members = sorted(
            current.processes[m].name for m in net.processes if m in current.processes
        )
        if len(members) < 2:
            continue
        for size in range(1, len(members)):
            for group in itertools.combinations(members, size):
                for new_name in fold_names:
                    yield FoldStep(paths[owner], group, new_name)

    # unfold any decomposed non-root process
    for pid in sorted(current.nets):
        if pid != current.root and pid in paths and len(paths[pid]) >= 2:
            yield UnfoldStep(paths[pid])


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


# each rule kind's change to the process count, known before it is applied
_PROCESS_DELTA = {
    DecomposeStep: lambda step: len(step.subnet.members),
    FoldStep: lambda step: 1,
    UnfoldStep: lambda step: -1,
    AddChannelStep: lambda step: 0,
    AssignSortStep: lambda step: 0,
    SplitPortStep: lambda step: 0,
}


def _steps_needed(step: Step, current: Model, refined: Model) -> int:
    """Fewest steps after ``step`` that can reach refined: only unfold lowers
    the process count, by one, so a surplus of k processes needs k steps and
    a deficit one; assign-sort keeps the port count, so if that differs from
    refined's its result needs one step more."""
    gap = len(refined.processes) - len(current.processes) - _PROCESS_DELTA[type(step)](step)
    if gap:
        return max(-gap, 1)
    return int(isinstance(step, AssignSortStep) and len(current.ports) != len(refined.ports))


def brute_force_derivable(
    base: Model,
    refined: Model,
    max_steps: int,
    node_limit: int = 200_000,
) -> RefinementScript | None:
    """Exhaustively search for a script deriving refined from base.

    Depth-first over the candidate enumeration, deterministic first witness.
    A candidate is not applied when ``_steps_needed`` exceeds the steps
    left.  That bound never exceeds the true number of steps, so it skips
    only subtrees without a witness, and the first witness is the one a
    search applying every candidate returns.  Every enumerated candidate,
    skipped or applied, counts toward ``node_limit``; past it the search
    raises SearchBudgetExceededError.
    """
    nodes = 0

    def search(current: Model, depth: int, prefix: list[Step]) -> RefinementScript | None:
        nonlocal nodes
        iso, _ = _match_models(current, refined)
        if iso is not None:
            return RefinementScript(tuple(prefix))
        if depth >= max_steps:
            return None
        for step in _candidate_steps(current, refined):
            nodes += 1
            if nodes > node_limit:
                raise SearchBudgetExceededError(
                    f"brute-force search exceeded {node_limit} nodes"
                )
            if _steps_needed(step, current, refined) > max_steps - depth - 1:
                continue
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
