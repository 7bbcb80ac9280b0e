"""Greedy, piecewise dataflow execution of a model's leaf-level net.

Each channel carries one (possibly complex) document which may arrive
piecewise as labeled fragments: record-sorted ports use the record's field
names as labels, everything else uses the single label ``whole``.  Processes
are greedy: a firing rule runs as soon as every fragment it needs is
present, without waiting for complete inputs.  Produced fragments broadcast
along all outgoing channels of the producing port.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

from .core import (
    WHOLE,
    FiringRule,
    Model,
    Port,
    PortId,
    ProcessId,
    ProcessNet,
    RecordSort,
    port_by_name,
)
from .errors import InvalidEnvFragmentError, NonDeterministicRulesError, SimError

# --- values and fragments -----------------------------------------------------


@dataclass(frozen=True)
class AtomicValue:
    text: str


@dataclass(frozen=True)
class RecordValue:
    fields: tuple[tuple[str, "Value"], ...]


@dataclass(frozen=True)
class CollectionValue:
    items: tuple["Value", ...]


Value = Union[AtomicValue, RecordValue, CollectionValue]


def render_value(value: Value) -> str:
    if isinstance(value, AtomicValue):
        return value.text
    if isinstance(value, RecordValue):
        inner = ", ".join(f"{n}={render_value(v)}" for n, v in value.fields)
        return f"{{{inner}}}"
    return "[" + ", ".join(render_value(v) for v in value.items) + "]"


@dataclass(frozen=True)
class Fragment:
    port: PortId
    label: str
    payload: Value


# A compute function maps the consumed fragments to the payload for one
# produced (port, label) pair.  It must be pure and deterministic.
ComputeFn = Callable[[str, Sequence[Fragment], str, str], Value]


def _tag_compute(process_name: str, consumed: Sequence[Fragment], port_name: str, label: str) -> Value:
    # tags carry the multiset of consumed labels, so tests observe dataflow
    labels = "+".join(sorted([f.label for f in consumed]))
    return AtomicValue(f"({labels})")


COMPUTE_REGISTRY: dict[str, ComputeFn] = {"tag": _tag_compute}


# --- flattening -----------------------------------------------------------------


def flatten(model: Model) -> ProcessNet:
    """The leaf-level net of every decomposed process under the root."""
    return flatten_with_boundary(model)[0]


def flatten_with_boundary(model: Model) -> tuple[ProcessNet, Mapping[PortId, PortId]]:
    """The flat net plus the composed binding, read-only, from root ports to
    its boundary.  The tree is walked once per model (``Model._flat``)."""
    flat, boundary = model._flat
    return flat, MappingProxyType(boundary)


# --- greedy execution --------------------------------------------------------------


def _valid_labels(port: Port) -> set[str]:
    """Labels deliverable on a port: ``whole``, plus record field names."""
    if isinstance(port.sort, RecordSort):
        return {WHOLE} | set(port.sort.field_names())
    return {WHOLE}


def _check_rule_determinism(model: Model, members: Iterable[ProcessId]) -> None:
    for pid in sorted(members):
        seen: dict[tuple[PortId, str], int] = {}
        for index, rule in enumerate(model.processes[pid].firing_rules):
            for pair in rule.produces:
                if seen.setdefault(pair, index) != index:
                    raise NonDeterministicRulesError(
                        f"process {pid!r}: rules {seen[pair]} and {index} both "
                        f"produce {pair!r}"
                    )


class _Plan(NamedTuple):
    """A flat net indexed for firing: built once, run under any number of orders."""

    model: Model
    flat: ProcessNet
    outgoing: dict[PortId, list[PortId]]
    # (process name, pid, rule index, rule), sorted: a rule's position is its rank
    entries: list[tuple[str, ProcessId, int, FiringRule]]
    # per position, the number of distinct (port, label) needs
    missing: list[int]
    # (port, label) -> positions of the rules that need it
    waiting: dict[tuple[PortId, str], list[int]]


def _plan(model: Model) -> _Plan:
    flat, _ = flatten_with_boundary(model)
    members = sorted(flat.processes)
    _check_rule_determinism(model, members)

    outgoing: dict[PortId, list[PortId]] = {}
    for ch in flat.channels:
        outgoing.setdefault(ch.source, []).append(ch.dest)
    for dests in outgoing.values():
        dests.sort()

    # (pid, index) is unique, so sorting never compares two rules
    entries = sorted(
        (model.processes[pid].name, pid, index, rule)
        for pid in members
        for index, rule in enumerate(model.processes[pid].firing_rules)
    )
    missing = []
    waiting: dict[tuple[PortId, str], list[int]] = {}
    for position, entry in enumerate(entries):
        needs = set(entry[3].needs)
        missing.append(len(needs))
        for need in needs:
            waiting.setdefault(need, []).append(position)
    return _Plan(model, flat, outgoing, entries, missing, waiting)


def _checked_env(plan: _Plan, env: Iterable[Fragment]) -> list[Fragment]:
    env = list(env)
    labels_by_port: dict[PortId, set[str]] = {}
    for frag in env:
        port = plan.model.ports.get(frag.port)
        if port is None or frag.port not in plan.flat.env_inputs:
            raise InvalidEnvFragmentError(
                f"{frag.port!r} is not an environment input of the flattened net"
            )
        if frag.label not in _valid_labels(port):
            raise InvalidEnvFragmentError(
                f"label {frag.label!r} is not valid for port {frag.port!r}"
            )
        labels = labels_by_port.setdefault(frag.port, set())
        if frag.label in labels:
            raise InvalidEnvFragmentError(
                f"duplicate fragment {frag.label!r} on port {frag.port!r}"
            )
        labels.add(frag.label)
    for port_id, labels in labels_by_port.items():
        if WHOLE in labels and len(labels) > 1:
            raise InvalidEnvFragmentError(
                f"port {port_id!r} receives 'whole' alongside other fragments"
            )
    return env


def _run(
    plan: _Plan, env: list[Fragment], rng: random.Random | None
) -> tuple[frozenset[Fragment], list[tuple[ProcessId, int]]]:
    entries, waiting, outgoing = plan.entries, plan.waiting, plan.outgoing
    ports, env_outputs, registry = plan.model.ports, plan.flat.env_outputs, COMPUTE_REGISTRY
    missing = list(plan.missing)
    ready = [position for position, count in enumerate(missing) if count == 0]
    delivered: dict[tuple[PortId, str], Value] = {}
    outputs: set[Fragment] = set()
    trace: list[tuple[ProcessId, int]] = []

    def deliver(port_id: PortId, label: str, payload: Value) -> None:
        need = (port_id, label)
        if need in delivered:
            # only fan-in or a rule producing one pair twice can get here
            raise SimError(f"second fragment {label!r} on {port_id!r}")
        delivered[need] = payload
        for position in waiting.get(need, ()):
            missing[position] -= 1
            if missing[position] == 0:
                insort(ready, position)

    for frag in env:
        deliver(frag.port, frag.label, frag.payload)

    while ready:
        position = ready.pop(0 if rng is None else rng.randrange(len(ready)))
        name, pid, index, rule = entries[position]
        trace.append((pid, index))
        consumed = [
            Fragment(port_id, label, delivered[port_id, label])
            for port_id, label in sorted(rule.needs)
        ]
        compute = registry.get(rule.compute, _tag_compute)
        for port_id, label in sorted(rule.produces):
            payload = compute(name, consumed, ports[port_id].name, label)
            if port_id in env_outputs:
                outputs.add(Fragment(port_id, label, payload))
            for dest in outgoing.get(port_id, ()):
                deliver(dest, label, payload)

    return frozenset(outputs), trace


def simulate_greedy(
    model: Model,
    env: Iterable[Fragment],
    rng: random.Random | None = None,
) -> tuple[frozenset[Fragment], list[tuple[ProcessId, int]]]:
    """Run firing rules to fixpoint; return the environment-visible outputs and
    the firing trace as (process id, rule index) pairs.

    The rules that are ready and not yet fired form one list ordered by
    (process name, process id, rule index).  With ``rng`` None the first rule
    of that list fires next; otherwise the rule at ``rng.randrange(len(ready))``
    fires, one ``randrange`` call per firing (used by the confluence check).
    Each delivered fragment decrements the missing-need count of the rules
    waiting for it, so a run costs time linear in rules plus deliveries, apart
    from keeping the ready list sorted.  Terminates because each rule fires at
    most once.
    """
    plan = _plan(model)
    return _run(plan, _checked_env(plan, env), rng)


def check_confluence(
    model: Model, env: Iterable[Fragment], trials: int, seed: int
) -> bool:
    """True iff randomized firing orders all produce the same final outputs.

    The net is flattened and indexed, and ``env`` checked, once for all
    ``trials + 1`` runs.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    plan = _plan(model)
    env = _checked_env(plan, env)
    baseline, _ = _run(plan, env, None)
    for trial in range(trials):
        outputs, _ = _run(plan, env, random.Random(f"{seed}:{trial}"))
        if outputs != baseline:
            return False
    return True


# --- environment file format -----------------------------------------------------


def parse_env_text(text: str) -> list[tuple[str, str, str]]:
    """Lines of ``port-name label = payload-text`` into (port, label, payload)."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, payload = line.partition("=")
        words = head.split()
        if not sep or len(words) != 2:
            raise InvalidEnvFragmentError(
                f"line {lineno}: expected 'port-name label = payload-text'"
            )
        entries.append((words[0], words[1], payload.strip()))
    return entries


def prepare_env(model: Model, entries: Iterable[tuple[str, str, str]]) -> list[Fragment]:
    """Resolve root-interface port names to flat boundary fragments."""
    _, boundary = flatten_with_boundary(model)
    fragments = []
    for name, label, payload in entries:
        root_port = port_by_name(model, model.root, name)
        if root_port not in boundary or root_port not in model.processes[model.root].inputs:
            raise InvalidEnvFragmentError(f"{name!r} is not an input port of the root process")
        fragments.append(Fragment(boundary[root_port], label, AtomicValue(payload)))
    return fragments


def format_outputs(model: Model, outputs: Iterable[Fragment]) -> str:
    """Output fragments as env-format lines, named by the root interface."""
    _, boundary = flatten_with_boundary(model)
    back = {flat: root for root, flat in boundary.items()}
    lines = []
    for frag in outputs:
        root_port = back.get(frag.port, frag.port)
        port = model.ports.get(root_port)
        name = port.name if port is not None else root_port
        lines.append((name, frag.label, render_value(frag.payload)))
    return "\n".join(f"{n} {lab} = {text}" for n, lab, text in sorted(lines))


__all__ = [
    "AtomicValue",
    "RecordValue",
    "CollectionValue",
    "Value",
    "Fragment",
    "FiringRule",
    "COMPUTE_REGISTRY",
    "flatten",
    "flatten_with_boundary",
    "simulate_greedy",
    "check_confluence",
    "parse_env_text",
    "prepare_env",
    "format_outputs",
    "render_value",
]
