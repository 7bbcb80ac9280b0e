"""Greedy, piecewise dataflow execution of a model's leaf-level net.

Each channel carries one (possibly complex) document which may arrive
piecewise as labeled fragments: record-sorted ports use the record's field
names as labels, everything else uses the single label ``whole``.  Processes
are greedy: a firing rule runs as soon as every fragment it needs is
present, without waiting for complete inputs.  Produced fragments broadcast
along all outgoing channels of the producing port.

Each fragment a rule produces carries the tag of the labels the rule
consumed, such as ``(a+b)``, computed once per rule.  An environment
fragment's payload text is read and checked, but never shown, and a rule's
``using NAME`` is carried through the model but does not change simulation.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .core import (
    WHOLE,
    FiringRule,
    Model,
    PortId,
    ProcessId,
    ProcessNet,
    RecordSort,
    port_by_name,
)
from .errors import InvalidEnvFragmentError, NonDeterministicRulesError, SimError

# --- fragments ----------------------------------------------------------------


@dataclass(frozen=True)
class AtomicValue:
    text: str


@dataclass(frozen=True)
class Fragment:
    port: PortId
    label: str
    payload: AtomicValue


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
    # per rule, ranked by (process name, pid, rule index): its trace entry
    # (pid, rule index), its produced (port, label) pairs in order, and the
    # payload they carry, the tag of the labels it needs
    rules: list[tuple[tuple[ProcessId, int], list[tuple[PortId, str]], AtomicValue]]
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
    rules, missing = [], []
    waiting: dict[tuple[PortId, str], list[int]] = {}
    for position, (_, pid, index, rule) in enumerate(entries):
        tag = "+".join(sorted([label for _, label in rule.needs]))
        rules.append(((pid, index), sorted(rule.produces), AtomicValue(f"({tag})")))
        needs = set(rule.needs)
        missing.append(len(needs))
        for need in needs:
            waiting.setdefault(need, []).append(position)
    return _Plan(model, flat, outgoing, rules, missing, waiting)


def _checked_env(plan: _Plan, env: Iterable[Fragment]) -> list[Fragment]:
    env = list(env)
    labels_by_port: dict[PortId, set[str]] = {}
    for frag in env:
        port = plan.model.ports.get(frag.port)
        if port is None or frag.port not in plan.flat.env_inputs:
            raise InvalidEnvFragmentError(
                f"{frag.port!r} is not an environment input of the flattened net"
            )
        # a port takes ``whole``, and a record-sorted one its field names
        fields = port.sort.field_names() if isinstance(port.sort, RecordSort) else ()
        if frag.label != WHOLE and frag.label not in fields:
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
    rules, waiting, outgoing = plan.rules, plan.waiting, plan.outgoing
    env_outputs = plan.flat.env_outputs
    missing = list(plan.missing)
    ready = [position for position, count in enumerate(missing) if count == 0]
    delivered: set[tuple[PortId, str]] = set()
    outputs: set[Fragment] = set()
    trace: list[tuple[ProcessId, int]] = []

    def deliver(need: tuple[PortId, str]) -> None:
        if need in delivered:
            # only fan-in or a rule producing one pair twice can get here
            raise SimError(f"second fragment {need[1]!r} on {need[0]!r}")
        delivered.add(need)
        for position in waiting.get(need, ()):
            missing[position] -= 1
            if missing[position] == 0:
                insort(ready, position)

    for frag in env:
        deliver((frag.port, frag.label))

    while ready:
        position = ready.pop(0 if rng is None else rng.randrange(len(ready)))
        fired, produces, payload = rules[position]
        trace.append(fired)
        for port_id, label in produces:
            if port_id in env_outputs:
                outputs.add(Fragment(port_id, label, payload))
            for dest in outgoing.get(port_id, ()):
                deliver((dest, label))

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
        lines.append((name, frag.label, frag.payload.text))
    return "\n".join(f"{n} {lab} = {text}" for n, lab, text in sorted(lines))


__all__ = [
    "AtomicValue",
    "Fragment",
    "FiringRule",
    "flatten",
    "flatten_with_boundary",
    "simulate_greedy",
    "check_confluence",
    "parse_env_text",
    "prepare_env",
    "format_outputs",
]
