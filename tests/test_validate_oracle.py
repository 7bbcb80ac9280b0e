"""``validate_model`` and ``validate_scope`` against the validator they
replaced, and ``validate_change`` against a full-scope check, on a corpus
of models with one corruption each and on the results rules build."""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from bpnet import refine, textio
from bpnet.core import (
    INPUT,
    OUTPUT,
    WHOLE,
    AtomicSort,
    Channel,
    FiringRule,
    InterfaceBinding,
    Model,
    ProcessNet,
    RecordSort,
    validate_change,
    validate_model,
    validate_scope,
)

from conftest import load_model
from genmodels import gen_model, propose_step, rename_ids
from reference_validate import reference_validate_model

FIXTURES = ["bp.bpn", "bp_fig6.bpn", "bp_refined.bpn", "library.bpn", "library_refined.bpn"]

# The only line the old validator printed that the new one leaves out: it
# reported an undefined net member from the containment check as well.
DROPPED = ": net contains an undefined process"

BAD_RECORD = RecordSort((("a", AtomicSort("A")), ("a", AtomicSort("A"))))


def _with_port(model: Model, port_id, **changes) -> Model:
    """``model`` with the port changed where its holder holds it."""
    holder = model.processes[model.port_owners[port_id]]
    interface = tuple(
        dataclasses.replace(p, **changes) if p.id == port_id else p for p in holder.interface
    )
    return _with_process(model, holder.id, interface=interface)


def _with_process(model: Model, pid, **changes) -> Model:
    processes = dict(model.processes)
    processes[pid] = dataclasses.replace(processes[pid], **changes)
    return dataclasses.replace(model, processes=processes)


def _with_net(model: Model, owner, **changes) -> Model:
    nets = dict(model.nets)
    net, binding = nets[owner]
    binding = changes.pop("binding", binding)
    nets[owner] = (dataclasses.replace(net, **changes), binding)
    return dataclasses.replace(model, nets=nets)


def corruptions(model: Model, rng: random.Random):
    """(kind, model) pairs: each applies one corruption to ``model``."""
    ports = sorted(model.ports)
    procs = sorted(model.processes)
    owners = sorted(model.nets)
    pick = rng.choice

    port = model.ports[pick(ports)]
    holder = model.processes[model.port_owners[port.id]]
    yield "dropped-port", _with_process(
        model, holder.id, interface=tuple(p for p in holder.interface if p.id != port.id)
    )
    others = [p for p in procs if p != holder.id]
    if others:
        lister = pick(others)
        yield "listed-twice", _with_process(
            model, lister, interface=model.processes[lister].interface + (port,)
        )
    flipped = OUTPUT if port.direction == INPUT else INPUT
    yield "wrong-direction", _with_port(model, port.id, direction=flipped)
    yield "malformed-port-sort", _with_port(model, port.id, sort=BAD_RECORD)
    yield "malformed-table-sort", dataclasses.replace(
        model, sort_table={**model.sort_table, "Bad": BAD_RECORD}
    )

    multi = [p for p in procs if len(model.processes[p].ports()) >= 2]
    if multi:
        proc = model.processes[pick(multi)]
        first, second = proc.ports()[:2]
        yield "duplicate-port-name", _with_port(
            model, second, name=model.ports[first].name
        )

    ruled = [p for p in procs if any(r.needs for r in model.processes[p].firing_rules)]
    if ruled:
        proc = model.processes[pick(ruled)]
        rule = next(r for r in proc.firing_rules if r.needs)
        needs = ((rule.needs[0][0], "no_such_field"),) + rule.needs[1:]
        rules = tuple(
            dataclasses.replace(r, needs=needs) if r is rule else r
            for r in proc.firing_rules
        )
        yield "rule-label-not-a-field", _with_process(model, proc.id, firing_rules=rules)

    if not owners:
        return
    owner = pick(owners)
    net, binding = model.nets[owner]
    members = sorted(net.processes)
    if len(members) >= 2:
        yield "duplicate-member-name", _with_process(
            model, members[1], name=model.processes[members[0]].name
        )
    loopers = [
        m for m in members if model.processes[m].inputs and model.processes[m].outputs
    ]
    if loopers:
        proc = model.processes[pick(loopers)]
        loop = Channel(proc.outputs[0], proc.inputs[0])
        yield "self-loop", _with_net(model, owner, channels=net.channels | {loop})
    if net.channels:
        driven = pick(sorted(net.channels, key=lambda c: (c.source, c.dest)))
        sources = [
            p
            for m in members
            for p in model.processes[m].outputs
            if p != driven.source
            and model.port_owners[p] != model.port_owners[driven.dest]
        ]
        if sources:
            extra = Channel(pick(sources), driven.dest)
            yield "second-driver", _with_net(model, owner, channels=net.channels | {extra})
    if binding.pairs:
        unbound = pick(binding.pairs)
        kept = tuple(pair for pair in binding.pairs if pair != unbound)
        yield "unbound-boundary-port", _with_net(
            model, owner, binding=InterfaceBinding(kept)
        )
    yield "undefined-member", _with_net(
        model, owner, processes=net.processes | {"ghost"}
    )
    elsewhere = [o for o in owners if o != owner]
    if elsewhere:
        stray = pick(members)
        other = pick(elsewhere)
        yield "process-in-two-nets", _with_net(
            model, other, processes=model.nets[other][0].processes | {stray}
        )
    victim = pick(members)
    yield "dropped-process", dataclasses.replace(
        model, processes={p: q for p, q in model.processes.items() if p != victim}
    )


def corpus():
    bases = [(name, load_model(name)) for name in FIXTURES]
    for seed in range(24):
        model = gen_model(seed, 1 + seed % 3, 3 + seed % 4)
        bases.append((f"gen{seed}", rename_ids(model) if seed % 2 else model))
    for label, model in bases:
        rng = random.Random(label)
        for kind, bad in corruptions(model, rng):
            yield f"{label}:{kind}", kind, model, bad


@pytest.fixture(scope="module")
def cases():
    return list(corpus())


def lines(violations) -> Counter:
    return Counter(str(v) for v in violations)


def reference_lines(model: Model) -> Counter:
    """The reference validator's lines, less the one it alone reports."""
    return Counter(
        {k: n for k, n in lines(reference_validate_model(model)).items() if not k.endswith(DROPPED)}
    )


@pytest.fixture(scope="module")
def walks():
    """What 30 random walks of 30 steps build: each rule result, accepted or
    rejected, with the model the rule ran on, and the models walked through."""
    built: list[tuple[Model, Model, str]] = []
    visited: list[Model] = []
    original = refine._validated

    def recorded(before, after, context):
        built.append((before, after, context))
        return original(before, after, context)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(refine, "_validated", recorded)
        for seed in range(30):
            model = gen_model(seed, max_depth=3, max_members=6)
            rng = random.Random(seed)
            for _ in range(30):
                model, _ = propose_step(model, rng)
                visited.append(model)
    return built, visited


class TestAgainstReferenceValidator:
    def test_corpus_covers_every_corruption(self, cases):
        kinds = Counter(kind for _, kind, _, _ in cases)
        assert len(cases) == 381
        assert len(kinds) == 14, kinds
        assert min(kinds.values()) >= 10, kinds

    def test_same_violations_as_the_reference(self, cases):
        for label, _, _, model in cases:
            expected = reference_lines(model)
            assert expected, f"{label}: the corruption went unnoticed"
            assert lines(validate_model(model)) == expected, label

    def test_scope_reports_a_part_of_the_model_report(self, cases):
        for label, _, _, model in cases:
            full = lines(validate_model(model))
            for owner in model.nets:
                part = lines(validate_scope(model, owners=[owner]))
                assert not part - full, (label, owner)
            for pid in model.processes:
                part = lines(validate_scope(model, processes=[pid]))
                assert not part - full, (label, pid)

    def test_change_scope_finds_what_the_full_scope_finds(self, cases):
        """Each corruption is a change to a well-formed base, so the scope
        ``validate_change`` derives from it reports every per-process and
        per-net violation of the corrupted model, in the same order."""
        for label, _, base, bad in cases:
            assert not validate_model(base), label
            assert validate_change(base, bad) == validate_scope(
                bad, bad.nets, bad.processes
            ), label


def test_change_scope_on_rule_results(walks):
    """Every result a rule builds during random walks, accepted or not, gets
    the same report from ``validate_change`` as from a full-scope check."""
    built, visited = walks
    rejected = 0
    for before, after, context in built:
        change = validate_change(before, after)
        assert change == validate_scope(after, after.nets, after.processes), context
        rejected += bool(change)
    assert len(built) > 1500 and rejected > 500, (len(built), rejected)
    assert not any(map(validate_model, visited))


def test_same_violations_as_the_reference_on_walk_models(walks):
    """The reference agrees on every rule result of the walks, accepted or
    rejected, and on each walked model with one corruption."""
    built, visited = walks
    for _, after, context in built:
        assert lines(validate_model(after)) == reference_lines(after), context
    kinds: Counter = Counter()
    for k, model in enumerate(visited):
        rng = random.Random(k)
        kind, bad = rng.choice(list(corruptions(model, rng)))
        kinds[kind] += 1
        expected = reference_lines(bad)
        assert expected, (k, kind)
        assert lines(validate_model(bad)) == expected, (k, kind)
    assert len(kinds) == 14, kinds


def test_undefined_member_is_reported_once():
    model = textio.parse_model(
        """
        process system { in req }
        net for system {
          process a { in i }
          input a.i binds system.req
        }
        """
    )
    net, binding = model.nets["system"]
    nets = {"system": (ProcessNet(net.processes | {"ghost"}, net.channels,
                                  net.env_inputs, net.env_outputs), binding)}
    bad = dataclasses.replace(model, nets=nets)
    about_ghost = [str(v) for v in validate_model(bad) if "ghost" in v.location]
    assert about_ghost == ["DanglingRef system,ghost: net member is undefined"]


def test_a_process_in_two_nets_has_the_least_owner_as_parent():
    """The containment walk follows the least owner listing a process,
    whatever order the net table holds its entries in."""
    model = textio.parse_model(
        """
        process system { }
        net for system { process a { } }
        net for system.a { process b { } }
        net for system.a.b { process c { } }
        """
    )
    bad = _with_net(model, "system.a.b", processes=frozenset({"system.a.b.c", "system.a"}))
    for nets in (bad.nets, dict(reversed(list(bad.nets.items())))):
        bad = dataclasses.replace(bad, nets=nets)
        assert lines(validate_model(bad)) == reference_lines(bad)
        assert [v.message for v in validate_model(bad)] == ["process contained in more than one net"]


def test_whole_reference_to_an_unlisted_port_is_dangling():
    model = load_model("library.bpn")
    pid = "system.retrieve_book"
    proc = model.processes[pid]
    rule = FiringRule(needs=((proc.outputs[0], WHOLE),), produces=((proc.inputs[0], WHOLE),))
    bad = _with_process(model, pid, firing_rules=proc.firing_rules + (rule,))
    assert lines(validate_model(bad)) == reference_lines(bad)
    assert [v.message.split(",")[1] for v in validate_model(bad)] == [
        " which is not an input port of the process",
        " which is not an output port of the process",
    ]


def test_a_port_listed_twice_by_one_process_names_it_twice():
    model = load_model("library.bpn")
    pid = "system.retrieve_book"
    proc = model.processes[pid]
    first = next(p for p in proc.interface if p.id == proc.inputs[0])
    bad = _with_process(model, pid, interface=proc.interface + (first,))
    assert lines(validate_model(bad)) == reference_lines(bad)
    clash = f"PortClash {proc.inputs[0]},{pid},{pid}: "
    assert clash + "port listed by more than one process interface entry" in lines(
        validate_model(bad)
    )


def test_validate_model_orders_whole_model_then_processes_then_nets():
    model = load_model("library_refined.bpn")
    net, _ = model.nets["system"]
    member = sorted(net.processes)[0]
    proc = model.processes[member]
    rule = FiringRule(needs=(("nowhere", WHOLE),), produces=())
    bad = _with_process(model, member, firing_rules=proc.firing_rules + (rule,))
    bad = _with_net(bad, "system", processes=net.processes | {"ghost"})
    orphan = dataclasses.replace(proc, id="orphan", interface=(), firing_rules=())
    bad = dataclasses.replace(bad, processes={**bad.processes, "orphan": orphan})
    messages = [v.message for v in validate_model(bad)]
    assert messages.index("process is not contained in any net") < messages.index(
        "firing rule needs 'nowhere', which is not an input port of the process"
    ) < messages.index("net member is undefined")


def test_a_malformed_sort_held_twice_is_reported_once():
    """A port id two processes hold has its malformed sort reported once,
    by its owner, as the reference reports it: once per id."""
    model = textio.parse_model(
        """
        sort T
        process system { }
        net for system { process a { out x } process b { in y } }
        """
    )
    twice = RecordSort((("f", AtomicSort("T")), ("f", AtomicSort("T"))))
    bad = _with_port(model, "system.a:x", sort=twice)
    port = bad.ports["system.a:x"]
    held = bad.processes["system.b"].interface + (port,)
    bad = _with_process(bad, "system.b", interface=held)
    found = lines(validate_model(bad))
    assert found["SortMismatch system.a:x: malformed port sort: record field 'f' duplicated"] == 1
    assert found == reference_lines(bad)
