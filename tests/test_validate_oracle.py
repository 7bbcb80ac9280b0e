"""``validate_model`` and ``validate_scope`` against the validator they
replaced, and ``validate_change`` against a full-scope check, on a corpus
of models with one corruption each and on the results rules build.  Models
share their nets, so each model is also checked warm, after a model sharing
its nets, against the same model with every net rebuilt.  A clean rule
result of a clean parent carries its findings, so each such result is
checked against a copy validated in full."""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
import time
from collections import ChainMap, Counter
from pathlib import Path

import pytest

from bpnet import core, refine, textio
from bpnet.core import (
    INPUT,
    OUTPUT,
    WHOLE,
    AtomicSort,
    Channel,
    FiringRule,
    InterfaceBinding,
    Model,
    Port,
    ProcessNet,
    RecordSort,
    validate_change,
    validate_model,
    validate_scope,
)

from bpnet.errors import BpnError, WouldBeIllFormedError

from conftest import load_model, load_script, one_holder_one_listing
from genmodels import gen_model, one_step_pairs, propose_step, rename_ids
from reference_search import candidate_steps
from reference_validate import reference_validate_model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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


def as_edit(before: Model, after: Model) -> Model:
    """``after`` built afresh by ``core.edit`` from ``before``, as a rule
    builds its result: each process and net entry ``after`` added, replaced
    or removed, by identity, is passed in.  ``edit`` keeps the sort table,
    so a different one is set on the result afterwards: such a change
    must not have its findings settled clean."""
    entries = []
    for old, new in ((before.processes, after.processes), (before.nets, after.nets)):
        changed = {key: value for key, value in new.items() if old.get(key) is not value}
        changed.update(dict.fromkeys(old.keys() - new.keys()))
        entries.append(changed)
    result = core.edit(before, *entries)
    if after.sort_table is not before.sort_table:
        object.__setattr__(result, "sort_table", after.sort_table)
    return result


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


class CarryChecker:
    """Stands in for ``core.edit``: after each call, each table the call
    stored in the result is compared with a fresh build of it."""

    def __init__(self) -> None:
        self.edit = core.edit
        self.carried: Counter = Counter()
        self.wrong: list[tuple[str, Model]] = []

    def __call__(self, model: Model, *entries) -> Model:
        after = self.edit(model, *entries)
        for name in TABLES:
            if name in after.__dict__:
                self.carried[name] += 1
                if not same_table(after.__dict__[name], getattr(Model, name).func(after)):
                    self.wrong.append((name, after))
            else:
                self.carried[name + " built"] += 1
        return after


TABLES = ("_interfaces", "_containers")


def same_table(carried, fresh) -> bool:
    """Equal entries, of the same types, in whatever order."""
    if isinstance(fresh, tuple):
        return len(carried) == len(fresh) and all(map(same_table, carried, fresh))
    return type(carried) is type(fresh) and carried == fresh


@pytest.fixture(scope="module")
def walks():
    """What 30 random walks of 30 steps build: each rule result, accepted or
    rejected, with the model the rule ran on, and the models walked through;
    and the ``CarryChecker`` that saw each result's tables carried."""
    built: list[tuple[Model, Model, str]] = []
    visited: list[Model] = []
    original = refine._validated
    checker = CarryChecker()

    def recorded(before, after, context):
        built.append((before, after, context))
        return original(before, after, context)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(refine, "_validated", recorded)
        patch.setattr(core, "edit", checker)
        for seed in range(30):
            model = gen_model(seed, max_depth=3, max_members=6)
            rng = random.Random(seed)
            for _ in range(30):
                model, _ = propose_step(model, rng)
                visited.append(model)
    return built, visited, checker


def cold(model: Model) -> Model:
    """``model`` with every net rebuilt, so that it shares no net."""
    nets = {
        owner: (dataclasses.replace(net), binding) for owner, (net, binding) in model.nets.items()
    }
    return dataclasses.replace(model, nets=nets)


def assert_warm_is_cold(model: Model, label) -> None:
    """``model``'s report, on a copy that has stored no findings and on
    ``model``, equals the reference's lines and, as an ordered list, the
    report on ``cold(model)``."""
    warm = validate_model(dataclasses.replace(model))
    assert lines(warm) == reference_lines(model), label
    assert validate_model(model) == warm == validate_model(cold(model)), label


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
        """Where a model holds each port id once and lists each process once,
        each scope reports a part of its report.  Where not, the report is
        the whole-model checks alone, and a scope's checks read a port owner
        or a parent that one of several holders or listers gave."""
        repeats: Counter = Counter()
        for label, kind, _, model in cases:
            if not one_holder_one_listing(model):
                repeats[kind] += 1
                continue
            full = lines(validate_model(model))
            for owner in model.nets:
                part = lines(validate_scope(model, owners=[owner]))
                assert not part - full, (label, owner)
            for pid in model.processes:
                part = lines(validate_scope(model, processes=[pid]))
                assert not part - full, (label, pid)
        assert repeats.keys() == {"listed-twice", "process-in-two-nets"}, repeats

    def test_change_scope_finds_what_the_full_scope_finds(self, cases):
        """Each corruption is a change to a well-formed base, so the scope
        ``validate_change`` derives from it reports every per-process and
        per-net violation of the corrupted model, in the same order.  A
        corruption that holds a port id twice or lists a process twice has
        its repeat reported by ``validate_model`` on the edit, and one that
        replaces the sort table is validated in full by ``validate_change``."""
        for label, _, base, bad in cases:
            assert not validate_model(base), label
            after = as_edit(base, bad)
            change = validate_change(base, after)
            if bad.sort_table is not base.sort_table:
                assert lines(change) == reference_lines(bad), label
            elif one_holder_one_listing(bad):
                assert change == validate_scope(bad, bad.nets, bad.processes), label
            else:
                assert lines(validate_model(after)) == reference_lines(bad), label


def test_warm_nets_report_what_cold_nets_report(cases, walks):
    """Each corrupted model is validated after the model it corrupts, whose
    nets it shares and whose checks ran on them first."""
    for label, _, base, bad in cases:
        assert not validate_model(base), label
        assert_warm_is_cold(bad, label)
    _, visited, _ = walks
    for k, model in enumerate(visited):
        assert not validate_model(model)
        rng = random.Random(k)
        kind, bad = rng.choice(list(corruptions(model, rng)))
        assert_warm_is_cold(bad, (k, kind))


class TestWarmNetInAChangedContext:
    """A net checked clean in one model is shared, unchanged, by a model
    that changes what its checks read; its checks must run again."""

    OWNER = "system"

    @pytest.fixture
    def model(self):
        model = load_model("library_refined.bpn")
        net, _ = model.nets[self.OWNER]
        views = repr(net), hash(net), dataclasses.replace(net) == net
        assert not validate_model(model)
        assert (repr(net), hash(net), dataclasses.replace(net) == net) == views
        return model

    def assert_checked_again(self, model: Model, bad: Model, message: str) -> None:
        assert bad.nets[self.OWNER][0] is model.nets[self.OWNER][0]
        scoped = validate_scope(bad, owners=[self.OWNER])
        assert message in [v.message for v in scoped]
        assert validate_scope(bad, owners=[self.OWNER]) == scoped
        assert scoped == validate_scope(cold(bad), owners=[self.OWNER])
        assert_warm_is_cold(bad, message)

    def test_a_member_loses_a_channel_port(self, model):
        pid = "system.notify_user"
        proc = model.processes[pid]
        bad = _with_process(model, pid, interface=tuple(
            p for p in proc.interface if p.id != proc.inputs[0]
        ), firing_rules=())
        self.assert_checked_again(model, bad, "channel dest is undefined")

    def test_a_second_process_holds_a_port_the_net_reads(self, model):
        """A holder in another net: the port has no one owner for the net's
        checks to read, so the report, warm and cold, is the clash alone."""
        holder = "system.retrieve_book"
        port = model.ports[model.processes[holder].outputs[0]]
        pid = "system.reserve_book.check_availability"
        bad = _with_process(model, pid, interface=model.processes[pid].interface + (port,))
        assert bad.nets[self.OWNER][0] is model.nets[self.OWNER][0]
        listers = ",".join(sorted([holder, pid]))
        message = "port listed by more than one process interface entry"
        clash = f"PortClash {port.id},{listers}: {message}"
        assert [str(v) for v in validate_model(bad)] == [clash]
        assert_warm_is_cold(bad, clash)

    def with_unbound_owner_port(self, model: Model) -> Model:
        extra = Port(f"{self.OWNER}:extra", "extra", OUTPUT)
        interface = model.processes[self.OWNER].interface + (extra,)
        return _with_process(model, self.OWNER, interface=interface)

    def test_the_owner_gains_an_unbound_port(self, model):
        self.assert_checked_again(
            model,
            self.with_unbound_owner_port(model),
            "parent port is not bound to any subnet boundary port",
        )

    def test_the_binding_is_replaced(self, model):
        net, binding = model.nets[self.OWNER]
        kept = InterfaceBinding(binding.pairs[1:])
        bad = dataclasses.replace(model, nets={**model.nets, self.OWNER: (net, kept)})
        self.assert_checked_again(
            model, bad, "parent port is not bound to any subnet boundary port"
        )

    def test_a_member_leaves_the_process_table(self, model):
        processes = {p: q for p, q in model.processes.items() if p != "system.notify_user"}
        bad = dataclasses.replace(model, processes=processes)
        self.assert_checked_again(model, bad, "net member is undefined")

    def test_threads_sharing_the_net_get_the_cold_reports(self, model):
        """Threads validating two models that share the net, clean in one
        and not in the other, each get the reports of the cold models."""
        bad = self.with_unbound_owner_port(model)
        expected = [validate_model(cold(model)), validate_model(cold(bad))]
        assert not expected[0] and expected[1]
        wrong: list = []

        def work() -> None:
            for k in range(300):
                # a copy shares the nets but has stored no findings
                if validate_model(dataclasses.replace((model, bad)[k % 2])) != expected[k % 2]:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong


def _context(model: Model, owner) -> tuple:
    net, binding = model.nets[owner]
    members = [model.processes.get(m) for m in sorted(net.processes)]
    return (net, binding, model.processes.get(owner), *members)


def _changed_contexts(before: Model, after: Model) -> list:
    """The owners of ``after``'s nets whose net, binding, owner or members
    are not the objects ``before`` has."""
    return sorted(
        owner
        for owner in after.nets
        if owner not in before.nets
        or any(a is not b for a, b in zip(_context(before, owner), _context(after, owner)))
    )


def test_a_step_and_full_validation_check_only_the_nets_it_changed(monkeypatch):
    """After a well-formed model is validated, a rule application and a
    full validation of its result run a net's checks once for each net
    whose context the rule changed, and for no other net."""
    checked = []
    body = core._net_body_violations

    def counted(model, net, at, out):
        checked.append(at)
        return body(model, net, at, out)

    monkeypatch.setattr(core, "_net_body_violations", counted)
    kinds: Counter = Counter()

    def step_checks_what_it_changed(model: Model, step) -> Model | None:
        assert not validate_model(model)
        checked.clear()
        try:
            result, _ = step.apply(model)
        except BpnError:
            return None
        assert not validate_model(result)
        changed = _changed_contexts(model, result)
        assert sorted(checked) == changed, step
        kinds[type(step).__name__] += 1
        kinds["unchanged nets"] += len(result.nets) - len(changed)
        return result

    for name, script in (("bp.bpn", "bp_refine.bps"), ("library.bpn", "library_decompose.bps")):
        model = load_model(name)
        for step in load_script(script).steps:
            model = step_checks_what_it_changed(model, step)
    for base, refined, _ in one_step_pairs(20):
        for step in candidate_steps(base, refined):
            step_checks_what_it_changed(base, step)
    assert len(kinds) == 7 and kinds["unchanged nets"] > 1000, kinds


def test_change_scope_on_rule_results(walks):
    """Every result a rule builds during random walks, accepted or not, gets
    the same report from ``validate_change`` as from a full-scope check."""
    built, visited, _ = walks
    rejected = 0
    for before, after, context in built:
        change = validate_change(before, after)
        assert change == validate_scope(after, after.nets, after.processes), context
        rejected += bool(change)
    assert len(built) > 1500 and rejected > 500, (len(built), rejected)
    assert not any(map(validate_model, visited))


def test_the_package_builds_one_holder_per_port_and_one_listing_per_process(walks):
    """The fixtures, the generated models of each shape the tests use, the
    search oracle's pairs and each model the random walks accepted hold
    each port id once and list each process once.  The parse-oracle
    corpus, criterion 3's walks and the benchmark walks check their own."""
    models = [load_model(name) for name in FIXTURES]
    for seed in range(24):
        model = gen_model(seed, 1 + seed % 3, 3 + seed % 4)
        models += [model, rename_ids(model), gen_model(seed, max_depth=3, max_members=6)]
    models += [gen_model(101, 1, 100), gen_model(105, 4, 6)]
    for base, refined, _ in one_step_pairs(20):
        models += [base, refined]
    _, visited, _ = walks
    models += visited
    assert len(models) > 900
    assert [k for k, model in enumerate(models) if not one_holder_one_listing(model)] == []


def test_same_violations_as_the_reference_on_walk_models(walks):
    """The reference agrees on every rule result of the walks, accepted or
    rejected, and on each walked model with one corruption."""
    built, visited, _ = walks
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


def test_a_process_in_two_nets_is_reported_under_either_order():
    """A process two nets list is reported by one line alone, as the
    reference reports it, whatever order the net table holds its entries
    in."""
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
        assert [str(v) for v in validate_model(bad)] == [
            "HierarchyNotTree system.a,system,system.a.b: process contained in more than one net"
        ]


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


def test_a_malformed_sort_held_twice_gives_only_the_clash():
    """A port id two processes hold is reported by its clash line; the
    per-process checks, which would report its malformed sort once per
    holder, are skipped, as the reference skips them."""
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
    assert [str(v) for v in validate_model(bad)] == [
        "PortClash system.a:x,system.a,system.b: port listed by more than one process interface entry"
    ]
    assert lines(validate_model(bad)) == reference_lines(bad)


# --- tables carried from the model a rule ran on ----------------------------------


def test_walk_results_carry_their_tables(walks):
    """Each result of the walks, and each channel candidate, has its port
    index and containment map carried from the model the rule ran on, equal
    to a fresh build of each."""
    built, _, checker = walks
    assert checker.wrong == []
    assert checker.carried["_interfaces"] >= len(built) > 1500, checker.carried
    assert checker.carried["_interfaces built"] == 0, checker.carried
    assert checker.carried["_containers"] >= len(built) - 30, checker.carried


@dataclasses.dataclass
class Criterion3Walks:
    """What ``walk_criterion_3`` saw: the seconds it took, the steps whose
    result reported a violation, each ``(seed, step, what)`` whose carried
    findings disagreed, and the table checker and ``_keeps_tree`` answers."""

    seconds: float
    violations: int
    mismatched: list
    checker: CarryChecker
    carries: Counter


def walk_criterion_3() -> Criterion3Walks:
    """Criterion 3's 200 random walks of 100 rule steps, with
    ``CarryChecker`` in place of ``core.edit`` and ``_keeps_tree``'s
    answers counted.  At each step a copy, which carries no findings, is
    validated in full; the result's carried findings must equal them, a
    second call must return a new list of them, and on every 25th step they
    must equal the reference's lines.  Each result must hold each port id
    once and list each process once."""
    t0 = time.perf_counter()
    checker = CarryChecker()
    violations = 0
    mismatched = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "edit", checker)
        answers = count_keeps(mp)
        for seed in range(200):
            model = gen_model(seed, max_depth=3, max_members=6)
            rng = random.Random(seed)
            for step in range(100):
                proposal = propose_step(model, rng)
                assert proposal is not None, "a rule is always applicable"
                model, _ = proposal
                if not one_holder_one_listing(model):
                    mismatched.append((seed, step, "repeat"))
                found = validate_model(dataclasses.replace(model))
                carried = validate_model(model)
                if carried != found:
                    mismatched.append((seed, step, "carried"))
                again = validate_model(model)
                if again != carried or again is carried:
                    mismatched.append((seed, step, "again"))
                if step % 25 == 0 and lines(found) != reference_lines(model):
                    mismatched.append((seed, step, "reference"))
                violations += bool(found)
    return Criterion3Walks(time.perf_counter() - t0, violations, mismatched, checker, answers)


def test_criterion_3_walks_carry_their_tables(criterion_3_walks):
    """Criterion 3's 200 walks of 100 steps: every carried table equals a
    fresh build, and no result builds its port index afresh.  Each result
    after a walk's first carries its findings: they equal a full
    validation's, and on every 25th step the reference's lines."""
    walks = criterion_3_walks
    assert walks.mismatched == [], walks.mismatched[:10]
    assert walks.checker.wrong == []
    assert walks.checker.carried["_interfaces"] > 20_000, walks.checker.carried
    assert walks.checker.carried["_interfaces built"] == 0, walks.checker.carried
    assert walks.carries == Counter({True: 200 * 99}), walks.carries


def test_scripts_and_search_candidates_carry_their_tables(monkeypatch):
    """Both fixture scripts, and every candidate the search accepts on 20
    criterion-8 pairs, carry tables equal to fresh builds."""
    checker = CarryChecker()
    monkeypatch.setattr(core, "edit", checker)
    accepted = 0
    for name, script in (("bp.bpn", "bp_refine.bps"), ("library.bpn", "library_decompose.bps")):
        refine.apply_script(load_model(name), load_script(script))
    for base, refined, _ in one_step_pairs(20):
        for step in candidate_steps(base, refined):
            try:
                step.apply(base)
            except BpnError:
                continue
            accepted += 1
    assert checker.wrong == []
    assert accepted > 100 and checker.carried["_interfaces"] > accepted, checker.carried


def test_replaying_a_script_builds_no_table_afresh(monkeypatch):
    """After its base is validated, replaying a fixture script builds no
    result's port index or containment map from every process and net."""
    builds: Counter = Counter()
    for name in TABLES:
        view = getattr(Model, name)

        def counted(model, func=view.func, name=name):
            builds[name] += 1
            return func(model)

        monkeypatch.setattr(view, "func", counted)
    for name, script in (("bp.bpn", "bp_refine.bps"), ("library.bpn", "library_decompose.bps")):
        base = load_model(name)
        assert not validate_model(base)
        builds.clear()
        refined, _ = refine.apply_script(base, load_script(script))
        assert not validate_model(refined)
        assert builds == Counter(), (name, builds)


def carried(before: Model, after: Model) -> tuple[set[str], Model]:
    """The tables ``core.edit`` carries from a ``before`` whose tables are
    built, building ``after`` as an edit of it, and that edit.  Each read
    of the edit's tables then equals a fresh build where the edit holds
    each port id once and lists each process once; where not, it has a
    fresh build's keys and count, which tell the repeat."""
    for name in TABLES:
        getattr(before, name)
    edited = as_edit(before, after)
    names = {name for name in TABLES if name in edited.__dict__}
    for name in TABLES:
        table, fresh = getattr(edited, name), getattr(Model, name).func(edited)
        if one_holder_one_listing(edited):
            assert same_table(table, fresh), name
        else:
            assert table[-2].keys() == fresh[-2].keys() and table[-1] == fresh[-1], name
    return names, edited


def test_corpus_corruptions_carry_or_build_their_tables(cases):
    """Each corruption of the corpus, taken as a change of its base, which
    holds each port id once and lists each process once, gets both tables
    carried."""
    kinds: Counter = Counter()
    for label, _, base, bad in cases:
        for name in carried(base, bad)[0]:
            kinds[name] += 1
    assert len(cases) > 300 and kinds == Counter(dict.fromkeys(TABLES, len(cases))), kinds


def repeats(model: Model) -> tuple[int, int]:
    """How many more ports the processes hold, and more processes the nets
    list, than the tables have keys, by the counts the tables hold."""
    (_, owners, held), (parent, listed) = model._interfaces, model._containers
    return held - len(owners), listed - len(parent)


class TestCarryFallsBack:
    """Where a port id is held twice, or a process listed by two nets, in
    the model a change starts from, that table is built in full; where only
    in its result, it is carried, and its count tells the repeat."""

    @pytest.fixture
    def model(self) -> Model:
        return load_model("library_refined.bpn")

    def with_port_held_twice(self, model: Model, pid, other) -> Model:
        port = model.ports[model.processes[other].inputs[0]]
        return _with_process(model, pid, interface=model.processes[pid].interface + (port,))

    def test_a_parent_holding_an_id_twice(self, model):
        bad = self.with_port_held_twice(model, "system.retrieve_book", "system.notify_user")
        names, after = carried(bad, _with_process(bad, "system.notify_user", behavior_note="changed"))
        assert names == {"_containers"}
        assert repeats(after) == (1, 0)

    def test_a_result_holding_an_id_twice(self, model):
        twice = self.with_port_held_twice(model, "system.retrieve_book", "system.notify_user")
        names, after = carried(model, twice)
        assert names == set(TABLES)
        assert repeats(after) == (1, 0)
        assert [v.code for v in validate_model(after)] == ["PortClash"]

    def test_a_process_holding_an_id_twice(self, model):
        pid = "system.retrieve_book"
        names, after = carried(model, self.with_port_held_twice(model, pid, pid))
        assert names == set(TABLES)
        assert repeats(after) == (1, 0)

    def test_a_parent_listing_a_process_in_two_nets(self, model):
        inner = "system.reserve_book"
        members = model.nets[inner][0].processes
        bad = _with_net(model, inner, processes=members | {"system.notify_user"})
        names, after = carried(bad, _with_net(bad, inner, processes=members))
        assert names == {"_interfaces"}
        assert after._containers[0]["system.notify_user"] == "system"

    def test_a_map_no_members_changed_in_is_shared(self, model):
        """The same owners listing the same members give the same map, but
        where a process is listed twice it is built in full."""
        names, after = carried(
            model, _with_process(model, "system.retrieve_book", behavior_note="changed")
        )
        assert names == set(TABLES)
        assert after._containers is model._containers
        inner = "system.reserve_book"
        listed = model.nets[inner][0].processes | {"system.notify_user"}
        bad = _with_net(model, inner, processes=listed)
        names, after = carried(
            bad, _with_process(bad, "system.retrieve_book", behavior_note="changed")
        )
        assert names == {"_interfaces"}
        assert after._containers is not bad._containers

    def test_a_result_listing_a_process_in_two_nets(self, model):
        inner = "system.reserve_book"
        listed = model.nets[inner][0].processes | {"system.notify_user"}
        names, after = carried(model, _with_net(model, inner, processes=listed))
        assert names == set(TABLES)
        assert repeats(after) == (0, 1)
        assert [v.code for v in validate_model(after)] == ["HierarchyNotTree"]

    def test_a_parent_without_tables_carries_none(self, model):
        after = as_edit(
            model, _with_process(model, "system.retrieve_book", behavior_note="changed")
        )
        assert not any(name in after.__dict__ for name in TABLES)

    def test_unfold_removes_a_process_and_a_net(self, model):
        # the result, its tables not yet read
        names, after = carried(model, refine.unfold(model, "system", "system.reserve_book"))
        assert "system.reserve_book" not in after.processes
        assert "system.reserve_book" not in after.nets
        assert names == set(TABLES)
        assert "system.reserve_book" not in after._containers[0]
        assert not any(p.startswith("system.reserve_book:") for p in after.ports)


class TestEdit:
    """``core.edit`` applies the entries it is given, keeps the rest of the
    model it edits, and records the keys of the entries on its result."""

    @pytest.fixture
    def model(self) -> Model:
        return load_model("library_refined.bpn")

    def test_none_removes_a_process_and_a_net(self, model):
        child = "system.reserve_book"
        after = core.edit(model, {child: None}, {child: None})
        assert after.processes.keys() == model.processes.keys() - {child}
        assert after.nets.keys() == model.nets.keys() - {child}
        assert child in model.processes and child in model.nets

    def test_the_result_keeps_the_sort_table_and_root(self, model):
        proc = dataclasses.replace(model.processes["system.notify_user"], behavior_note="x")
        after = core.edit(model, {proc.id: proc})
        assert after.sort_table is model.sort_table
        assert after.root is model.root
        assert after.processes[proc.id] is proc

    def test_the_recorded_keys_are_those_passed_in(self, model):
        proc = dataclasses.replace(model.processes["system.notify_user"], behavior_note="x")
        processes = {proc.id: proc, "system.reserve_book": None}
        nets = {"system": model.nets["system"], "system.reserve_book": None}
        after = core.edit(model, processes, nets)
        assert after.__dict__["_change"] == (tuple(processes), tuple(nets))

    def test_the_overlay_may_change_after_the_call(self, model):
        """A rule may write on in the overlay it built its result from."""
        overlay = ChainMap({}, model.processes)
        pid = "system.notify_user"
        overlay[pid] = dataclasses.replace(model.processes[pid], behavior_note="x")
        after = core.edit(model, overlay.maps[0])
        other = "system.retrieve_book"
        overlay[other] = dataclasses.replace(model.processes[other], behavior_note="y")
        assert after.__dict__["_change"] == ((pid,), ())
        assert after.processes[other] is model.processes[other]

    def test_validate_change_needs_an_edit(self, model):
        with pytest.raises(ValueError, match="core.edit"):
            validate_change(model, dataclasses.replace(model))


# --- findings carried from the model a rule ran on --------------------------------


@pytest.fixture
def carries(monkeypatch) -> Counter:
    """How often ``core._keeps_tree`` answered each way: ``True`` where a
    result's findings were carried clean without a full validation."""
    return count_keeps(monkeypatch)


def count_keeps(monkeypatch) -> Counter:
    """Replace ``core._keeps_tree`` through ``monkeypatch`` with a version
    that counts its answers in the returned ``Counter``."""
    answers: Counter = Counter()
    keeps = core._keeps_tree

    def counted(*args) -> bool:
        kept = keeps(*args)
        answers[kept] += 1
        return kept

    monkeypatch.setattr(core, "_keeps_tree", counted)
    return answers


def assert_carried_is_full(model: Model, label, reference: bool = True) -> None:
    """``model``'s report, carried or not, equals as an ordered list the
    report on a copy, which carries nothing and is validated in full, and,
    where ``reference`` is set, the reference's lines.  A second call
    returns a new list of them."""
    found = validate_model(model)
    assert found == validate_model(dataclasses.replace(model)), label
    again = validate_model(model)
    assert again == found and again is not found, label
    if reference:
        assert lines(found) == reference_lines(model), label


def test_corpus_corruptions_carry_no_findings(cases, carries):
    """Each corruption, taken as a change of its validated base, reports
    what a full validation reports.  Those whose defect the change's scope
    cannot see, a port id held twice, fall back to the full check."""
    for label, _, base, bad in cases:
        assert not validate_model(base), label
        # built afresh: another test may have stored the corruption's findings
        after = as_edit(base, bad)
        validate_change(base, after)
        assert_carried_is_full(after, label)
    assert carries[True] == 0 and carries[False] > 0, carries


def test_walk_results_carry_their_findings(walks, carries):
    """Each result of the walks, accepted or rejected, as a change of the
    validated model the rule ran on."""
    built, _, _ = walks
    accepted = 0
    for before, after, context in built:
        validate_model(before)
        after = as_edit(before, after)
        accepted += not validate_change(before, after)
        assert_carried_is_full(after, context)
    assert accepted > 800 and carries == Counter({True: accepted}), (accepted, carries)


def test_benchmark_walks_carry_their_findings(carries):
    """Walks on 100-process ``perfbench`` models, built as the rule-walk
    operations build them: a proposal applied, then the result validated.
    Each accepted result holds each port id once and lists each process
    once."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gen
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    accepted = 0
    for seed in (1601, 1602):
        for i in range(4):
            rng = random.Random(f"{seed}:walk:0:{i}")
            model = textio.parse_model(gen.model_text(gen.hier_model(rng, 100)))
            for step in range(50):
                kinds = list(workloads.PROPOSALS)
                if len(model.processes) > 150:
                    kinds.remove("decompose")
                text = None
                while text is None:
                    text = workloads.propose(model, rng, rng.choice(kinds))
                try:
                    model, _ = textio.parse_script(text).steps[0].apply(model)
                except BpnError:
                    continue
                accepted += 1
                assert one_holder_one_listing(model), (seed, i, step)
                assert_carried_is_full(model, (seed, i, step), reference=step % 5 == 0)
    assert accepted > 250 and carries == Counter({True: accepted - 8}), (accepted, carries)


def test_search_candidates_carry_their_findings(carries):
    """Every candidate the search accepts on 20 criterion-8 pairs, applied
    to its validated base."""
    accepted = 0
    for base, refined, _ in one_step_pairs(20):
        assert not validate_model(base)
        for step in candidate_steps(base, refined):
            try:
                result, _ = step.apply(base)
            except BpnError:
                continue
            accepted += 1
            assert_carried_is_full(result, step)
    assert accepted > 100 and carries == Counter({True: accepted}), (accepted, carries)


def clean_parent(text: str) -> Model:
    model = textio.parse_model(text)
    assert not validate_model(model)
    return model


TREE_TEXT = """
    process system { }
    net for system { process a { } process b { } }
    net for system.b { process c { } }
    """


# Edits of a clean parent whose change scope is clean but whose tree is not:
# each gives the parent, the edit and a line the whole-model checks report.


def member_listed_in_two_nets() -> tuple[Model, Model, str]:
    model = clean_parent(TREE_TEXT)
    after = _with_net(model, "system.b", processes=frozenset({"system.b.c", "system.a"}))
    return model, after, "process contained in more than one net"


def process_dropped_from_its_net() -> tuple[Model, Model, str]:
    model = clean_parent(TREE_TEXT)
    after = _with_net(model, "system.b", processes=frozenset())
    return model, after, "process is not contained in any net"


def containment_cycle() -> tuple[Model, Model, str]:
    # b leaves the root's net for a net of its own member c
    model = clean_parent(TREE_TEXT)
    after = _with_net(model, "system", processes=frozenset({"system.a"}))
    cycle = (ProcessNet(frozenset({"system.b"})), InterfaceBinding())
    after = dataclasses.replace(after, nets={**after.nets, "system.b.c": cycle})
    return model, after, "containment relation is cyclic"


def net_of_an_undefined_owner() -> tuple[Model, Model, str]:
    model = clean_parent(TREE_TEXT)
    empty = (ProcessNet(), InterfaceBinding())
    after = dataclasses.replace(model, nets={**model.nets, "ghost": empty})
    return model, after, "net owner is undefined"


def removed_process_owning_a_net() -> tuple[Model, Model, str]:
    model = clean_parent(TREE_TEXT)
    after = _with_net(model, "system", processes=frozenset({"system.a"}))
    processes = {p: q for p, q in after.processes.items() if p != "system.b"}
    return model, dataclasses.replace(after, processes=processes), "net owner is undefined"


def root_removed_with_its_net() -> tuple[Model, Model, str]:
    # a, the root's one member, is left as the only process no net lists
    model = clean_parent(
        "process system { } net for system { process a { } }"
        " net for system.a { process b { } }"
    )
    processes = {p: q for p, q in model.processes.items() if p != "system"}
    nets = {o: entry for o, entry in model.nets.items() if o != "system"}
    after = dataclasses.replace(model, processes=processes, nets=nets)
    return model, after, "root process is undefined"


def root_listed_in_a_net() -> tuple[Model, Model, str]:
    model = clean_parent(TREE_TEXT)
    after = _with_net(model, "system.b", processes=frozenset({"system"}))
    return model, after, "root process must not be contained in any net"


TREE_DEFECTS = [
    member_listed_in_two_nets,
    process_dropped_from_its_net,
    containment_cycle,
    net_of_an_undefined_owner,
    removed_process_owning_a_net,
    root_removed_with_its_net,
    root_listed_in_a_net,
]


class TestCarryNotClean:
    """A rule result that the change's scope finds clean, but whose whole
    model is not: ``validate_change`` reports the whole model's findings,
    and a rule rejects the result."""

    def assert_full(self, model: Model, after: Model, message: str) -> None:
        after = as_edit(model, after)
        found = validate_change(model, after)
        assert message in [v.message for v in found]
        assert found == validate_model(after)
        assert found == validate_model(dataclasses.replace(after))
        assert lines(found) == reference_lines(after)

    def test_a_member_listed_in_two_nets(self, carries):
        self.assert_full(*member_listed_in_two_nets())
        assert carries == Counter({False: 1}), carries

    def test_a_process_dropped_from_its_net(self, carries):
        self.assert_full(*process_dropped_from_its_net())
        assert carries == Counter({False: 1}), carries

    def test_a_containment_cycle(self, carries):
        self.assert_full(*containment_cycle())
        assert carries == Counter({False: 1}), carries

    def test_a_net_of_an_undefined_owner(self, carries):
        self.assert_full(*net_of_an_undefined_owner())
        assert carries == Counter({False: 1}), carries

    def test_a_removed_process_owning_a_net(self, carries):
        self.assert_full(*removed_process_owning_a_net())
        assert carries == Counter({False: 1}), carries

    def test_the_root_removed_with_its_net(self, carries):
        self.assert_full(*root_removed_with_its_net())
        assert carries == Counter({False: 1}), carries

    def test_the_root_listed_in_a_net(self, carries):
        self.assert_full(*root_listed_in_a_net())
        assert carries == Counter({False: 1}), carries

    @pytest.mark.parametrize("defect", TREE_DEFECTS, ids=lambda defect: defect.__name__)
    def test_a_rule_rejects_the_result(self, defect):
        model, after, message = defect()
        with pytest.raises(WouldBeIllFormedError) as raised:
            refine._validated(model, as_edit(model, after), "the edit")
        assert message in [v.message for v in raised.value.violations]

    def test_a_malformed_sort_table(self, carries):
        """A clean scope says nothing of a sort table the result replaced:
        the result is validated in full, and a rule rejects it."""
        model = clean_parent(TREE_TEXT)
        bad = dataclasses.replace(model, sort_table={**model.sort_table, "Bad": BAD_RECORD})
        after = as_edit(model, bad)
        assert after.sort_table is bad.sort_table
        found = validate_change(model, after)
        assert found and found == validate_model(dataclasses.replace(after))
        assert lines(found) == reference_lines(after)
        with pytest.raises(WouldBeIllFormedError) as raised:
            refine._validated(model, as_edit(model, bad), "the edit")
        assert raised.value.violations == found
        assert carries == Counter(), carries

    def test_a_parent_with_findings(self, carries):
        """A defect the rule leaves alone stays: a rule on a parent that
        reports one does not carry its result clean."""
        model = textio.parse_model(
            """
            sort T
            process system { }
            net for system { process a { out o } process b { in i } channel a.o -> b.i }
            """
        )
        bad = dataclasses.replace(model, sort_table={**model.sort_table, "Bad": BAD_RECORD})
        assert validate_model(bad)
        step = refine.AssignSortStep(refine.PortRef(("system", "a"), "o"), core.SortNameRef("T"))
        after, _ = step.apply(bad)
        found = validate_model(after)
        assert [v.code for v in found] == [v.code for v in validate_model(bad)]
        assert found == validate_model(dataclasses.replace(after))
        assert lines(found) == reference_lines(after)
        assert carries == Counter(), carries
