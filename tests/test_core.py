"""Domain types, the well-formedness validator, and net serialization."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpnet import core, textio
from bpnet.core import (
    AtomicSort,
    Channel,
    CollectionSort,
    FiringRule,
    InterfaceBinding,
    Model,
    Port,
    Process,
    ProcessNet,
    RecordSort,
    serialize_order,
    sorts_compatible,
    validate_model,
    validate_net,
)
from bpnet.errors import CycleDetectedError, NoNetError, UnknownProcessError

from conftest import load_model, load_script, run_bounded
from genmodels import gen_model, propose_step
from reference_validate import find_cycle as recursive_find_cycle


def codes(violations):
    return {v.code for v in violations}


def parse(text: str) -> Model:
    return textio.parse_model(text)


CHAIN = """
process system { in req; out ack }
net for system {
  process retrieve { in in_1; out out_1 }
  process reserve { in in_1; out out_1 }
  process notify { in in_1; out out_1 }
  channel retrieve.out_1 -> reserve.in_1
  channel reserve.out_1 -> notify.in_1
  input retrieve.in_1 binds system.req
  output notify.out_1 binds system.ack
}
"""

TWO_CYCLE = """
process system { }
net for system {
  process bp1 { in i; out o }
  process bp2 { in i; out o }
  channel bp1.o -> bp2.i
  channel bp2.o -> bp1.i
}
"""


class TestValidateNet:
    def test_empty_net_is_well_formed(self):
        m = parse("process root { }\nnet for root { }")
        assert validate_net(m, "root") == []

    def test_two_cycle_detected(self):
        m = parse(TWO_CYCLE)
        found = validate_net(m, "system")
        assert core.CYCLE_DETECTED in codes(found)
        witness = next(v for v in found if v.code == core.CYCLE_DETECTED)
        assert set(witness.location) == {"system.bp1", "system.bp2"}

    def test_library_chain_is_well_formed(self, library_model):
        assert validate_net(library_model, "system") == []

    def test_input_both_internal_and_env(self):
        m = parse(
            """
            process system { in a; out b }
            net for system {
              process p { out o }
              process q { in i; out o }
              channel p.o -> q.i
              input q.i binds system.a
              output q.o binds system.b
            }
            """
        )
        assert core.INPUT_BOTH_INTERNAL_AND_ENV in codes(validate_net(m, "system"))

    def test_multiply_driven_input(self):
        m = parse(
            """
            process system { }
            net for system {
              process p { out o }
              process r { out o }
              process q { in i }
              channel p.o -> q.i
              channel r.o -> q.i
            }
            """
        )
        assert core.INPUT_MULTIPLY_DRIVEN in codes(validate_net(m, "system"))

    def test_unconnected_input(self):
        m = parse(
            """
            process system { }
            net for system {
              process q { in i }
            }
            """
        )
        assert core.INPUT_UNCONNECTED in codes(validate_net(m, "system"))

    def test_channel_sort_mismatch(self):
        m = parse(
            """
            sort A
            sort B
            process system { }
            net for system {
              process p { out o : A }
              process q { in i : B }
              channel p.o -> q.i
            }
            """
        )
        assert core.SORT_MISMATCH in codes(validate_net(m, "system"))

    def test_one_sided_sort_is_tolerated(self):
        m = parse(
            """
            sort A
            process system { }
            net for system {
              process p { out o : A }
              process q { in i }
              channel p.o -> q.i
            }
            """
        )
        assert core.SORT_MISMATCH not in codes(validate_net(m, "system"))

    def test_self_loop(self):
        m = parse(
            """
            process system { }
            net for system {
              process p { in i; out o }
              channel p.o -> p.i
            }
            """
        )
        found = codes(validate_net(m, "system"))
        assert core.SELF_LOOP in found
        # a self-loop is a cycle of length one
        assert core.CYCLE_DETECTED in found

    def test_broadcast_is_allowed(self):
        m = parse(
            """
            process system { }
            net for system {
              process p { out o }
              process q { in i }
              process r { in i }
              channel p.o -> q.i
              channel p.o -> r.i
            }
            """
        )
        assert validate_net(m, "system") == []

    def test_unknown_process_and_no_net(self, library_model):
        with pytest.raises(UnknownProcessError):
            validate_net(library_model, "nope")
        with pytest.raises(NoNetError):
            validate_net(library_model, "system.reserve_book")

    def test_binding_incomplete(self):
        # boundary port bound, but one parent port is not
        m = parse(
            """
            process system { in a; out b }
            net for system {
              process p { in i; out o }
              input p.i binds system.a
            }
            """
        )
        assert core.BINDING_INCOMPLETE in codes(validate_net(m, "system"))

    def test_binding_sort_mismatch(self):
        m = parse(
            """
            sort A
            sort B
            process system { in a : A }
            net for system {
              process p { in i : B }
              input p.i binds system.a
            }
            """
        )
        assert core.BINDING_SORT_MISMATCH in codes(validate_net(m, "system"))


class TestValidateModel:
    def test_root_only(self):
        m = parse("process root { in a; out b }")
        assert validate_model(m) == []

    def test_process_in_two_nets_is_not_a_tree(self):
        m = parse(
            """
            process system { }
            net for system {
              process p { out o }
              process q { in i }
              channel p.o -> q.i
            }
            """
        )
        # graft q into a second net programmatically
        q = "system.q"
        stray = Process("stray", "stray")
        net2 = ProcessNet(processes=frozenset({q}), env_inputs=frozenset({f"{q}:i"}))
        nets = dict(m.nets)
        nets["stray"] = (net2, InterfaceBinding())
        bad = Model(m.sort_table, {**m.processes, "stray": stray}, m.root, nets)
        assert core.HIERARCHY_NOT_TREE in codes(validate_model(bad))

    def test_library_refined_model(self, library_refined):
        assert validate_model(library_refined) == []

    def test_orphan_process(self):
        m = parse("process root { }\nprocess stray { }")
        assert core.HIERARCHY_NOT_TREE in codes(validate_model(m))

    def test_root_inside_a_net(self):
        m = parse(TWO_CYCLE)
        net, binding = m.nets["system"]
        nets = {"system": (ProcessNet(net.processes | {"system"}, net.channels), binding)}
        bad = Model(m.sort_table, m.processes, m.root, nets)
        assert core.HIERARCHY_NOT_TREE in codes(validate_model(bad))

    def test_port_owned_elsewhere_is_a_clash(self):
        # a second process holding the root's port
        m = parse("process root { in a }")
        other = Process("other", "other", m.processes["root"].interface)
        bad = Model(m.sort_table, {**m.processes, "other": other}, "root", m.nets)
        assert core.PORT_CLASH in codes(validate_model(bad))

    def test_a_port_held_twice_is_reported_under_either_order(self):
        """A port id two processes hold is reported by its clash line alone,
        whichever order ``processes`` holds them in."""
        m = parse("process root { in a }")
        other = Process("other", "other", m.processes["root"].interface)
        for processes in ({**m.processes, "other": other}, {"other": other, **m.processes}):
            bad = Model(m.sort_table, processes, "root", m.nets)
            assert [str(v) for v in validate_model(bad)] == [
                "PortClash root:a,other,root: port listed by more than one process interface entry"
            ]

    def test_dangling_port_reference(self):
        # a firing rule needing a port the process does not hold
        m = parse("process root { }")
        rule = FiringRule((("root:ghost", core.WHOLE),), ())
        root = Process("root", "root", firing_rules=(rule,))
        bad = Model(m.sort_table, {"root": root}, "root", {})
        assert core.DANGLING_REF in codes(validate_model(bad))

    def test_idempotent_and_pure(self, library_refined):
        first = validate_model(library_refined)
        second = validate_model(library_refined)
        assert first == second == []

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_models_are_well_formed(self, seed):
        assert validate_model(gen_model(seed)) == []

    def test_violation_needs_known_code_and_location(self):
        with pytest.raises(ValueError, match="unknown violation code"):
            core.Violation("no-such-code", ("root",), "x")
        with pytest.raises(ValueError, match="at least one location"):
            core.Violation(core.DANGLING_REF, (), "x")


class TestContainment:
    def test_shared_member_answers_do_not_depend_on_net_order(self):
        """A process two nets list is reported by one line alone, whichever
        order ``model.nets`` lists the owners in."""
        m = parse(
            """
            process system { }
            net for system { process a { }; process b { } }
            net for system.a { process c { } }
            net for system.b { process d { } }
            """
        )
        net_b, binding_b = m.nets["system.b"]
        shared = dataclasses.replace(net_b, processes=net_b.processes | {"system.a.c"})
        nets = {**m.nets, "system.b": (shared, binding_b)}
        for order in (["system", "system.a", "system.b"], ["system", "system.b", "system.a"]):
            model = dataclasses.replace(m, nets={owner: nets[owner] for owner in order})
            assert [str(v) for v in validate_model(model)] == [
                "HierarchyNotTree system.a.c,system.a,system.b: process contained in more than one net"
            ]

    def test_chain_ends_on_cyclic_containment(self):
        # in a child process: a walk that never ends would fill memory
        done = run_bounded(
            """
from dataclasses import replace
from bpnet import core, textio
m = textio.parse_model(
    "process system { }; net for system { process a { } }; "
    "net for system.a { process b { } }"
)
net, binding = m.nets["system.a"]
net = replace(net, processes=net.processes | {"system"})
cyclic = replace(m, nets={**m.nets, "system.a": (net, binding)})
print(core.containment_chain(cyclic, "system.a.b"))
print(core.display_path(cyclic, "system.a.b"))
# off the root, the walk ends at the first process it reaches twice
print(core.containment_chain(replace(cyclic, root="elsewhere"), "system.a.b"))
"""
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "['system.a.b', 'system.a', 'system']",
            "('system', 'a', 'b')",
            "['system.a.b', 'system.a', 'system', 'system.a']",
        ]


class TestSerializeOrder:
    def test_chain_ranking(self):
        m = parse(CHAIN)
        order = serialize_order(m, "system")
        by_name = {m.processes[p].name: r for p, r in order.items()}
        assert by_name == {"retrieve": 1, "reserve": 2, "notify": 3}

    def test_chain_ranking_matches_exhaustive_oracle(self):
        # oracle: enumerate all 3! injections, keep the order-respecting ones
        m = parse(CHAIN)
        net, _ = m.nets["system"]
        members = sorted(net.processes)
        edges = {
            (m.port_owners[c.source], m.port_owners[c.dest]) for c in net.channels
        }
        valid = [
            dict(zip(members, ranks))
            for ranks in itertools.permutations(range(1, 4))
            if all(
                dict(zip(members, ranks))[s] < dict(zip(members, ranks))[d]
                for s, d in edges
            )
        ]
        assert len(valid) == 1
        ordered = sorted(valid[0], key=valid[0].__getitem__)
        got = serialize_order(m, "system")
        assert sorted(got, key=got.__getitem__) == ordered

    def test_single_process(self):
        m = parse(
            """
            process system { in a }
            net for system {
              process bp { in i }
              input bp.i binds system.a
            }
            """
        )
        assert serialize_order(m, "system") == {"system.bp": 1}

    def test_two_cycle_raises_with_witness(self):
        m = parse(TWO_CYCLE)
        with pytest.raises(CycleDetectedError) as exc:
            serialize_order(m, "system")
        assert set(exc.value.cycle) == {"system.bp1", "system.bp2"}

    def test_succeeds_iff_no_cycle_violation(self):
        for text in (CHAIN, TWO_CYCLE):
            m = parse(text)
            has_violation = core.CYCLE_DETECTED in codes(validate_net(m, "system"))
            try:
                serialize_order(m, "system")
                raised = False
            except CycleDetectedError:
                raised = True
            assert raised == has_violation


class TestAbstractNet:
    def test_reserve_book_boundary(self, library_refined):
        ins, outs = core.abstract_net(library_refined, "system.reserve_book")
        names = lambda ps: sorted(library_refined.ports[p].name for p in ps)
        assert names(ins) == ["in_1"]
        assert names(outs) == ["out_1", "out_2"]

    def test_empty_net(self):
        m = parse("process root { }\nnet for root { }")
        assert core.abstract_net(m, "root") == (frozenset(), frozenset())

    def test_boundary_bijective_to_owner_interface(self, bp_fig6):
        ins, outs = core.abstract_net(bp_fig6, "bp")
        _, binding = bp_fig6.nets["bp"]
        to_parent = binding.to_parent()
        owner = bp_fig6.processes["bp"]
        assert {to_parent[p] for p in ins} == set(owner.inputs)
        assert {to_parent[p] for p in outs} == set(owner.outputs)

    def test_no_net(self, bp_model):
        with pytest.raises(NoNetError):
            core.abstract_net(bp_model, "bp")


atomic = st.sampled_from([AtomicSort("A"), AtomicSort("B"), AtomicSort("C")])
sorts = st.recursive(
    atomic,
    lambda inner: st.one_of(
        st.builds(
            lambda items: RecordSort(tuple((f"f{i}", s) for i, s in enumerate(items))),
            st.lists(inner, min_size=1, max_size=3),
        ),
        st.builds(CollectionSort, st.sampled_from(["seq", "set"]), inner),
    ),
    max_leaves=6,
)
maybe_sorts = st.one_of(st.none(), sorts)


def _rebuilt(sort):
    """An equal sort made of new objects throughout."""
    if isinstance(sort, RecordSort):
        return RecordSort(tuple((name, _rebuilt(s)) for name, s in sort.fields))
    if isinstance(sort, CollectionSort):
        return CollectionSort(sort.kind, _rebuilt(sort.element))
    return AtomicSort(sort.name)


class TestRecordSortValue:
    @given(sorts)
    @settings(deadline=None)
    def test_equal_sorts_built_separately_hash_equal(self, s):
        hash(s)
        other = _rebuilt(s)
        assert other == s and other is not s
        assert hash(other) == hash(s)
        # records and collections cache the hash the dataclass would generate
        fields = tuple(getattr(s, f.name) for f in dataclasses.fields(s))
        assert hash(s) == hash(fields)
        assert ("_hash" in vars(s)) == (not isinstance(s, AtomicSort))

    def test_cached_hash_changes_no_dataclass_view(self):
        record = RecordSort((("f0", AtomicSort("A")), ("f1", AtomicSort("B"))))
        hash(record)
        assert [f.name for f in dataclasses.fields(record)] == ["fields"]
        assert repr(record) == (
            "RecordSort(fields=(('f0', AtomicSort(name='A')), ('f1', AtomicSort(name='B'))))"
        )
        assert dataclasses.replace(record) == record
        changed = dataclasses.replace(record, fields=record.fields[:1])
        assert changed != record and hash(changed) == hash(RecordSort(record.fields[:1]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.fields = ()


def _views(value) -> tuple:
    """Everything a dataclass shows of a value: fields, repr, hash, and what
    ``replace`` and equality make of it."""
    copy = dataclasses.replace(value)
    return (
        [f.name for f in dataclasses.fields(value)],
        repr(value),
        hash(value),
        copy == value,
        repr(copy),
        hash(copy),
    )


class TestCachedOrderings:
    NET = ProcessNet(
        frozenset({"b", "a"}),
        frozenset({Channel("b:o", "a:i"), Channel("a:o", "b:i")}),
        frozenset({"b:x", "a:x"}),
        frozenset({"b:y"}),
    )
    BINDING = InterfaceBinding((("p:2", "b:y"), ("p:1", "a:x")))
    PROCESS = Process(
        "p",
        "p",
        (
            Port("p:o", "o", core.OUTPUT),
            Port("p:i", "i", core.INPUT),
            Port("p:j", "j", core.INPUT),
        ),
        firing_rules=(FiringRule((("p:i", "f"),), (("p:o", core.WHOLE),)),),
    )
    SEQ = CollectionSort("seq", RecordSort((("f", AtomicSort("A")),)))

    def test_filling_the_caches_changes_no_dataclass_view(self):
        net, binding = dataclasses.replace(self.NET), dataclasses.replace(self.BINDING)
        proc, seq = dataclasses.replace(self.PROCESS), dataclasses.replace(self.SEQ)
        # hashing fills a sort's cache, so the sort's views are taken after it
        before = _views(net), _views(binding), _views(proc), repr(seq)
        assert "_hash" not in vars(seq)
        assert hash(seq) == hash(("seq", seq.element)) and "_hash" in vars(seq)
        assert proc.inputs == ("p:i", "p:j") and proc.outputs == ("p:o",)
        assert proc.ports() == ("p:i", "p:j", "p:o")
        assert [v.message for v in proc.violations] == [
            "firing rule uses label 'f' which is not a record field of the port sort"
        ]
        assert {"inputs", "outputs", "violations"} <= vars(proc).keys()
        assert (_views(net), _views(binding), _views(proc), repr(seq)) == before
        assert _views(seq) == _views(dataclasses.replace(self.SEQ))
        assert net == self.NET and binding == self.BINDING and proc == self.PROCESS
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.processes = frozenset()
        with pytest.raises(dataclasses.FrozenInstanceError):
            proc.interface = ()

    def test_filling_the_port_index_changes_no_dataclass_view(self):
        model = Model({}, {"p": dataclasses.replace(self.PROCESS)}, "p", {})

        def views(m):
            copy = dataclasses.replace(m)
            return [f.name for f in dataclasses.fields(m)], repr(m), copy == m, repr(copy)

        before = views(model)
        assert list(model.ports) == ["p:o", "p:i", "p:j"]
        assert dict(model.port_owners) == dict.fromkeys(model.ports, "p")
        assert views(model) == before
        with pytest.raises(TypeError):
            model.ports["p:x"] = Port("p:x", "x", core.INPUT)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.ports = {}

    def test_a_replaced_value_orders_afresh(self):
        seq = dataclasses.replace(self.SEQ)
        hash(seq)
        assert hash(dataclasses.replace(seq, kind="set")) == hash(
            CollectionSort("set", seq.element)
        )

    def test_nets_and_bindings_hold_only_their_fields(self):
        """Validating models and applying rules to them stores nothing on
        their nets and bindings: models share those, and a net's checks
        depend on the model it is in."""
        models = [load_model(name) for name in ("bp_fig6.bpn", "bp_refined.bpn")]
        for name, script in (("bp.bpn", "bp_refine.bps"), ("library.bpn", "library_decompose.bps")):
            model = load_model(name)
            for step in load_script(script).steps:
                assert not validate_model(model)
                model, _ = step.apply(model)
                models.append(model)
        model, rng = gen_model(7), random.Random(7)
        for _ in range(12):
            assert not validate_model(model)
            model, _ = propose_step(model, rng)
            models.append(model)
        net_fields = {f.name for f in dataclasses.fields(ProcessNet)}
        binding_fields = {f.name for f in dataclasses.fields(InterfaceBinding)}
        for model in models:
            assert not validate_model(model)
            for net, binding in model.nets.values():
                assert vars(net).keys() == net_fields
                assert vars(binding).keys() == binding_fields

    def test_a_replaced_process_derives_its_views_and_findings_afresh(self):
        proc = dataclasses.replace(self.PROCESS)
        assert proc.ports() == ("p:i", "p:j", "p:o") and proc.violations
        record = RecordSort((("f", AtomicSort("A")),))
        grown = dataclasses.replace(
            proc,
            interface=(Port("p:i", "i", core.INPUT, record), Port("p:x", "x", core.OUTPUT)),
        )
        assert grown.inputs == ("p:i",) and grown.outputs == ("p:x",)
        assert grown.ports() == ("p:i", "p:x")
        assert [v.message.split(",")[0] for v in grown.violations] == [
            "firing rule produces 'p:o'"
        ]
        model = Model({}, {"p": proc}, "p", {})
        assert set(model.ports) == {"p:i", "p:j", "p:o"}
        moved = dataclasses.replace(model, processes={"p": grown})
        assert set(moved.ports) == {"p:i", "p:x"} and moved.ports["p:i"].sort == record


class TestSortsCompatible:
    def test_spec_examples(self):
        assert sorts_compatible(None, None)
        assert sorts_compatible(AtomicSort("BookId"), AtomicSort("BookId"))
        assert not sorts_compatible(AtomicSort("BookId"), AtomicSort("Notification"))
        assert sorts_compatible(None, AtomicSort("BookId"))

    @given(maybe_sorts)
    @settings(deadline=None)
    def test_reflexive(self, s):
        assert sorts_compatible(s, s)

    @given(maybe_sorts, maybe_sorts)
    @settings(deadline=None)
    def test_symmetric(self, a, b):
        assert sorts_compatible(a, b) == sorts_compatible(b, a)

    @given(sorts, sorts)
    @settings(deadline=None)
    def test_specified_compatibility_is_equality(self, a, b):
        assert sorts_compatible(a, b) == (a == b)


class TestTotalityInvariant:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_input_driven_exactly_once(self, seed):
        m = gen_model(seed)
        for owner, (net, _) in m.nets.items():
            driven = {}
            for ch in net.channels:
                driven[ch.dest] = driven.get(ch.dest, 0) + 1
            for member in net.processes:
                for p in m.processes[member].inputs:
                    count = driven.get(p, 0) + (1 if p in net.env_inputs else 0)
                    assert count == 1, (owner, p)


@given(st.integers(0, 5), st.data())
@settings(deadline=None, max_examples=60)
def test_cycle_detection_matches_reachability_oracle(n_extra, data):
    """serialize_order fails exactly when transitive closure has a self-path,
    and find_cycle gives the witness the recursive search it replaced gave."""
    n = n_extra + 1
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=10,
        )
    )
    lines = ["process system { }", "net for system {"]
    for i in range(n):
        lines.append(f"  process n{i} {{ in {' '.join(f'i{k}' for k, _ in enumerate(edges))}; out o }}")
    for k, (a, b) in enumerate(edges):
        lines.append(f"  channel n{a}.o -> n{b}.i{k}")
    lines.append("}")
    m = parse("\n".join(lines))
    # Floyd-Warshall closure, independent of the library's DFS
    reach = [[False] * n for _ in range(n)]
    for a, b in edges:
        reach[a][b] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    cyclic = any(reach[i][i] for i in range(n))
    try:
        serialize_order(m, "system")
        assert not cyclic
    except CycleDetectedError:
        assert cyclic
    net, _ = m.nets["system"]
    for include_self in (False, True):
        graph = core.process_digraph(m, net, include_self=include_self)
        assert core.find_cycle(graph) == recursive_find_cycle(graph)
    assert (core.find_cycle(graph) is not None) == cyclic
