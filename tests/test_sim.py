"""Flattening and the greedy piecewise dataflow semantics."""

from __future__ import annotations

import dataclasses
import random

import pytest

from bpnet import cli, core, refine, sim, textio
from bpnet.core import WHOLE, Channel, FiringRule, Process, ProcessNet, RecordSort
from bpnet.errors import (
    InvalidEnvFragmentError,
    NonDeterministicRulesError,
    SimError,
    WouldBeIllFormedError,
)
from bpnet.sim import AtomicValue, Fragment

from conftest import fixture_text, load_model
from genmodels import gen_model, rename_ids


def env_for(model, *entries):
    return sim.prepare_env(model, [(n, lab, text) for n, lab, text in entries])


def reference_greedy(model, env, rng=None):
    """The quadratic ready-scan that ``simulate_greedy`` replaced, as an oracle:
    after every firing, rescan all unfired rules for the ready ones."""
    flat, _ = sim.flatten_with_boundary(model)
    outgoing = {}
    for ch in flat.channels:
        outgoing.setdefault(ch.source, []).append(ch.dest)
    entries = sorted(
        (
            (model.processes[pid].name, pid, index, rule)
            for pid in flat.processes
            for index, rule in enumerate(model.processes[pid].firing_rules)
        ),
        key=lambda e: e[:3],
    )
    delivered = {}
    for frag in env:
        delivered.setdefault(frag.port, {})[frag.label] = frag.payload
    fired, trace, outputs = set(), [], set()
    while True:
        candidates = [
            e
            for e in entries
            if (e[1], e[2]) not in fired
            and all(label in delivered.get(port, ()) for port, label in e[3].needs)
        ]
        if not candidates:
            return frozenset(outputs), trace
        pick = 0 if rng is None else rng.randrange(len(candidates))
        _, pid, index, rule = candidates[pick]
        fired.add((pid, index))
        trace.append((pid, index))
        consumed = [
            Fragment(port, label, delivered[port][label])
            for port, label in sorted(rule.needs)
        ]
        # each produced fragment is tagged with the labels consumed
        payload = AtomicValue("(" + "+".join(sorted(f.label for f in consumed)) + ")")
        for port, label in sorted(rule.produces):
            if port in flat.env_outputs:
                outputs.add(Fragment(port, label, payload))
            for dest in sorted(outgoing.get(port, ())):
                delivered.setdefault(dest, {})[label] = payload


def random_env(model, rng):
    """Each root input is left out, sent whole, or sent as some record fields."""
    _, boundary = sim.flatten_with_boundary(model)
    entries = []
    for port_id in model.processes[model.root].inputs:
        sort = model.ports[boundary[port_id]].sort
        draw = rng.random()
        if draw < 0.2:
            continue
        if isinstance(sort, RecordSort) and draw < 0.6:
            labels = [n for n in sort.field_names() if rng.random() < 0.7]
        else:
            labels = [WHOLE]
        name = model.ports[port_id].name
        entries += [(name, label, f"v{len(entries)}") for label in labels]
    return sim.prepare_env(model, entries)


class TestFlatten:
    def test_flat_model_is_unchanged(self, library_model):
        flat = sim.flatten(library_model)
        net, _ = library_model.nets["system"]
        assert flat == net

    def test_library_refined_expands_to_four_processes(self, library_refined):
        flat = sim.flatten(library_refined)
        assert len(flat.processes) == 4
        names = {
            library_refined.processes[p].name
            for p in flat.processes
        }
        assert names == {
            "retrieve_book",
            "check_availability",
            "issue_notification",
            "notify_user",
        }
        # boundary corresponds to the root interface through composed bindings
        _, boundary = sim.flatten_with_boundary(library_refined)
        assert set(boundary) == set(library_refined.processes["system"].ports())

    def test_flatten_is_idempotent(self, library_refined):
        # a model whose root net is already leaf-level flattens to itself
        flat_once = sim.flatten(library_refined)
        unfolded = textio.parse_model(fixture_text("library_refined.bpn"))
        from bpnet.refine import unfold

        pre_flattened = unfold(unfolded, "system", "system.reserve_book")
        assert sim.flatten(pre_flattened) == sim.flatten(pre_flattened)
        assert len(sim.flatten(pre_flattened).processes) == len(flat_once.processes)

    def test_undecomposed_root_becomes_singleton_net(self, bp_model):
        flat = sim.flatten(bp_model)
        assert flat.processes == frozenset({"bp"})
        assert flat.env_inputs == frozenset(bp_model.processes["bp"].inputs)


def reference_flatten(model):
    """The unfold loop that ``flatten_with_boundary`` replaced, as an oracle:
    unfold the root net's first decomposed member until none is left.  The
    unfold rule rejects a net holding two members of one name, so the loop
    raises on models whose subnets reuse the names of their parents' siblings;
    ``unique_names`` gives such a model the same ids and ports without them."""
    if model.root not in model.nets:
        root = model.processes[model.root]
        net = ProcessNet(
            processes=frozenset({model.root}),
            env_inputs=frozenset(root.inputs),
            env_outputs=frozenset(root.outputs),
        )
        return net, {p: p for p in root.ports()}
    current = model
    while True:
        net, _ = current.nets[current.root]
        child = next((m for m in sorted(net.processes) if m in current.nets), None)
        if child is None:
            break
        current = refine.unfold(current, current.root, child)
    net, binding = current.nets[current.root]
    return net, binding.to_subnet()


GENERATED = range(200)


def unique_names(model):
    """The model with each process named by its id: the ids, ports and so the
    flat net stay the same, but no two processes share a name."""
    return dataclasses.replace(
        model,
        processes={
            pid: dataclasses.replace(proc, name=pid)
            for pid, proc in model.processes.items()
        },
    )


class TestFlattenAgainstUnfoldLoop:
    def test_same_flat_net_as_the_loop_on_every_model(self):
        models = [load_model(name) for name in FIXTURE_ENVS]
        models += [gen_model(seed, 3, 6) for seed in GENERATED]
        nested = 0
        for model in models:
            nested += any(owner != model.root for owner in model.nets)
            expected = reference_flatten(unique_names(model))
            assert sim.flatten_with_boundary(model) == expected
        assert nested > 150

    def test_every_generated_model_flattens_simulates_and_is_confluent(self):
        for seed in GENERATED:
            model = gen_model(seed, 3, 6)
            env = random_env(model, random.Random(seed))
            sim.simulate_greedy(model, env)
            assert sim.check_confluence(model, env, 3, seed=seed), seed


class TestSimulateGreedy:
    def test_library_chain_fires_in_order(self, library_model):
        outputs, trace = sim.simulate_greedy(
            library_model, env_for(library_model, ("req", "whole", "b42"))
        )
        fired = [library_model.processes[p].name for p, _ in trace]
        assert fired == ["retrieve_book", "reserve_book", "notify_user"]
        by_name = {
            (library_model.ports[f.port].name, f.label) for f in outputs
        }
        assert by_name == {("out_1", "whole"), ("out_2", "whole")}

    def test_partial_input_fires_only_ready_rules(self, bp_fig6):
        outputs, trace = sim.simulate_greedy(
            bp_fig6, env_for(bp_fig6, ("in_1", "whole", "x"))
        )
        assert [p for p, _ in trace] == ["bp.bp1"]
        assert outputs == frozenset()

    def test_empty_env_is_quiescent(self, library_model):
        outputs, trace = sim.simulate_greedy(library_model, [])
        assert outputs == frozenset()
        assert trace == []

    def test_broadcast_duplicates_fragments(self, bp_refined):
        outputs, trace = sim.simulate_greedy(
            bp_refined, env_for(bp_refined, ("in_1", "whole", "x"), ("in_2", "whole", "y"))
        )
        fired = {bp_refined.processes[p].name for p, _ in trace}
        # bp1's single output feeds both bp21 and bp22
        assert fired == {"bp1", "bp21", "bp22"}
        assert len(outputs) == 2

    def test_invalid_env_port(self, library_model):
        with pytest.raises(InvalidEnvFragmentError):
            sim.prepare_env(library_model, [("nonsuch", "whole", "x")])

    def test_invalid_label(self, library_model):
        frag = Fragment(
            core.port_by_name(library_model, "system.retrieve_book", "in_1"),
            "bogus_field",
            AtomicValue("x"),
        )
        with pytest.raises(InvalidEnvFragmentError):
            sim.simulate_greedy(library_model, [frag])

    def test_record_fields_arrive_piecewise(self):
        m = textio.parse_model(
            """
            sort A
            sort B
            sort R = record { a: A, b: B }
            process root { in x : R; out y }
            rule root : needs { x.a, x.b } produces { y }
            """
        )
        env = env_for(m, ("x", "a", "1"))
        outputs, trace = sim.simulate_greedy(m, env)
        assert trace == []
        env = env_for(m, ("x", "a", "1"), ("x", "b", "2"))
        outputs, trace = sim.simulate_greedy(m, env)
        assert len(trace) == 1
        assert len(outputs) == 1

    def test_second_fragment_on_a_port_is_a_sim_error(self, library_model):
        # fan-in: retrieve_book.out_1 also feeds notify_user.in_1, which
        # reserve_book.out_1 feeds too, so in_1 receives 'whole' twice
        net, binding = library_model.nets["system"]
        extra = Channel(
            core.port_by_name(library_model, "system.retrieve_book", "out_1"),
            core.port_by_name(library_model, "system.notify_user", "in_1"),
        )
        fan_in = dataclasses.replace(
            library_model,
            nets={"system": (dataclasses.replace(net, channels=net.channels | {extra}), binding)},
        )
        env = env_for(fan_in, ("req", "whole", "b42"))
        with pytest.raises(SimError, match="second fragment 'whole'"):
            sim.simulate_greedy(fan_in, env)

    def test_whole_excludes_other_labels(self):
        m = textio.parse_model(
            "sort A\nsort R = record { a: A, b: A }\nprocess root { in x : R }"
        )
        with pytest.raises(InvalidEnvFragmentError):
            sim.simulate_greedy(m, env_for(m, ("x", "whole", "1"), ("x", "a", "2")))

    def test_termination_bound(self, library_refined):
        outputs, trace = sim.simulate_greedy(
            library_refined, env_for(library_refined, ("req", "whole", "b42"))
        )
        total_rules = sum(
            len(p.firing_rules) for p in library_refined.processes.values()
        )
        assert len(trace) <= total_rules

    def test_monotone_in_env(self, bp_fig6):
        smaller, _ = sim.simulate_greedy(bp_fig6, env_for(bp_fig6, ("in_1", "whole", "x")))
        larger, _ = sim.simulate_greedy(
            bp_fig6, env_for(bp_fig6, ("in_1", "whole", "x"), ("in_2", "whole", "y"))
        )
        assert {(f.port, f.label) for f in smaller} <= {(f.port, f.label) for f in larger}


class TestConfluence:
    def test_library_fixture_is_confluent(self, library_model):
        env = env_for(library_model, ("req", "whole", "b42"))
        assert sim.check_confluence(library_model, env, trials=100, seed=11)

    def test_single_rule_is_confluent(self, bp_model):
        env = env_for(bp_model, ("in_1", "whole", "x"), ("in_2", "whole", "y"))
        assert sim.check_confluence(bp_model, env, trials=5, seed=0)

    def test_nondeterministic_rules_rejected_at_load(self, bp_model):
        proc = bp_model.processes["bp"]
        out_port = proc.outputs[0]
        in_port = proc.inputs[0]
        corrupted = Process(
            proc.id,
            proc.name,
            proc.interface,
            firing_rules=(
                FiringRule(((in_port, "whole"),), ((out_port, "whole"),)),
                FiringRule(((proc.inputs[1], "whole"),), ((out_port, "whole"),)),
            ),
        )
        bad = core.Model(
            bp_model.sort_table,
            {**bp_model.processes, proc.id: corrupted},
            bp_model.root,
            bp_model.nets,
        )
        with pytest.raises(NonDeterministicRulesError):
            sim.check_confluence(bad, [], trials=3, seed=0)

    def test_trials_must_be_positive(self, bp_model):
        with pytest.raises(ValueError):
            sim.check_confluence(bp_model, [], trials=0, seed=0)


FIXTURE_ENVS = {
    "library.bpn": ["library.env"],
    "library_refined.bpn": ["library.env"],
    "bp.bpn": ["bp.env", "bp_partial.env"],
    "bp_fig6.bpn": ["bp.env", "bp_partial.env"],
    "bp_refined.bpn": ["bp.env", "bp_partial.env"],
}
ORDERS = 20


def differential_cases():
    """(label, model, env) on the fixtures and on wide single-level models."""
    for name, env_files in FIXTURE_ENVS.items():
        model = load_model(name)
        rng = random.Random(name)
        for env_file in env_files:
            env = sim.prepare_env(model, sim.parse_env_text(fixture_text(env_file)))
            yield f"{name}+{env_file}", model, env
        for k in range(3):
            yield f"{name}+random{k}", model, random_env(model, rng)
    for seed in range(30):
        model = gen_model(seed, 1, 2 + 2 * seed)
        if seed % 2:
            # ids P0, P1, ..., P10 sort apart from the names p0, p1, ..., p10
            model = rename_ids(model)
        yield f"gen{seed}", model, random_env(model, random.Random(seed))


@pytest.fixture(scope="module")
def cases():
    return list(differential_cases())


class TestAgainstReferenceScan:
    def test_traces_and_outputs_match(self, cases):
        fired = 0
        for label, model, env in cases:
            expected = reference_greedy(model, env)
            assert sim.simulate_greedy(model, env) == expected, label
            fired += len(expected[1])
            for t in range(ORDERS):
                order = f"{label}:{t}"
                expected = reference_greedy(model, env, random.Random(order))
                actual = sim.simulate_greedy(model, env, random.Random(order))
                assert actual == expected, order
        assert fired > 400  # the cases fire (489 rules), not just stay quiescent

    def test_confluence_agrees(self, cases):
        trials = 5
        for label, model, env in cases:
            baseline, _ = reference_greedy(model, env)
            expected = all(
                reference_greedy(model, env, random.Random(f"3:{t}"))[0] == baseline
                for t in range(trials)
            )
            assert sim.check_confluence(model, env, trials, seed=3) == expected, label


class TestEnvFormat:
    def test_parse_lines(self):
        entries = sim.parse_env_text("# c\nreq whole = b42\n\nx f = hello world\n")
        assert entries == [("req", "whole", "b42"), ("x", "f", "hello world")]

    def test_bad_line(self):
        with pytest.raises(InvalidEnvFragmentError):
            sim.parse_env_text("just some words\n")

    def test_format_outputs_sorted(self, library_model):
        outputs, _ = sim.simulate_greedy(
            library_model, env_for(library_model, ("req", "whole", "b42"))
        )
        text = sim.format_outputs(library_model, outputs)
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert all("=" in line for line in lines)


class TestPayloads:
    """A produced fragment carries the tag of the labels its rule consumed:
    neither the environment's payload text nor a rule's ``using NAME``
    changes what a simulation shows."""

    MODEL = (
        "sort A\nsort R = record { a: A, b: A }\n"
        "process root { in x : R; out y }\n"
        "rule root : needs { x.a, x.b } produces { y }{using}\n"
    )
    ENV = "x a = hello\nx b = hello world\n"

    def test_using_and_env_text_do_not_show(self, tmp_path, capsys):
        shown = []
        for using in ("", " using tag", " using upcase"):
            text = self.MODEL.replace("{using}", using)
            model = textio.parse_model(text)
            rules = model.processes["root"].firing_rules
            assert [rule.compute for rule in rules] == [using.split()[-1] if using else "tag"]
            env = sim.prepare_env(model, sim.parse_env_text(self.ENV))
            outputs, _ = sim.simulate_greedy(model, env)
            library = sim.format_outputs(model, outputs)
            (tmp_path / "m.bpn").write_text(text)
            (tmp_path / "m.env").write_text(self.ENV)
            code = cli.main(["simulate", str(tmp_path / "m.bpn"), str(tmp_path / "m.env")])
            assert code == cli.EXIT_OK
            assert capsys.readouterr().out == library + "\n"
            shown.append(library)
        assert shown == ["y whole = (a+b)"] * 3
