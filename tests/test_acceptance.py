"""Acceptance suite: one test per criterion, timed against its stated budget.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.  Every tolerance and time budget is pinned here; a failure of any
assertion or budget is a failure of the corresponding criterion.
"""

from __future__ import annotations

import contextlib
import io
import random
import time

from bpnet import check, cli, core, refine, sim, textio
from bpnet.core import (
    Channel,
    InterfaceBinding,
    Model,
    Port,
    Process,
    ProcessNet,
    serialize_order,
    validate_model,
)
from bpnet.errors import CycleDetectedError

from conftest import FIXTURES
from genmodels import gen_model, propose_step, random_convex_group, rename_ids


@contextlib.contextmanager
def criterion(number: int, label: str, budget: float, spent: float = 0.0):
    """Time the block against ``budget``, counting ``spent`` seconds the
    criterion's work took before it, in a fixture."""
    t0 = time.perf_counter() - spent
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL - {label}")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} {verdict} ({elapsed:.2f}s / {budget:.0f}s) - {label}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


# --- 1. constraint suite ---------------------------------------------------------

# one well-formed fixture per constraint topic: the validator must be silent
_CLEAN = {
    "constraint1": """
        process system { in a }
        net for system {
          process p { out o }
          process q { in i in j }
          channel p.o -> q.i
          input q.j binds system.a
        }
        """,
    "constraint2": """
        process system { }
        net for system {
          process p { out o }
          process q { in i }
          channel p.o -> q.i
        }
        """,
    "constraint3": """
        sort A
        process system { }
        net for system {
          process p { out o : A }
          process q { in i : A }
          channel p.o -> q.i
        }
        """,
    "constraint4": """
        process system { }
        net for system {
          process p { out o }
          process q { in i; out o }
          process r { in i }
          channel p.o -> q.i
          channel q.o -> r.i
        }
        """,
    "totality": """
        process system { in a }
        net for system {
          process q { in i }
          input q.i binds system.a
        }
        """,
    "selfloop": """
        process system { }
        net for system {
          process p { out o }
          process q { in i }
          channel p.o -> q.i
        }
        """,
    "hierarchy": """
        process root { in a; out b }
        """,
}

# one violating fixture per topic: the validator must report exactly that kind
_BROKEN = {
    "constraint1": (
        """
        process system { in a }
        net for system {
          process p { out o }
          process q { in i }
          channel p.o -> q.i
          input q.i binds system.a
        }
        """,
        core.INPUT_BOTH_INTERNAL_AND_ENV,
    ),
    "constraint2": (
        """
        process system { }
        net for system {
          process p { out o }
          process r { out o }
          process q { in i }
          channel p.o -> q.i
          channel r.o -> q.i
        }
        """,
        core.INPUT_MULTIPLY_DRIVEN,
    ),
    "constraint3": (
        """
        sort A
        sort B
        process system { }
        net for system {
          process p { out o : A }
          process q { in i : B }
          channel p.o -> q.i
        }
        """,
        core.SORT_MISMATCH,
    ),
    "constraint4": (
        """
        process system { }
        net for system {
          process p { in i; out o }
          process q { in i; out o }
          channel p.o -> q.i
          channel q.o -> p.i
        }
        """,
        core.CYCLE_DETECTED,
    ),
    "totality": (
        """
        process system { }
        net for system {
          process q { in i }
        }
        """,
        core.INPUT_UNCONNECTED,
    ),
    "selfloop": (
        """
        process system { }
        net for system {
          process p { in i; out o }
          channel p.o -> p.i
        }
        """,
        core.SELF_LOOP,
    ),
    "hierarchy": (
        "process root { }\nprocess stray { }",
        core.HIERARCHY_NOT_TREE,
    ),
}


def test_criterion_1_constraint_suite():
    with criterion(1, "constraint suite classifies all fixtures correctly", 1.0):
        misclassified = 0
        for name, text in _CLEAN.items():
            if validate_model(textio.parse_model(text)):
                misclassified += 1
        for name, (text, expected) in _BROKEN.items():
            found = {v.code for v in validate_model(textio.parse_model(text))}
            if expected not in found:
                misclassified += 1
        assert misclassified == 0


# --- 2. cycle oracle ---------------------------------------------------------------


def _random_port_graph(rng: random.Random) -> tuple[Model, list[tuple[int, int]], int]:
    n = rng.randint(1, 6)
    members = [f"n{i}" for i in range(n)]
    ports: dict[str, list[Port]] = {m: [] for m in members}
    processes: dict[str, Process] = {}
    edges = [
        (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))
    ]
    channels = []
    for k, (a, b) in enumerate(edges):
        dest = f"{members[b]}:i{k}"
        ports[members[b]].append(Port(dest, f"i{k}", core.INPUT))
        channels.append(Channel(f"{members[a]}:o", dest))
    for m in members:
        processes[m] = Process(m, m, tuple(ports[m]) + (Port(f"{m}:o", "o", core.OUTPUT),))
    root = Process("root", "root")
    processes["root"] = root
    net = ProcessNet(frozenset(members), frozenset(channels))
    return Model({}, processes, "root", {"root": (net, InterfaceBinding())}), edges, n


def test_criterion_2_cycle_oracle():
    with criterion(2, "serialization matches exhaustive cycle enumeration on 500 graphs", 5.0):
        rng = random.Random(20_240_817)
        mismatches = 0
        for _ in range(500):
            model, edges, n = _random_port_graph(rng)
            reach = [[False] * n for _ in range(n)]
            for a, b in edges:
                reach[a][b] = True
            for k in range(n):
                for i in range(n):
                    if reach[i][k]:
                        row_k = reach[k]
                        row_i = reach[i]
                        for j in range(n):
                            if row_k[j]:
                                row_i[j] = True
            cyclic = any(reach[i][i] for i in range(n))
            try:
                order = serialize_order(model, "root")
                ranks = sorted(order.values())
                assert len(set(ranks)) == len(ranks), "f must be injective"
                if cyclic:
                    mismatches += 1
            except CycleDetectedError:
                if not cyclic:
                    mismatches += 1
        assert mismatches == 0


# --- 3 and 4. rule preservation and fold/unfold round trip --------------------------


def test_criterion_3_rule_preservation(criterion_3_walks):
    """Every result validates clean, as it carries its findings and in full
    on a copy that carries none.  The walks are walked once, by the
    ``criterion_3_walks`` fixture, which the carried-tables test shares; the
    budget holds over that walk and these checks."""
    walks = criterion_3_walks
    label = "100 random rule applications on 200 models preserve validity"
    with criterion(3, label, 60.0, spent=walks.seconds):
        assert walks.mismatched == [], walks.mismatched[:10]
        assert walks.violations == 0


def test_criterion_4_fold_unfold_round_trip():
    with criterion(4, "fold of a convex group then unfold is isomorphic on 200 models", 30.0):
        failures = 0
        for seed in range(200):
            model = gen_model(seed, max_depth=3, max_members=6)
            rng = random.Random(1000 + seed)
            owners = sorted(
                o for o in model.nets if len(model.nets[o][0].processes) >= 2
            )
            owner = rng.choice(owners)
            group = random_convex_group(model, rng, owner)
            folded = refine.fold(model, owner, group, "folded_group")
            fresh = next(p for p in folded.processes if p not in model.processes)
            back = refine.unfold(folded, owner, fresh)
            if check.model_isomorphic(back, model) is None:
                failures += 1
        assert failures == 0


# --- 5. paper-figure replay ----------------------------------------------------------


def _run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def test_criterion_5_paper_figure_replay(tmp_path):
    with criterion(5, "fixture scripts replay and print the split annotation", 1.0):
        code, _ = _run_cli(
            "check",
            FIXTURES / "library.bpn",
            FIXTURES / "library_refined.bpn",
            FIXTURES / "library_decompose.bps",
        )
        assert code == 0
        code, _ = _run_cli(
            "check",
            FIXTURES / "bp.bpn",
            FIXTURES / "bp_refined.bpn",
            FIXTURES / "bp_refine.bps",
        )
        assert code == 0
        code, out = _run_cli(
            "apply", FIXTURES / "bp.bpn", FIXTURES / "bp_refine.bps", tmp_path / "o.bpn"
        )
        assert code == 0
        assert "out_1^{bp} ~> {out_1^{bp21}, out_1^{bp22}}" in out.splitlines()


# --- 6. simulator confluence and greediness ------------------------------------------

_FIXTURE_RUNS = [
    ("library.bpn", [("req", "whole", "b42")]),
    ("library_refined.bpn", [("req", "whole", "b42")]),
    ("bp.bpn", [("in_1", "whole", "x"), ("in_2", "whole", "y")]),
    ("bp_fig6.bpn", [("in_1", "whole", "x"), ("in_2", "whole", "y")]),
    ("bp_refined.bpn", [("in_1", "whole", "x"), ("in_2", "whole", "y")]),
]


def test_criterion_6_confluence_and_greediness():
    with criterion(6, "1000-trial confluence on all fixtures plus greedy partial firing", 10.0):
        for name, entries in _FIXTURE_RUNS:
            model = textio.parse_model((FIXTURES / name).read_text())
            env = sim.prepare_env(model, entries)
            assert sim.check_confluence(model, env, trials=1000, seed=99), name
        fig6 = textio.parse_model((FIXTURES / "bp_fig6.bpn").read_text())
        env = sim.prepare_env(fig6, [("in_1", "whole", "x")])
        _, trace = sim.simulate_greedy(fig6, env)
        assert trace == [("bp.bp1", 0)], "only bp1 fires on partial input"
        in2_flat = sim.flatten_with_boundary(fig6)[1][
            core.port_by_name(fig6, "bp", "in_2")
        ]
        for pid, index in trace:
            rule = fig6.processes[pid].firing_rules[index]
            assert all(port != in2_flat for port, _ in rule.needs)


# --- 7. refinement preserves observable dataflow --------------------------------------


def _observable(model, env_entries):
    outputs, _ = sim.simulate_greedy(model, sim.prepare_env(model, env_entries))
    return {(f.port, f.label) for f in outputs}


def test_criterion_7_dataflow_preservation():
    with criterion(7, "script replay maps base outputs onto refined outputs", 5.0):
        cases = [
            ("library.bpn", "library_decompose.bps", [("req", "whole", "b42")]),
            ("bp.bpn", "bp_refine.bps", [("in_1", "whole", "x"), ("in_2", "whole", "y")]),
        ]
        for model_file, script_file, entries in cases:
            base = textio.parse_model((FIXTURES / model_file).read_text())
            script = textio.parse_script((FIXTURES / script_file).read_text())
            refined, trace = refine.apply_script(base, script)
            base_out, _ = sim.simulate_greedy(base, sim.prepare_env(base, entries))
            mapped: set[tuple[str, str]] = set()
            for frag in base_out:
                mapped |= set(trace.fragment_image(frag.port, frag.label))
            assert mapped == _observable(refined, entries), model_file


# --- 8. oracle cross-check --------------------------------------------------------------


def test_criterion_8_oracle_cross_check():
    with criterion(8, "brute force re-derives 50 random one-step refinements", 60.0):
        found = 0
        pairs = 0
        seed = 0
        while pairs < 50:
            base = gen_model(seed, max_depth=2, max_members=4, decompose_prob=0.3)
            rng = random.Random(50_000 + seed)
            seed += 1
            proposal = propose_step(base, rng)
            if proposal is None:
                continue
            refined, kind = proposal
            pairs += 1
            script = check.brute_force_derivable(base, refined, max_steps=1)
            assert script is not None, (seed, kind)
            verdict = check.check_refinement(base, refined, script)
            assert verdict.status == check.REFINES, (seed, kind)
            found += 1
        assert found == 50


# --- 9. round trip and canonical form -----------------------------------------------


def test_criterion_9_round_trip_and_canonical_form():
    with criterion(9, "parse/print round trips and canonical prints coincide", 1.0):
        for name in (
            "library.bpn",
            "library_refined.bpn",
            "bp.bpn",
            "bp_fig6.bpn",
            "bp_refined.bpn",
        ):
            model = textio.parse_model((FIXTURES / name).read_text())
            printed = textio.print_model(model)
            again = textio.parse_model(printed)
            assert check.model_isomorphic(again, model) is not None, name
            assert textio.print_model(again) == printed, name
            renamed = rename_ids(model)
            assert textio.print_model(renamed) == printed, name
