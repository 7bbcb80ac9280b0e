"""Isomorphism checking, refinement verdicts, and the bounded search oracle."""

from __future__ import annotations

import random

import pytest

from bpnet import check, core, refine, textio
from bpnet.check import DOES_NOT_MATCH, REFINES, SCRIPT_FAILS
from bpnet.errors import SearchBudgetExceededError
from bpnet.refine import RefinementScript, apply_script

from genmodels import DERIVE_BASE, gen_model, nested_model, propose_step, rename_ids


class TestModelIsomorphic:
    def test_renamed_ids_yield_a_witness(self, library_refined):
        renamed = rename_ids(library_refined)
        iso = check.model_isomorphic(library_refined, renamed)
        assert iso is not None
        # the witness maps every process and preserves names
        assert len(iso.process_map) == len(library_refined.processes)
        for a, b in iso.process_map.items():
            assert library_refined.processes[a].name == renamed.processes[b].name

    def test_removed_channel_is_detected(self, library_model):
        net, binding = library_model.nets["system"]
        smaller = core.ProcessNet(
            net.processes,
            frozenset(sorted(net.channels, key=str)[1:]),
            net.env_inputs,
            net.env_outputs,
        )
        broken = core.Model(
            library_model.sort_table,
            library_model.processes,
            library_model.root,
            {"system": (smaller, binding)},
        )
        assert check.model_isomorphic(library_model, broken) is None

    def test_canonical_print_equality_implies_isomorphism(self, bp_refined):
        other = rename_ids(bp_refined)
        assert textio.print_model(bp_refined) == textio.print_model(other)
        assert check.model_isomorphic(bp_refined, other) is not None

    def test_reflexive(self, library_refined):
        assert check.model_isomorphic(library_refined, library_refined) is not None

    def test_nesting_deeper_than_the_recursion_limit(self):
        deep = nested_model(600)
        iso = check.model_isomorphic(deep, rename_ids(deep))
        assert iso is not None and len(iso.process_map) == 601
        assert check.model_isomorphic(deep, nested_model(599)) is None

    def test_nets_containing_each_other_end(self):
        """Models whose nets each list the other's owner, matched pair by
        pair, are reported rather than walked forever."""
        m = textio.parse_model("process system { } net for system { process a { } }")
        loop = (core.ProcessNet(frozenset({"system"})), core.InterfaceBinding())
        looped = core.Model(m.sort_table, m.processes, m.root, {**m.nets, "system.a": loop})
        iso, reason = check._match_models(looped, looped)
        assert iso is None and reason == "net of 'system': containment is cyclic"

    def test_symmetric_witness_inverts(self, library_refined):
        renamed = rename_ids(library_refined)
        fwd = check.model_isomorphic(library_refined, renamed)
        back = check.model_isomorphic(renamed, library_refined)
        assert fwd is not None and back is not None
        for a, b in fwd.process_map.items():
            assert back.process_map[b] == a
        for a, b in fwd.port_map.items():
            assert back.port_map[b] == a

    def test_transitive_composition_verifies(self, library_refined):
        m2 = rename_ids(library_refined)
        m3 = rename_ids(m2)
        one = check.model_isomorphic(library_refined, m2)
        two = check.model_isomorphic(m2, m3)
        composed = {a: two.process_map[b] for a, b in one.process_map.items()}
        direct = check.model_isomorphic(library_refined, m3)
        assert composed == direct.process_map

    def test_different_sort_tables_do_not_match(self, bp_model):
        smaller = core.Model(
            {k: v for k, v in bp_model.sort_table.items() if k != "Description"},
            bp_model.processes,
            bp_model.root,
            bp_model.nets,
        )
        assert check.model_isomorphic(bp_model, smaller) is None


class TestCheckRefinement:
    def test_library_decomposition_refines(
        self, library_model, library_refined, library_script
    ):
        verdict = check.check_refinement(library_model, library_refined, library_script)
        assert verdict.status == REFINES
        assert verdict.isomorphism is not None
        assert verdict.trace is not None

    def test_identity_with_empty_script(self, library_model):
        verdict = check.check_refinement(library_model, library_model, RefinementScript())
        assert verdict.status == REFINES

    def test_extra_channel_does_not_match(self, bp_fig6):
        script = textio.parse_script("add-channel bp.bp1.out_2 -> bp.bp2.in_3")
        verdict = check.check_refinement(bp_fig6, bp_fig6, script)
        assert verdict.status == DOES_NOT_MATCH
        assert verdict.detail

    @pytest.mark.parametrize(
        "other, status, detail",
        [
            ("process w { in i }", DOES_NOT_MATCH, "top-level processes differ"),
            ("process z { out o }", DOES_NOT_MATCH, "process 'z': different number of inputs"),
            ("process z { in i }", REFINES, "script replay matches the refined model"),
        ],
    )
    def test_top_level_processes_are_matched_by_name(self, other, status, detail):
        """Only a model with a process outside every net, which ``bpn check``
        rejects as ill-formed before the replay, reaches these verdicts."""
        base = textio.parse_model("process root { in i }\nprocess z { in i }\n")
        refined = textio.parse_model(f"process root {{ in i }}\n{other}\n")
        verdict = check.check_refinement(base, refined, RefinementScript())
        assert (verdict.status, verdict.detail) == (status, detail)

    def test_failing_script_reports_step(self, bp_fig6):
        script = textio.parse_script(
            "assign-sort bp.out_1 : BookData\nunfold bp.bp1"
        )
        verdict = check.check_refinement(bp_fig6, bp_fig6, script)
        assert verdict.status == SCRIPT_FAILS
        assert verdict.failed_step == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_identity_refinement_on_generated_models(self, seed):
        model = gen_model(seed, max_depth=2, max_members=4)
        verdict = check.check_refinement(model, model, RefinementScript())
        assert verdict.status == REFINES


class TestBruteForce:
    def test_assign_sort_found_in_one_step(self):
        base = textio.parse_model(
            "sort Reservation\nprocess bp { in in_1 in_2; out out_1 }"
        )
        refined, _ = apply_script(base, textio.parse_script("assign-sort bp.out_1 : Reservation"))
        script = check.brute_force_derivable(base, refined, max_steps=1)
        assert script is not None
        assert len(script.steps) == 1
        assert isinstance(script.steps[0], refine.AssignSortStep)
        assert check.check_refinement(base, refined, script).status == REFINES

    def test_equal_models_need_zero_steps(self, library_model):
        script = check.brute_force_derivable(library_model, library_model, max_steps=0)
        assert script is not None
        assert script.steps == ()

    def test_two_step_target_is_not_derivable_in_one_step(self):
        base = textio.parse_model("sort A\nsort B\nprocess bp { in in_1 in_2; out out_1 }")
        two = textio.parse_script("assign-sort bp.in_1 : A\nassign-sort bp.in_2 : B")
        refined, _ = apply_script(base, two)
        assert check.brute_force_derivable(base, refined, max_steps=1) is None
        found = check.brute_force_derivable(base, refined, max_steps=2)
        assert found is not None
        assert check.check_refinement(base, refined, found).status == REFINES

    def test_budget_is_enforced(self, bp_model, bp_refined):
        with pytest.raises(SearchBudgetExceededError):
            check.brute_force_derivable(bp_model, bp_refined, max_steps=3, node_limit=5)

    def test_search_is_deterministic(self, bp_model):
        base = textio.parse_model(
            "sort Reservation\nprocess bp { in in_1 in_2; out out_1 }"
        )
        refined, _ = apply_script(base, textio.parse_script("assign-sort bp.out_1 : Reservation"))
        first = check.brute_force_derivable(base, refined, max_steps=1)
        second = check.brute_force_derivable(base, refined, max_steps=1)
        assert first == second

    @pytest.mark.parametrize("seed", range(6))
    def test_soundness_link_on_random_pairs(self, seed):
        base = gen_model(seed, max_depth=2, max_members=4, decompose_prob=0.3)
        rng = random.Random(10_000 + seed)
        proposal = propose_step(base, rng)
        assert proposal is not None
        refined, kind = proposal
        script = check.brute_force_derivable(base, refined, max_steps=1)
        assert script is not None, kind
        assert check.check_refinement(base, refined, script).status == REFINES

    def test_unfold_found_in_one_step(self):
        base = textio.parse_model(DERIVE_BASE)
        refined, _ = refine.UnfoldStep(("system", "p2")).apply(base)
        script = check.brute_force_derivable(base, refined, max_steps=1)
        assert script == RefinementScript((refine.UnfoldStep(("system", "p2")),))
        assert check.check_refinement(base, refined, script).status == REFINES

    def test_two_unfolds_found_without_applying_assign_sort(self, monkeypatch):
        base = textio.parse_model(DERIVE_BASE)
        once, _ = refine.UnfoldStep(("system", "p1")).apply(base)
        refined, _ = refine.UnfoldStep(("system", "p2")).apply(once)
        applied = []
        apply = refine.AssignSortStep.apply

        def counting(step, model):
            applied.append(step)
            return apply(step, model)

        monkeypatch.setattr(refine.AssignSortStep, "apply", counting)
        script = check.brute_force_derivable(base, refined, max_steps=2)
        assert script is not None
        assert script.steps == (
            refine.UnfoldStep(("system", "p1")),
            refine.UnfoldStep(("system", "p2")),
        )
        assert check.check_refinement(base, refined, script).status == REFINES
        # an assign-sort keeps the process count, a surplus the steps left cannot remove
        assert applied == []
