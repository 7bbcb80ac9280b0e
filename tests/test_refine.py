"""The refinement rules: example behavior, rejections, and preservation."""

from __future__ import annotations

import random

import pytest

from bpnet import check, core, refine, sim, textio
from bpnet.core import AtomicSort, RecordSort, validate_model
from bpnet.errors import (
    AlreadyDecomposedError,
    ChildNotDecomposedError,
    EmptyGroupError,
    GroupNotSubsetError,
    InterfaceMismatchError,
    NoSuchChildError,
    NotConvexError,
    PartitionMismatchError,
    SortConflictError,
    SortMismatchError,
    StepFailedError,
    TooFewPartsError,
    WouldBeIllFormedError,
    WouldCreateCycleError,
)
from bpnet.refine import NetSpec, ProcessSpec, apply_script

from conftest import FIXTURES, fixture_text, run_bounded
from genmodels import gen_model, propose_step


def names_of(model, port_ids):
    return sorted(model.ports[p].name for p in port_ids)


def step(line: str) -> refine.Step:
    """The one step a script line parses to."""
    (only,) = textio.parse_script(line).steps
    return only


def split(model, line: str):
    """The model a one-step script leaves, and the ``~>`` map of its step."""
    result, trace = apply_script(model, textio.parse_script(line))
    return result, trace.port_map()


class TestDecompose:
    def test_fig6_decomposition_keeps_interface(self, bp_model, bp_script):
        step = bp_script.steps[0]
        result, _ = step.apply(bp_model)
        assert validate_model(result) == []
        ins, outs = core.abstract_net(result, "bp")
        binding = result.nets["bp"][1].to_parent()
        assert {binding[p] for p in ins} == set(result.processes["bp"].inputs)
        assert {binding[p] for p in outs} == set(result.processes["bp"].outputs)

    def test_smaller_boundary_is_an_interface_mismatch(self, bp_model):
        spec = NetSpec(
            members=(ProcessSpec("bp1", (("in_1", None),), (("out_1", None),)),),
            input_binds=(("bp1", "in_1", "in_1"),),
            output_binds=(("bp1", "out_1", "out_1"),),
        )
        with pytest.raises(InterfaceMismatchError):
            refine.DecomposeStep(("bp",), spec).apply(bp_model)

    def test_reserve_book_decomposition(self, library_model, library_script):
        result, _ = library_script.steps[0].apply(library_model)
        ins, outs = core.abstract_net(result, "system.reserve_book")
        assert names_of(result, ins) == ["in_1"]
        assert names_of(result, outs) == ["out_1", "out_2"]

    def test_already_decomposed(self, library_refined, library_script):
        with pytest.raises(StepFailedError) as exc:
            apply_script(library_refined, library_script)
        assert isinstance(exc.value.cause, AlreadyDecomposedError)

    def test_one_sided_sorts_propagate_across_binding(self):
        m = textio.parse_model("sort A\nprocess bp { in x : A; out y }")
        spec = NetSpec(
            members=(ProcessSpec("p", (("x", None),), (("y", None),)),),
            input_binds=(("p", "x", "x"),),
            output_binds=(("p", "y", "y"),),
        )
        result, _ = refine.DecomposeStep(("bp",), spec).apply(m)
        inner = core.port_by_name(result, "bp.p", "x")
        assert result.ports[inner].sort == AtomicSort("A")


class TestAddChannel:
    def test_fresh_channel_keeps_external_interface(self, bp_fig6):
        before = core.abstract_net(bp_fig6, "bp")
        result, _ = step("add-channel bp.bp1.out_2 -> bp.bp2.in_3").apply(bp_fig6)
        assert validate_model(result) == []
        # fresh internal ports do not change bp's own interface
        assert names_of(result, result.processes["bp"].inputs) == ["in_1", "in_2"]
        assert names_of(result, result.processes["bp"].outputs) == ["out_1"]
        assert core.abstract_net(result, "bp") == before

    def test_reverse_channel_would_create_cycle(self, bp_fig6):
        with pytest.raises(WouldCreateCycleError):
            step("add-channel bp.bp2.back -> bp.bp1.fwd").apply(bp_fig6)

    def test_fresh_dest_on_decomposed_process(self, library_refined):
        before_in, before_out = core.abstract_net(library_refined, "system.reserve_book")
        line = "add-channel system.retrieve_book.out_aux -> system.reserve_book.in_aux"
        result, _ = step(line).apply(library_refined)
        assert validate_model(result) == []
        after_in, after_out = core.abstract_net(result, "system.reserve_book")
        assert len(after_in) == len(before_in) + 1
        assert after_out == before_out
        binding = result.nets["system.reserve_book"][1]
        assert len(binding.pairs) == len(library_refined.nets["system.reserve_book"][1].pairs) + 1

    def test_lifting_endpoints_in_different_layers(self, library_refined):
        # from inside the reserve_book subnet out to the notify process
        line = (
            "add-channel system.reserve_book.issue_notification.out_aux"
            " -> system.notify_user.in_aux"
        )
        result, _ = step(line).apply(library_refined)
        assert validate_model(result) == []
        top_net, _ = result.nets["system"]
        assert len(top_net.channels) == len(library_refined.nets["system"][0].channels) + 1

    def test_broadcast_source_reuse(self, bp_fig6):
        result, _ = step("add-channel bp.bp1.out_1 -> bp.bp2.in_3").apply(bp_fig6)
        net, _ = result.nets["bp"]
        srcs = [c for c in net.channels if result.ports[c.source].name == "out_1"]
        assert len(srcs) == 2

    def test_endpoint_containing_the_other_is_rejected(self, library_refined):
        from bpnet.errors import CrossNetEndpointsError

        with pytest.raises(CrossNetEndpointsError):
            step(
                "add-channel system.reserve_book.issue_notification.out_x"
                " -> system.reserve_book.in_x"
            ).apply(library_refined)

    def test_cyclic_containment_ends_in_a_rule_error(self):
        # the root is put in the net of one of its members; the walk up from
        # check_availability ends at the root, the dest, which contains it
        done = run_bounded(
            f"""
import dataclasses
from bpnet import refine, textio
from bpnet.errors import RuleError
with open({str(FIXTURES / "library_refined.bpn")!r}) as f:
    model = textio.parse_model(f.read())
net, binding = model.nets["system.reserve_book"]
net = dataclasses.replace(net, processes=net.processes | {{"system"}})
model = dataclasses.replace(
    model, nets={{**model.nets, "system.reserve_book": (net, binding)}}
)
source = refine.PortRef(("system", "reserve_book", "check_availability"), "zz")
try:
    refine.AddChannelStep(source, refine.PortRef(("system",), "yy")).apply(model)
except RuleError as exc:
    print(type(exc).__name__)
"""
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "CrossNetEndpointsError\n"

    def test_same_process_endpoints_rejected(self, bp_fig6):
        with pytest.raises(WouldCreateCycleError):
            step("add-channel bp.bp1.out_x -> bp.bp1.in_x").apply(bp_fig6)


class TestAssignSort:
    def test_propagates_to_bound_partner(self, bp_fig6):
        m = textio.parse_model(
            "sort T\nprocess bp { in a; out b }\n"
            "net for bp { process p { in a; out b }\n"
            "input p.a binds bp.a\noutput p.b binds bp.b }"
        )
        out_port = core.port_by_name(m, "bp", "b")
        result, _ = step("assign-sort bp.b : T").apply(m)
        inner = core.port_by_name(result, "bp.p", "b")
        assert result.ports[inner].sort == AtomicSort("T")
        assert result.ports[out_port].sort == AtomicSort("T")

    def test_idempotent_returns_same_model(self, bp_model):
        result, _ = step("assign-sort bp.out_1 : BookData").apply(bp_model)
        assert result is bp_model

    def test_conflicting_peer_is_rejected(self):
        m = textio.parse_model(
            "sort A\nsort B\nprocess system { }\n"
            "net for system { process p { out o : B }\nprocess q { in i }\n"
            "channel p.o -> q.i }"
        )
        with pytest.raises(SortConflictError):
            step("assign-sort system.q.i : A").apply(m)


class TestSplitPort:
    def test_record_partition(self):
        m = textio.parse_model(
            "sort A\nsort B\nsort R = record { a: A, b: B }\n"
            "process bp { in x; out y : R }"
        )
        port = core.port_by_name(m, "bp", "y")
        result, mapping = split(m, "split-port bp.y -> ya : a, yb : b")
        assert validate_model(result) == []
        parts = mapping[port]
        assert names_of(result, parts) == ["ya", "yb"]
        sorts = {result.ports[p].name: result.ports[p].sort for p in parts}
        assert sorts == {"ya": AtomicSort("A"), "yb": AtomicSort("B")}

    def test_named_field_goes_to_its_part(self):
        # both fields have sort T, so the sort alone cannot tell them apart
        m = textio.parse_model(
            "sort T\nsort R = record { a: T, b: T }\n"
            "process top { out o : R }\nrule top : needs { } produces { o.b }"
        )
        script = textio.parse_script("split-port top.o -> x : b, y : a")
        result, trace = apply_script(m, script)
        assert trace.fragment_image("top:o", "b") == {("top:x", "whole")}
        assert trace.fragment_image("top:o", "a") == {("top:y", "whole")}
        (rule,) = result.processes["top"].firing_rules
        assert rule.produces == (("top:x", "whole"),)

    def test_field_covered_twice_is_rejected(self):
        m = textio.parse_model(
            "sort A\nsort R = record { a: A, b: A }\nprocess bp { out y : R }"
        )
        with pytest.raises(PartitionMismatchError):
            step("split-port bp.y -> p : { a }, q : { a }").apply(m)

    def test_collection_sorts_do_not_split(self):
        m = textio.parse_model(
            "sort A\nsort S = seq A\nprocess bp { out y : S }"
        )
        with pytest.raises(PartitionMismatchError):
            step("split-port bp.y -> p, q").apply(m)

    def test_too_few_parts(self, bp_model):
        with pytest.raises(TooFewPartsError):
            step("split-port bp.out_1 -> only : descr").apply(bp_model)

    def test_split_propagates_through_hierarchy(self, bp_fig6):
        result, mapping = split(bp_fig6, "split-port bp.out_1 -> out_1a : descr, out_1b : avail")
        assert validate_model(result) == []
        inner = core.port_by_name(bp_fig6, "bp.bp2", "out_1")
        assert names_of(result, mapping[inner]) == ["out_1a", "out_1b"]
        # firing-rule references follow the split
        bp2 = result.processes["bp.bp2"]
        produced = {
            (result.ports[p].name, lab) for p, lab in bp2.firing_rules[0].produces
        }
        assert produced == {("out_1a", "whole"), ("out_1b", "whole")}

    def test_unspecified_port_splits_freely(self):
        m = textio.parse_model("process bp { out y }")
        port = core.port_by_name(m, "bp", "y")
        result, mapping = split(m, "split-port bp.y -> p, q")
        assert len(mapping[port]) == 2
        assert validate_model(result) == []

    def test_nets_outside_the_closure_are_kept(self):
        m = textio.parse_model(
            "process top { }\n"
            "net for top {\n  process a { out o }\n  process b { in i }\n  process d { }\n"
            "  channel a.o -> b.i\n}\n"
            "net for top.b {\n  process c { in i }\n  input c.i binds b.i\n}\n"
            "net for top.d {\n  process e { }\n}\n"
        )
        result, mapping = split(m, "split-port top.a.o -> p, q")
        assert validate_model(result) == []
        inner = core.port_by_name(m, "top.b.c", "i")
        assert names_of(result, mapping[inner]) == ["p", "q"]
        assert result.nets["top.d"] is m.nets["top.d"]

    # a record whose field ``r`` is itself a record
    NESTED = (
        "sort X\nsort B\nsort R = record { x: X }\nsort T = record { r: R, b: B }\n"
        "process top { out o : T }\nrule top : needs { } produces { o.r, o.b }"
    )
    R = RecordSort((("x", AtomicSort("X")),))

    def test_named_record_field_goes_to_its_part(self):
        m = textio.parse_model(self.NESTED)
        result, trace = apply_script(m, textio.parse_script("split-port top.o -> p : r, q : b"))
        assert validate_model(result) == []
        assert result.ports["top:p"].sort == self.R
        assert trace.fragment_image("top:o", "r") == {("top:p", "whole")}
        (rule,) = result.processes["top"].firing_rules
        assert rule.produces == (("top:p", "whole"), ("top:q", "whole"))

    def test_record_sorted_part_takes_its_field_bare(self):
        # the search names a part's fields by ``part_fields``, from its sort
        m = textio.parse_model(self.NESTED)
        port = core.port_by_name(m, "top", "o")
        fields = refine.part_fields(m.ports[port].sort, [self.R, AtomicSort("B")])
        assert fields == ["r", "b"]
        result, mapping = split(m, "split-port top.o -> p : r, q : b")
        assert validate_model(result) == []
        assert names_of(result, mapping[port]) == ["p", "q"]
        assert result.ports["top:p"].sort == self.R
        (rule,) = result.processes["top"].firing_rules
        assert rule.produces == (("top:p", "whole"), ("top:q", "whole"))

    def test_search_rederives_record_field_split(self):
        m = textio.parse_model(self.NESTED)
        refined, _ = apply_script(m, textio.parse_script("split-port top.o -> p : r, q : b"))
        script = check.brute_force_derivable(m, refined, max_steps=1)
        assert script is not None
        assert check.check_refinement(m, refined, script).status == check.REFINES


class TestUnfold:
    def test_library_unfold_wires_subnet_into_top_net(self, library_refined):
        result = refine.unfold(library_refined, "system", "system.reserve_book")
        assert validate_model(result) == []
        net, _ = result.nets["system"]
        member_names = {result.processes[m].name for m in net.processes}
        assert member_names == {
            "retrieve_book",
            "check_availability",
            "issue_notification",
            "notify_user",
        }
        assert "system.reserve_book" not in result.processes

    def test_unfold_then_fold_is_isomorphic(self, library_refined):
        unfolded = refine.unfold(library_refined, "system", "system.reserve_book")
        line = "fold system { check_availability, issue_notification } as reserve_book"
        refolded, _ = step(line).apply(unfolded)
        assert check.model_isomorphic(refolded, library_refined) is not None

    def test_leaf_cannot_be_unfolded(self, library_refined):
        with pytest.raises(ChildNotDecomposedError):
            refine.unfold(library_refined, "system", "system.notify_user")

    def test_unknown_child(self, library_refined):
        with pytest.raises(NoSuchChildError):
            refine.unfold(library_refined, "system", "system")

    def test_child_port_bound_to_nothing_is_interface_mismatch(self):
        m = textio.parse_model(
            "process top { in a }\n"
            "net for top {\n"
            "  process c { in x; out y }\n"
            "  input c.x binds top.a\n"
            "}\n"
            "net for top.c {\n"
            "  process d { in x }\n"
            "  input d.x binds c.x\n"
            "}\n"
        )
        with pytest.raises(InterfaceMismatchError, match="port 'top.c:y' of 'top.c'"):
            refine.unfold(m, "top", "top.c")


class TestFold:
    def test_fold_then_unfold_restores_net(self, bp_fig6):
        # {bp1, bp2} is the full member set, so fold a proper subset
        folded, _ = step("fold bp { bp1 } as grp").apply(bp_fig6)
        assert validate_model(folded) == []
        qid = next(p for p in folded.processes if p not in bp_fig6.processes)
        # the fresh process's interface mirrors the extracted boundary
        assert names_of(folded, folded.processes[qid].inputs) == ["in_1"]
        assert names_of(folded, folded.processes[qid].outputs) == ["out_1"]
        back = refine.unfold(folded, "bp", qid)
        assert check.model_isomorphic(back, bp_fig6) is not None

    def test_fold_library_pair(self, library_refined):
        unfolded = refine.unfold(library_refined, "system", "system.reserve_book")
        line = "fold system { check_availability, issue_notification } as desk"
        folded, _ = step(line).apply(unfolded)
        assert validate_model(folded) == []
        qid = next(p for p in folded.processes if folded.processes[p].name == "desk")
        assert names_of(folded, folded.processes[qid].inputs) == ["in_1"]
        assert names_of(folded, folded.processes[qid].outputs) == ["out_1", "out_2"]

    def test_non_convex_group_rejected_with_witness(self):
        m = textio.parse_model(
            """
            process system { }
            net for system {
              process a { out o }
              process x { in i; out o }
              process b { in i }
              channel a.o -> x.i
              channel x.o -> b.i
            }
            """
        )
        with pytest.raises(NotConvexError) as exc:
            step("fold system { a, b } as grp").apply(m)
        # the cycle the fold would close, through the would-be process
        assert exc.value.witness == ["system.grp", "system.x"]
        assert str(exc.value) == "folding would create a cycle at the parent level"

    def test_group_beside_a_cycle_is_not_convex(self):
        m = textio.parse_model(
            """
            process system { }
            net for system {
              process a { in i; out o }
              process b { in i; out o }
              process c { }
              channel a.o -> b.i
              channel b.o -> a.i
            }
            """
        )
        with pytest.raises(NotConvexError) as exc:
            step("fold system { c } as grp").apply(m)
        assert exc.value.witness == ["system.a", "system.b"]

    def test_full_member_set_rejected(self, bp_fig6):
        net, _ = bp_fig6.nets["bp"]
        names = sorted(bp_fig6.processes[m].name for m in net.processes)
        with pytest.raises(GroupNotSubsetError):
            refine.FoldStep(("bp",), tuple(names), "grp").apply(bp_fig6)

    def test_empty_group_rejected(self, bp_fig6):
        with pytest.raises(EmptyGroupError):
            refine.FoldStep(("bp",), (), "grp").apply(bp_fig6)


class TestApplyScript:
    def test_empty_script_is_identity(self, library_model):
        result, trace = apply_script(library_model, refine.RefinementScript())
        assert result is library_model
        assert len(trace) == 0

    def test_bp_script_records_the_split_map(self, bp_model, bp_script):
        result, trace = apply_script(bp_model, bp_script)
        origin = core.port_by_name(bp_model, "bp", "out_1")
        image = trace.port_image(origin)
        rendered = sorted(core.format_port(result, p) for p in image)
        assert rendered == ["out_1^{bp21}", "out_1^{bp22}"]

    def test_failing_step_reports_index_and_leaves_input_unchanged(self, bp_fig6):
        script = textio.parse_script(
            "add-channel bp.bp1.out_9 -> bp.bp2.in_9\n"
            "add-channel bp.bp2.back -> bp.bp1.loop\n"
        )
        with pytest.raises(StepFailedError) as exc:
            apply_script(bp_fig6, script)
        assert exc.value.index == 2
        assert isinstance(exc.value.cause, WouldCreateCycleError)
        assert validate_model(bp_fig6) == []

    def test_trace_accumulates_process_map(self, bp_model, bp_script):
        result, trace = apply_script(bp_model, bp_script)
        image = trace.process_image("bp")
        names = sorted(result.processes[p].name for p in image)
        assert names == ["bp1", "bp21", "bp22"]

    def test_trace_length_is_step_count(self, bp_model, bp_script):
        _, trace = apply_script(bp_model, bp_script)
        assert len(trace) == len(bp_script.steps) == 6

    def test_root_cannot_be_unfolded(self, library_refined):
        script = textio.parse_script("unfold system")
        with pytest.raises(StepFailedError) as exc:
            apply_script(library_refined, script)
        assert isinstance(exc.value.cause, NoSuchChildError)

    def test_unknown_port_in_script_fails_the_step(self, bp_model):
        script = textio.parse_script("assign-sort bp.ghost : BookData")
        with pytest.raises(StepFailedError) as exc:
            apply_script(bp_model, script)
        assert exc.value.index == 1


# one well-formed model and one script line per rejection no other test reaches
EMPTY_SUBNET = """
process system { }
net for system {
  process p { }
  process q { out o }
}
net for system.p { }
"""
CLOSURE_SORTS = """
sort A
sort B
process system { }
net for system {
  process a { out o }
  process c { in i : B }
  process d { in i : A }
  process e { out o : A }
  channel a.o -> c.i
  channel e.o -> d.i
}
"""
THREE_FIELDS = """
sort A
sort B
sort C
sort R = record { a: A, b: B, c: C }
process system { }
net for system {
  process p { out o : R }
}
"""
SORTED_PEER = """
sort A
process system { }
net for system {
  process p { out o }
  process q { in i : A }
  channel p.o -> q.i
}
"""
REJECTIONS = [
    (
        "bound-twice",
        "bp.bpn",
        "decompose bp { process a { in x; out o : BookData }\n"
        "input a.x binds bp.in_1\ninput a.x binds bp.in_2\noutput a.o binds bp.out_1 }",
        InterfaceMismatchError,
        "binding must map onto the subnet boundary",
    ),
    (
        "direction",
        "bp.bpn",
        "decompose bp { process a { in x y; out o : BookData }\n"
        "input a.x binds bp.in_1\noutput a.y binds bp.in_2\ninput a.o binds bp.out_1 }",
        InterfaceMismatchError,
        "binding does not preserve direction for 'bp:in_2'",
    ),
    (
        "bound-sorts",
        "bp.bpn",
        "decompose bp { process a { in x y; out o : Description }\n"
        "input a.x binds bp.in_1\ninput a.y binds bp.in_2\noutput a.o binds bp.out_1 }",
        InterfaceMismatchError,
        "bound ports 'bp:out_1' and 'bp.a:o' carry different sorts",
    ),
    (
        "empty-subnet",
        EMPTY_SUBNET,
        "add-channel system.q.o -> system.p.i",
        WouldBeIllFormedError,
        "cannot realize a fresh port inside the empty net of 'system.p'",
    ),
    (
        "closure-sorts",
        CLOSURE_SORTS,
        "add-channel system.a.o -> system.d.i",
        SortMismatchError,
        "channel would connect ports with conflicting sorts",
    ),
    (
        "field-uncovered",
        THREE_FIELDS,
        "split-port system.p.o -> x : a, y : b",
        PartitionMismatchError,
        "fields ['c'] not covered by any part",
    ),
    (
        "closure-member-sort",
        SORTED_PEER,
        "split-port system.p.o -> x, y",
        SortConflictError,
        "closure member 'system.q:i' carries a different sort; cannot split",
    ),
]


class TestRejections:
    @pytest.mark.parametrize(
        "model, line, error, message",
        [r[1:] for r in REJECTIONS],
        ids=[r[0] for r in REJECTIONS],
    )
    def test_rule_error_and_message(self, model, line, error, message):
        text = fixture_text(model) if model.endswith(".bpn") else model
        base = textio.parse_model(text)
        assert validate_model(base) == []
        with pytest.raises(StepFailedError) as exc:
            apply_script(base, textio.parse_script(line))
        assert type(exc.value.cause) is error
        assert str(exc.value) == f"step 1 failed: {message}"


class TestRulePreservation:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_walks_stay_well_formed(self, seed):
        rng = random.Random(seed)
        model = gen_model(seed, max_depth=2, max_members=4)
        for _ in range(15):
            proposal = propose_step(model, rng)
            assert proposal is not None
            model, _ = proposal
            assert validate_model(model) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_acyclicity_preserved(self, seed):
        rng = random.Random(100 + seed)
        model = gen_model(seed, max_depth=2, max_members=4)
        for _ in range(10):
            proposal = propose_step(model, rng)
            assert proposal is not None
            model, _ = proposal
            for owner in model.nets:
                core.serialize_order(model, owner)  # raises on any cycle

    def test_monotone_sorts_along_fixture_script(self, bp_model, bp_script):
        model, trace = apply_script(bp_model, bp_script)
        for origin_id, origin in bp_model.ports.items():
            if origin.sort is None:
                continue
            for frag_port, _ in trace.fragment_image(origin_id, core.WHOLE):
                image_sort = model.ports[frag_port].sort
                assert image_sort is not None, "specified sorts never become unspecified"

    def test_interface_stability_for_untouched_processes(self, library_refined):
        line = "add-channel system.retrieve_book.out_aux -> system.notify_user.in_aux"
        touched, _ = step(line).apply(library_refined)
        before = core.abstract_net(library_refined, "system.reserve_book")
        after = core.abstract_net(touched, "system.reserve_book")
        assert before == after


class TestGreedyPreservation:
    def test_bp_script_preserves_observable_dataflow(self, bp_model, bp_script):
        refined, trace = apply_script(bp_model, bp_script)
        entries = [("in_1", "whole", "x"), ("in_2", "whole", "y")]
        base_out, _ = sim.simulate_greedy(bp_model, sim.prepare_env(bp_model, entries))
        ref_out, _ = sim.simulate_greedy(refined, sim.prepare_env(refined, entries))
        mapped = set()
        for frag in base_out:
            mapped |= set(trace.fragment_image(frag.port, frag.label))
        assert mapped == {(f.port, f.label) for f in ref_out}


def test_readme_library_example_runs(monkeypatch, capsys):
    """The code block of the README's ``## Library`` section runs as written,
    from the repository root, so the documented API cannot drift."""
    readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(FIXTURES.parent)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("{")
