"""Parsing, canonical printing, script parsing, and DOT export."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpnet import check, core, textio
from bpnet.errors import (
    DuplicateDefinitionError,
    NoNetError,
    ParseError,
    UnknownRuleNameError,
    UnknownSortNameError,
)
from bpnet.refine import (
    AddChannelStep,
    AssignSortStep,
    DecomposeStep,
    FoldStep,
    SplitPortStep,
    UnfoldStep,
)

from conftest import run_bounded
from dotcheck import check_dot
from genmodels import gen_model, nested_model, rename_ids


class TestParseModel:
    def test_bare_process(self):
        m = textio.parse_model("process bp { in in_1 in_2; out out_1 }")
        proc = m.processes[m.root]
        assert proc.name == "bp"
        assert [m.ports[p].name for p in proc.inputs] == ["in_1", "in_2"]
        assert [m.ports[p].name for p in proc.outputs] == ["out_1"]
        assert all(m.ports[p].sort is None for p in proc.ports())

    def test_empty_text_is_rejected(self):
        with pytest.raises(ParseError):
            textio.parse_model("")

    def test_duplicate_port_name(self):
        with pytest.raises(DuplicateDefinitionError):
            textio.parse_model("process bp { in in_1 in_1 }")

    def test_duplicate_process(self):
        with pytest.raises(DuplicateDefinitionError):
            textio.parse_model("process bp { }\nprocess bp { }")

    def test_unknown_sort_name(self):
        with pytest.raises(UnknownSortNameError):
            textio.parse_model("process bp { in a : Mystery }")

    @pytest.mark.parametrize(
        "text, where",
        [
            ("process a { in x : Foo }", "v.bpn:1:20"),
            # the first port to name it, in an inline sort, a member's port
            # naming it again later
            (
                "sort A\nprocess a { in y : A; out z : record { f: seq Foo } }\n"
                "net for a { process b { in x : Foo } }",
                "v.bpn:2:47",
            ),
            ("process a { }\nnet for a { process b { out o : Foo; in i : Bar } }", "v.bpn:2:33"),
        ],
    )
    def test_unknown_sort_name_in_a_port_has_a_position(self, text, where):
        with pytest.raises(UnknownSortNameError) as exc:
            textio.parse_model(text, filename="v.bpn")
        assert str(exc.value) == f"{where}: unknown sort name 'Foo'"

    def test_recursive_sort_rejected(self):
        with pytest.raises(ParseError):
            textio.parse_model(
                "sort A = record { x: B }\nsort B = record { y: A }\nprocess p { }"
            )

    def test_sort_declarations(self):
        m = textio.parse_model(
            """
            sort BookId
            sort Batch = seq BookId
            sort Reservation = record { book: BookId, batch: Batch }
            process p { in a : Reservation }
            """
        )
        reservation = m.sort_table["Reservation"]
        assert isinstance(reservation, core.RecordSort)
        assert reservation.field_names() == ("book", "batch")
        assert m.sort_table["Batch"] == core.CollectionSort("seq", core.AtomicSort("BookId"))
        port = next(iter(m.ports.values()))
        assert port.sort == reservation

    def test_parse_error_carries_span(self):
        with pytest.raises(ParseError) as exc:
            textio.parse_model("process bp {\n  in a : @bad\n}")
        assert exc.value.span is not None
        assert exc.value.span.line == 2

    def test_duplicate_field_in_port_record_sort(self):
        with pytest.raises(DuplicateDefinitionError):
            textio.parse_model("sort A\nprocess p { in a : record { x: A, x: A } }")

    def test_error_at_end_of_input_keeps_its_position(self):
        with pytest.raises(ParseError) as exc:
            textio.parse_model("process p {\n in a\n")
        assert (exc.value.span.line, exc.value.span.column) == (2, 6)

    def test_line_ends_only_separate_tokens(self):
        one_line = textio.parse_model("sort A sort B process p { in a : A\n b : B }")
        assert sorted(one_line.sort_table) == ["A", "B"]
        assert [one_line.ports[p].name for p in one_line.processes["p"].inputs] == ["a", "b"]

    def test_unknown_reference_names_its_block(self):
        with pytest.raises(ParseError, match="net for p") as exc:
            textio.parse_model(
                "process p { }\nnet for p {\n process a { out o }\n channel a.o -> a.i\n}"
            )
        assert type(exc.value) is ParseError

    def test_parsing_tolerates_ill_formed_nets(self):
        # a 2-cycle parses fine; the validator owns constraint checking
        m = textio.parse_model(
            """
            process system { }
            net for system {
              process a { in i; out o }
              process b { in i; out o }
              channel a.o -> b.i
              channel b.o -> a.i
            }
            """
        )
        assert core.CYCLE_DETECTED in {v.code for v in core.validate_model(m)}

    def test_comment_and_blank_lines(self):
        m = textio.parse_model("# heading\n\nprocess bp { }  # trailing\n")
        assert m.root == "bp"

    def test_nested_net_paths(self, library_refined):
        assert "system.reserve_book" in library_refined.nets
        assert (
            library_refined.processes["system.reserve_book.check_availability"].name
            == "check_availability"
        )


# a net block left open, for the statements the cases below add to it
_NET = (
    "process s { in i; out o }\nnet for s {\n"
    "  process a { in i; out o }\n  process b { in i; out o }\n"
)


class TestErrorPositions:
    """The exact text of parse errors: line ends are those of
    ``str.splitlines``, and a position is the token's line and column."""

    @pytest.mark.parametrize(
        "parse, text, expected",
        [
            ("model", "process p {\r\n  in a\r\n  @ }", "<model>:3:3: unexpected character '@'"),
            ("model", "process p {\r  in a\r\r  out b @ }", "<model>:4:9: unexpected character '@'"),
            ("model", "process p {\x0c  in a\x0c\x0c    @ }", "<model>:4:5: unexpected character '@'"),
            ("model", "process p {\u2028  in a\u2028  @ }", "<model>:3:3: unexpected character '@'"),
            # a comment that ends the input, with no line end after it
            ("model", "process p {\n  in a # no newline", "<model>:2:20: unterminated process block 'p'"),
            ("model", 'process p {\n  note "open', "<model>:2:8: unterminated string"),
            ("model", "# a comment @\nprocess p { } # @\n  $", "<model>:3:3: unexpected character '$'"),
            ("script", "unfold system.a\r\nfold system { a, b } x", "<script>:2:22: fold needs 'as <name>'"),
            # a string is quoted without its quotes
            ("model", 'process p {\n  "quoted" }', "<model>:2:3: unexpected 'quoted' in process block"),
        ],
        ids=["crlf", "cr", "form-feed", "line-separator", "comment-at-end",
             "unterminated-string", "bad-after-comment", "script", "string-token"],
    )
    def test_message_and_position(self, parse, text, expected):
        with pytest.raises(ParseError) as exc:
            getattr(textio, f"parse_{parse}")(text)
        assert str(exc.value) == expected

    @pytest.mark.parametrize(
        "text, error, expected",
        [
            (_NET + "  channel a.o b.i\n}", ParseError, "5:15: expected '->', got 'b'"),
            (_NET + "  input a.i s.i\n}", ParseError, "5:13: boundary statement needs 'binds'"),
            (_NET + "  input a.i binds t.i\n}", ParseError,
             "5:19: boundary binds must name the owner 's', got 't'"),
            (_NET + "  rule a : { i } produces { o }\n}", ParseError,
             "5:12: expected 'needs', got '{'"),
            (_NET + "  rule a :", ParseError, "5:11: expected 'needs'"),
            (_NET + "  rule a : wants { i } produces { o }\n}", ParseError,
             "5:12: firing rule must start with 'needs'"),
            (_NET + "  rule a : needs { i } { o }\n}", ParseError,
             "5:24: expected 'produces', got '{'"),
            (_NET + "  rule a : needs { i } makes { o }\n}", ParseError,
             "5:24: firing rule needs a 'produces' list"),
            (_NET + "  rule a : needs { i } produces { o } using channel\n}", ParseError,
             "5:45: 'channel' is a reserved word and cannot name a compute name"),
            ("process s { in i out o; in i }", DuplicateDefinitionError,
             "1:28: port 'i' declared twice on process 's'"),
            (_NET + "  process a { }\n}", DuplicateDefinitionError,
             "5:11: process 'a' declared twice in net for s"),
            (_NET + "  channel a.o -> b.i\n  channel a.o -> b.i\n}", DuplicateDefinitionError,
             "6:3: channel a.o -> b.i declared twice"),
            (_NET + "  input a.i binds s.i; input a.i binds s.i\n}", DuplicateDefinitionError,
             "5:24: input bind for a.i declared twice"),
            (_NET + "  output b.o binds s.o\n  output b.o binds s.o\n}", DuplicateDefinitionError,
             "6:3: output bind for b.o declared twice"),
            ("process s { note s }", ParseError, "1:18: note expects a quoted string"),
            ("process s { in i;\n  out o\n", ParseError, "2:8: unterminated process block 's'"),
            (_NET, ParseError, "4:28: unterminated block for net for s"),
            (_NET + "  rule a : needs { in } produces { o }\n}", ParseError,
             "5:20: 'in' is a reserved word and cannot name a port name"),
            (_NET + "  rule a : needs { i,, i } produces { o }\n}", ParseError,
             "5:22: expected port name, got ','"),
            (_NET + "  a.i -> b.o\n}", ParseError, "5:3: unexpected 'a' in net block"),
            ("process s { in i; x }", ParseError, "1:19: unexpected 'x' in process block"),
            # an inline record is resolved by the builder and reported after it
            ("sort T\nprocess p {\n  in i : record { f: T, f: T }\n}", DuplicateDefinitionError,
             "3:6: record field declared twice"),
            ("sort T\nprocess p {\n  in i : seq record { f: T, f: T }\n}",
             DuplicateDefinitionError, "3:6: record field declared twice"),
        ],
        ids=["missing-arrow", "missing-binds", "wrong-owner", "no-needs", "no-needs-at-end",
             "other-than-needs", "no-produces", "other-than-produces", "reserved-compute",
             "duplicate-port", "duplicate-member", "duplicate-channel", "duplicate-input",
             "duplicate-output", "note-without-string", "unterminated-process",
             "unterminated-net", "reserved-port", "double-comma", "unexpected-in-net",
             "unexpected-in-process", "inline-field-twice", "inline-seq-field-twice"],
    )
    def test_statement_errors(self, text, error, expected):
        """One case for each error the statement readers raise."""
        with pytest.raises(error) as exc:
            textio.parse_model(text)
        assert str(exc.value) == f"<model>:{expected}"

    def test_trailing_blanks_and_comment(self):
        model = textio.parse_model("process p { in a }  \t\r\n# done")
        assert list(model.processes) == ["p"]


class TestPrintModel:
    def test_round_trip_is_isomorphic(self, library_refined):
        text = textio.print_model(library_refined)
        again = textio.parse_model(text)
        assert check.model_isomorphic(again, library_refined) is not None

    def test_root_only_prints_one_declaration(self):
        m = textio.parse_model("process bp { }")
        text = textio.print_model(m)
        assert text.count("process ") == 1

    def test_isomorphic_models_print_identically(self, bp_refined):
        renamed = rename_ids(bp_refined)
        assert renamed is not bp_refined
        assert textio.print_model(renamed) == textio.print_model(bp_refined)

    def test_canonical_print_is_a_fixpoint(self, bp_refined):
        once = textio.print_model(bp_refined)
        assert textio.print_model(textio.parse_model(once)) == once

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_round_trip(self, seed):
        m = gen_model(seed)
        again = textio.parse_model(textio.print_model(m))
        assert check.model_isomorphic(again, m) is not None

    def test_notes_and_rules_survive(self, library_model):
        text = textio.print_model(library_model)
        assert 'note "library service fetches the requested title"' in text
        assert "rule retrieve_book : needs { in_1 } produces { out_1 }" in text


class TestParseScript:
    def test_assign_sort_statement(self):
        script = textio.parse_script("assign-sort bp.out_1 : Reservation")
        assert len(script.steps) == 1
        step = script.steps[0]
        assert isinstance(step, AssignSortStep)
        assert step.port.path == ("bp",)
        assert step.port.port == "out_1"

    def test_empty_script(self):
        script = textio.parse_script("")
        assert script.steps == ()

    def test_split_port_statement(self):
        script = textio.parse_script(
            "split-port bp.out_1 -> out_1a : descr, out_1b : { avail, note }"
        )
        (step,) = script.steps
        assert isinstance(step, SplitPortStep)
        assert step.parts[0].ref == "descr"
        assert step.parts[1].fields == ("avail", "note")

    def test_every_rule_kind_parses(self):
        script = textio.parse_script(
            """
            decompose bp {
              process a { in i; out o }
              input a.i binds bp.x
              output a.o binds bp.y
            }
            add-channel bp.a.o2 -> bp.b.i2
            assign-sort bp.y : record { f: T }
            split-port bp.y -> p, q
            fold bp { a, b } as grp
            unfold bp.grp
            """
        )
        kinds = [type(s) for s in script.steps]
        assert kinds == [
            DecomposeStep,
            AddChannelStep,
            AssignSortStep,
            SplitPortStep,
            FoldStep,
            UnfoldStep,
        ]

    def test_unknown_rule_name(self):
        with pytest.raises(UnknownRuleNameError):
            textio.parse_script("refactor bp.out_1")

    def test_comments_are_ignored(self):
        script = textio.parse_script("# nothing to see\n\n# here either\n")
        assert script.steps == ()


class TestExportDot:
    def test_empty_net_has_zero_nodes(self):
        m = textio.parse_model("process root { }\nnet for root { }")
        dot = textio.export_dot(m, "root")
        assert check_dot(dot) == 0

    def test_library_net_shape(self, library_model):
        dot = textio.export_dot(library_model, "system")
        # 3 process boxes plus 3 env endpoints (req in, ack + rec out)
        assert check_dot(dot) == 6
        assert dot.count("->") == 2 + 3
        assert "rankdir=LR" in dot

    def test_depth_two_renders_cluster(self, library_refined):
        dot = textio.export_dot(library_refined, "system", depth=2)
        assert "subgraph cluster" in dot
        assert '"reserve_book"' in dot
        assert '"check_availability"' in dot
        check_dot(dot)

    def test_no_net(self, bp_model):
        with pytest.raises(NoNetError):
            textio.export_dot(bp_model, "bp")

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_generated_models_export_valid_dot(self, depth):
        m = gen_model(3)
        check_dot(textio.export_dot(m, m.root, depth=depth))

    def test_a_binding_onto_its_own_port_ends(self):
        # in a child process: following that binding down used never to end
        done = run_bounded(
            """
from dataclasses import replace
from bpnet import core, textio
m = textio.parse_model(
    "process system { in i; out o }; net for system { process a { in i; out o } "
    "input a.i binds system.i; output a.o binds system.o }; "
    "net for system.a { process x { in i; out o } input x.i binds a.i; output x.o binds a.o }"
)
net, _ = m.nets["system.a"]
pairs = (("system.a:i", "system.a:i"), ("system.a:o", "system.a.x:o"))
nets = {**m.nets, "system.a": (net, core.InterfaceBinding(pairs))}
print(textio.export_dot(replace(m, nets=nets), "system", 3), end="")
""",
            seconds=10,
        )
        assert done.returncode == 0, done.stderr
        # a binds its input to a port it holds itself, so it is not expanded
        assert "subgraph" not in done.stdout
        assert '  p0 [label="a"];' in done.stdout.splitlines()
        assert check_dot(done.stdout) == 3

    def test_a_net_listing_its_own_owner_ends(self):
        # a binding onto its own port is followed down at most depth - 1
        # levels, however the nets contain each other
        done = run_bounded(
            """
from dataclasses import replace
from bpnet import core, textio
m = textio.parse_model(
    "process system { in i }; net for system { process a { in i } input a.i binds system.i }; "
    "net for system.a { process x { in i } input x.i binds a.i }"
)
net, _ = m.nets["system.a"]
net = replace(net, processes=net.processes | {"system.a"})
nets = {**m.nets, "system.a": (net, core.InterfaceBinding((("system.a:i", "system.a:i"),)))}
print(textio.export_dot(replace(m, nets=nets), "system", 3), end="")
""",
            seconds=10,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.endswith("}\n")

    def test_edges_carry_sort_labels(self, library_model):
        dot = textio.export_dot(library_model, "system")
        assert 'label="Book"' in dot

    def test_nesting_deeper_than_the_recursion_limit(self):
        """1,100 nets deep, each expanded as a cluster around its one
        member, down to the last process, drawn as a node."""
        depth = 1100
        dot = textio.export_dot(nested_model(depth), "system", depth=depth)
        indents = ["  " * (level + 1) for level in range(depth)]
        expected = ["digraph bpn {", "  rankdir=LR;", "  compound=true;", "  node [shape=box];"]
        for k, indent in enumerate(indents[:-1]):
            expected += [f"{indent}subgraph cluster{k} {{", f'{indent}  label="a";']
        expected.append(f'{indents[-1]}p0 [label="a"];')
        expected += [f"{indent}}}" for indent in reversed(indents[:-1])]
        assert dot == "\n".join(expected) + "\n}\n"


@given(st.integers(0, 200))
@settings(deadline=None, max_examples=25)
def test_round_trip_isomorphism_property(seed):
    m = gen_model(seed, max_depth=2, max_members=4)
    again = textio.parse_model(textio.print_model(m))
    assert check.model_isomorphic(again, m) is not None
