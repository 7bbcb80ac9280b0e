"""Exit codes and output contracts of the command-line interface."""

from __future__ import annotations

import errno
import gc
import json
import os
import time

import pytest

from bpnet import cli, textio
from bpnet.cli import (
    EXIT_DOES_NOT_MATCH,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_SCRIPT_FAILS,
    EXIT_USAGE,
)
from bpnet.core import Model

from conftest import FIXTURES, run_bounded
from dotcheck import check_dot
from genmodels import chain_text, nested_model

# members in a chain deeper than the interpreter's default recursion limit
CHAIN = 1500
# a path longer than a file name may be, and how a command reports it
LONG_PATH = "a" * 5000
UNREADABLE = f"bpn: cannot read {LONG_PATH}: {os.strerror(errno.ENAMETOOLONG)}\n"


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("BPN_COLOR", "never")


class TestValidate:
    def test_well_formed_fixture(self, capsys):
        assert run("validate", FIXTURES / "library.bpn") == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_cycle_fixture(self, tmp_path, capsys):
        bad = tmp_path / "cycle.bpn"
        bad.write_text(
            "process system { }\n"
            "net for system {\n"
            "  process a { in i; out o }\n"
            "  process b { in i; out o }\n"
            "  channel a.o -> b.i\n"
            "  channel b.o -> a.i\n"
            "}\n"
        )
        assert run("validate", bad) == EXIT_INVALID
        out = capsys.readouterr().out
        assert sum(1 for line in out.splitlines() if line.startswith("CycleDetected")) == 1

    def test_chain_longer_than_the_recursion_limit(self, tmp_path, capsys):
        """A chain of 1,500 members validates clean; closing it reports the
        whole chain from ``p0``, the recursive search's witness."""
        chain = tmp_path / "chain.bpn"
        chain.write_text(chain_text(CHAIN))
        assert run("validate", chain) == EXIT_OK
        assert capsys.readouterr().out == ""
        chain.write_text(chain_text(CHAIN, back_edge=True))
        assert run("validate", chain) == EXIT_INVALID
        witness = ",".join(f"system.p{k}" for k in range(CHAIN))
        assert capsys.readouterr().out == (
            f"CycleDetected {witness}: channels induce a cyclic dependency between processes\n"
        )

    def test_missing_file_is_usage_error(self, capsys):
        assert run("validate", "no/such/file.bpn") == EXIT_USAGE
        assert capsys.readouterr().err == "bpn: no such file: no/such/file.bpn\n"

    def test_unreadable_path_is_usage_error(self, capsys):
        """A path the system cannot look up is reported, without a
        traceback, as a usage error."""
        assert run("validate", LONG_PATH) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == UNREADABLE

    def test_directory_is_usage_error(self, tmp_path, capsys):
        """A path that exists but cannot be read as a file is not missing."""
        assert run("validate", tmp_path) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bpn: cannot read {tmp_path}: {os.strerror(errno.EISDIR)}\n"

    def test_parse_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "broken.bpn"
        bad.write_text("process { oops")
        assert run("validate", bad) == EXIT_INVALID
        assert "parse error" in capsys.readouterr().err

    def test_no_arguments_is_usage_error(self):
        assert run("validate") == EXIT_USAGE


class TestApply:
    def test_bp_script_prints_split_annotation(self, tmp_path, capsys):
        out_file = tmp_path / "out.bpn"
        code = run(
            "apply", FIXTURES / "bp.bpn", FIXTURES / "bp_refine.bps", out_file
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "out_1^{bp} ~> {out_1^{bp21}, out_1^{bp22}}" in stdout.splitlines()
        written = textio.parse_model(out_file.read_text())
        assert "bp21" in {p.name for p in written.processes.values()}

    def test_empty_script_reprints_canonically(self, tmp_path, capsys):
        script = tmp_path / "empty.bps"
        script.write_text("")
        out_file = tmp_path / "out.bpn"
        assert run("apply", FIXTURES / "library.bpn", script, out_file) == EXIT_OK
        assert capsys.readouterr().out == ""
        model = textio.parse_model((FIXTURES / "library.bpn").read_text())
        assert out_file.read_text() == textio.print_model(model)

    def test_rules_on_a_chain_longer_than_the_recursion_limit(self, tmp_path, capsys):
        chain = tmp_path / "chain.bpn"
        chain.write_text(chain_text(CHAIN))
        script = tmp_path / "close.bps"
        script.write_text(f"add-channel system.p{CHAIN - 1}.o -> system.p0.back\n")
        assert run("apply", chain, script, tmp_path / "out.bpn") == EXIT_SCRIPT_FAILS
        assert capsys.readouterr().err.startswith(
            "step 1 failed: channel would close the cycle system.p0 -> system.p1 -> "
        )
        script.write_text("fold system { p0, p1 } as q\n")
        assert run("apply", chain, script, tmp_path / "out.bpn") == EXIT_OK

    def test_cycle_script_exits_three(self, tmp_path, capsys):
        script = tmp_path / "bad.bps"
        script.write_text(
            "add-channel bp.bp1.out_9 -> bp.bp2.in_9\n"
            "add-channel bp.bp2.back -> bp.bp1.loop\n"
        )
        code = run("apply", FIXTURES / "bp_fig6.bpn", script, tmp_path / "out.bpn")
        assert code == EXIT_SCRIPT_FAILS
        assert "step 2 failed" in capsys.readouterr().err

    def test_field_listed_twice_in_a_part_is_named(self, tmp_path, capsys):
        script = tmp_path / "twice.bps"
        script.write_text("split-port bp.out_1 -> a : { descr, descr }, b : avail\n")
        code = run("apply", FIXTURES / "bp.bpn", script, tmp_path / "out.bpn")
        assert code == EXIT_SCRIPT_FAILS
        assert capsys.readouterr().err == "step 1 failed: part 'a' lists field 'descr' twice\n"
        script.write_text("split-port bp.out_1 -> a : { descr, nope }, b : avail\n")
        assert run("apply", FIXTURES / "bp.bpn", script, tmp_path / "out.bpn") == EXIT_SCRIPT_FAILS
        assert capsys.readouterr().err == (
            "step 1 failed: part 'a' names fields missing from the record\n"
        )

    @pytest.mark.parametrize("steps", ["", "unfold top.c\n"], ids=["empty", "unfold"])
    def test_ill_formed_model_is_rejected_before_replay(self, tmp_path, capsys, steps):
        """An input ``bpn validate`` rejects is reported in its format, on
        stderr, and no step runs on it: the rules assume a well-formed model."""
        model = tmp_path / "unbound.bpn"
        model.write_text(
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
        script = tmp_path / "unfold.bps"
        script.write_text(steps)
        out_file = tmp_path / "out.bpn"
        assert run("validate", model) == EXIT_INVALID
        report = capsys.readouterr().out
        assert report == (
            "BindingIncomplete top.c,top.c:y: "
            "parent port is not bound to any subnet boundary port\n"
        )
        assert run("apply", model, script, out_file) == EXIT_INVALID
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", report)
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "output, code",
        [("missing/out.bpn", errno.ENOENT), (".", errno.EISDIR)],
        ids=["missing-directory", "directory"],
    )
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, output, code):
        """An output path that cannot be written is reported, without a
        traceback or a ``~>`` line, as a usage error."""
        out_file = tmp_path / output
        assert run("apply", FIXTURES / "bp.bpn", FIXTURES / "bp_refine.bps", out_file) == (
            EXIT_USAGE
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bpn: cannot write {out_file}: {os.strerror(code)}\n"


class TestCheck:
    def test_identity(self, tmp_path):
        script = tmp_path / "empty.bps"
        script.write_text("")
        code = run("check", FIXTURES / "library.bpn", FIXTURES / "library.bpn", script)
        assert code == EXIT_OK

    def test_library_decomposition(self):
        code = run(
            "check",
            FIXTURES / "library.bpn",
            FIXTURES / "library_refined.bpn",
            FIXTURES / "library_decompose.bps",
        )
        assert code == EXIT_OK

    def test_wrong_refined_file(self, capsys):
        code = run(
            "check",
            FIXTURES / "library.bpn",
            FIXTURES / "library.bpn",
            FIXTURES / "library_decompose.bps",
        )
        assert code == EXIT_DOES_NOT_MATCH
        assert "DoesNotMatch" in capsys.readouterr().out

    def test_apply_then_check_round_trip(self, tmp_path):
        out_file = tmp_path / "refined.bpn"
        assert (
            run("apply", FIXTURES / "bp.bpn", FIXTURES / "bp_refine.bps", out_file)
            == EXIT_OK
        )
        assert (
            run("check", FIXTURES / "bp.bpn", out_file, FIXTURES / "bp_refine.bps")
            == EXIT_OK
        )

    def test_nesting_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        model, script = tmp_path / "deep.bpn", tmp_path / "empty.bps"
        model.write_text(textio.print_model(nested_model(600)))
        script.write_text("")
        assert run("check", model, model, script) == EXIT_OK
        assert capsys.readouterr().out.startswith("Refines:")

    def test_ill_formed_base_is_reported_before_replay(self, tmp_path, capsys):
        """A base ``bpn validate`` rejects is reported in its format, on
        stderr, with no verdict: the replay assumes a well-formed base, and
        here the script's result would match the equally ill-formed refined
        model."""
        closed = "  channel notify_user.out_1 -> retrieve_book.in_1\n  input retrieve_book.in_1"
        base, refined = tmp_path / "library.bpn", tmp_path / "library_refined.bpn"
        for path in (base, refined):
            text = (FIXTURES / path.name).read_text(encoding="utf-8")
            path.write_text(text.replace("  input retrieve_book.in_1", closed), encoding="utf-8")
        assert run("validate", base) == EXIT_INVALID
        report = capsys.readouterr().out
        assert "CycleDetected" in report
        assert run("check", base, refined, FIXTURES / "library_decompose.bps") == EXIT_INVALID
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", report)


# one edit to a copy of library_refined.bpn per DoesNotMatch reason, and the
# verdict `bpn check` prints after replaying library_decompose.bps
MISMATCHES = [
    (
        "rule-count",
        [("  rule notify_user : needs { in_1 } produces { out_1 }\n",
          "  rule notify_user : needs { in_1 } produces { out_1 }\n" * 2)],
        "process 'notify_user': different number of firing rules",
    ),
    (
        "rules",
        [("rule notify_user : needs { in_1 } produces { out_1 }",
          "rule notify_user : needs { in_1 } produces { out_1 } using upcase")],
        "process 'notify_user': firing rules differ",
    ),
    (
        "names",
        [("system", "library")],
        "process names differ: 'system' vs 'library'",
    ),
    (
        "decomposed",
        [("net for system.reserve_book", "net for system.retrieve_book"),
         ("  input check_availability.in_1 binds reserve_book.in_1\n"
          "  output issue_notification.out_1 binds reserve_book.out_1\n"
          "  output issue_notification.out_2 binds reserve_book.out_2\n",
          "  input check_availability.in_1 binds retrieve_book.in_1\n"
          "  output issue_notification.out_1 binds retrieve_book.out_1\n")],
        "process 'reserve_book' is decomposed in only one model",
    ),
    (
        "notes",
        [('note "library service fetches the requested title"', 'note "library service"')],
        "process 'retrieve_book': behavior notes differ",
    ),
    (
        "env-inputs",
        [("input retrieve_book.in_1 binds system.req",
          "input notify_user.in_1 binds system.req")],
        "net of 'system': environment inputs differ",
    ),
    (
        "env-outputs",
        [("output reserve_book.out_2 binds system.rec",
          "output notify_user.out_1 binds system.rec")],
        "net of 'system': environment outputs differ",
    ),
    (
        "bindings",
        [("  output issue_notification.out_1 binds reserve_book.out_1\n"
          "  output issue_notification.out_2 binds reserve_book.out_2\n",
          "  output issue_notification.out_1 binds reserve_book.out_2\n"
          "  output issue_notification.out_2 binds reserve_book.out_1\n")],
        "net of 'reserve_book': interface bindings differ",
    ),
    (
        "port-names",
        [("process system { in req : BookId;", "process system { in request : BookId;"),
         ("binds system.req", "binds system.request")],
        "process 'system': port names differ",
    ),
    (
        # notify_user moves into reserve_book's net: the model keeps its
        # process and port counts
        "member-count",
        [("  process notify_user { in in_1 : Notification; out out_1 : Notification }\n"
          "  rule notify_user : needs { in_1 } produces { out_1 }\n", ""),
         ("  channel reserve_book.out_1 -> notify_user.in_1\n", ""),
         ("output notify_user.out_1 binds system.ack", "output reserve_book.out_1 binds system.ack"),
         ("  channel check_availability.out_1",
          "  process notify_user { in in_1 : Notification; out out_1 : Notification }\n"
          "  channel check_availability.out_1")],
        "net of 'system': different number of members",
    ),
    (
        "member-names",
        [("notify_user", "notify_patron")],
        "net of 'system': member names differ",
    ),
]


class TestCheckVerdicts:
    @pytest.mark.parametrize(
        "edits, reason", [m[1:] for m in MISMATCHES], ids=[m[0] for m in MISMATCHES]
    )
    def test_does_not_match_reason(self, edits, reason, tmp_path, capsys):
        text = (FIXTURES / "library_refined.bpn").read_text(encoding="utf-8")
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        refined = tmp_path / "refined.bpn"
        refined.write_text(text, encoding="utf-8")
        script = FIXTURES / "library_decompose.bps"
        code = run("check", FIXTURES / "library.bpn", refined, script)
        assert code == EXIT_DOES_NOT_MATCH
        assert capsys.readouterr() == (f"DoesNotMatch: {reason}\n", "")

    def test_failing_script(self, tmp_path, capsys):
        script = tmp_path / "fails.bps"
        script.write_text(
            (FIXTURES / "library_decompose.bps").read_text(encoding="utf-8")
            + "unfold system.nonsuch\n",
            encoding="utf-8",
        )
        code = run("check", FIXTURES / "library.bpn", FIXTURES / "library_refined.bpn", script)
        assert code == EXIT_SCRIPT_FAILS
        assert capsys.readouterr() == ("ScriptFails: step 2 failed: no process named 'nonsuch' in net of 'system'\n", "")


class TestSimulate:
    def test_single_run_prints_outputs(self, capsys):
        assert run("simulate", FIXTURES / "library.bpn", FIXTURES / "library.env") == EXIT_OK
        out = capsys.readouterr().out
        assert "ack whole = (whole)" in out
        assert "rec whole = (whole)" in out

    def test_unreadable_env_path_is_usage_error(self, capsys):
        assert run("simulate", FIXTURES / "library.bpn", LONG_PATH) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == UNREADABLE

    def test_empty_env_prints_nothing(self, tmp_path, capsys):
        env = tmp_path / "empty.env"
        env.write_text("")
        assert run("simulate", FIXTURES / "library.bpn", env) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_confluence_trials_pass(self, capsys):
        code = run(
            "simulate",
            FIXTURES / "bp_refined.bpn",
            FIXTURES / "bp.env",
            "--trials",
            "100",
            "--seed",
            "5",
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "PASS"

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_is_usage_error(self, trials, capsys):
        argv = ("simulate", FIXTURES / "bp.bpn", FIXTURES / "bp.env", "--trials", trials)
        assert run(*argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument --trials: trials must be at least 1, got {trials}\n"
        )

    @pytest.mark.parametrize("trials", ["1", "3"])
    def test_one_tree_walk_per_command(self, monkeypatch, trials, capsys):
        # the flat view is a cached property of the model; count its walks
        flat_view = Model.__dict__["_flat"]
        walk, walked = flat_view.func, []

        def counted(model):
            walked.append(model)
            return walk(model)

        monkeypatch.setattr(flat_view, "func", counted)
        argv = ("simulate", FIXTURES / "library_refined.bpn", FIXTURES / "library.env")
        assert run(*argv, "--trials", trials) == EXIT_OK
        assert capsys.readouterr().out
        assert len(walked) == 1

    def test_invalid_env_fragment_exits_one(self, tmp_path, capsys):
        env = tmp_path / "bad.env"
        env.write_text("ghost whole = 1\n")
        assert run("simulate", FIXTURES / "library.bpn", env) == EXIT_INVALID

    @pytest.mark.parametrize("name", ["ack", "ghost"])
    def test_env_line_on_no_root_input_is_named_as_written(self, tmp_path, capsys, name):
        # ack is a root output: its flat leaf id must not reach the message
        env = tmp_path / "bad.env"
        env.write_text(f"req whole = b42\n{name} whole = x\n")
        assert run("simulate", FIXTURES / "library.bpn", env) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name!r} is not an input port of the root process\n"


def nested_sort(depth: int) -> str:
    return "record { f : seq " * (depth // 2) + "seq " * (depth % 2) + "T" + " }" * (depth // 2)


class TestSortNesting:
    """A sort expression nests at most ``textio.MAX_SORT_NESTING`` record and
    collection sorts; one level more is a parse error, not a traceback."""

    def write(self, tmp_path, depth):
        sort = nested_sort(depth)
        model = tmp_path / "deep.bpn"
        model.write_text(
            f"""
            sort T
            sort D = {sort}
            process system {{ in req : {sort}; out ack }}
            net for system {{
              process a {{ in i : D; out o }}
              rule a : needs {{ i }} produces {{ o }}
              input a.i binds system.req; output a.o binds system.ack
            }}
            """
        )
        script = tmp_path / "deep.bps"
        script.write_text(f"assign-sort system.ack : {sort}\n")
        env = tmp_path / "deep.env"
        env.write_text("req whole = x\n")
        return model, script, env

    def test_deepest_sort_runs_through_every_command(self, tmp_path, capsys):
        model, script, env = self.write(tmp_path, textio.MAX_SORT_NESTING)
        assert run("validate", model) == EXIT_OK
        assert run("fmt", model) == EXIT_OK
        printed = tmp_path / "printed.bpn"
        printed.write_text(capsys.readouterr().out)
        assert run("validate", printed) == EXIT_OK
        assert run("simulate", model, env) == EXIT_OK
        assert capsys.readouterr().out == "ack whole = (whole)\n"
        out = tmp_path / "out.bpn"
        assert run("apply", model, script, out) == EXIT_OK
        assert run("validate", out) == EXIT_OK
        refined = textio.parse_model(out.read_text())
        assert refined.ports["system:ack"].sort == refined.ports["system:req"].sort

    def test_one_level_deeper_is_a_parse_error(self, tmp_path, capsys):
        model, script, env = self.write(tmp_path, textio.MAX_SORT_NESTING + 1)
        for argv in (
            ("validate", model),
            ("fmt", model),
            ("simulate", model, env),
            ("export-dot", model),
            ("apply", FIXTURES / "library.bpn", script, tmp_path / "out.bpn"),
        ):
            assert run(*argv) == EXIT_INVALID
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("parse error: ")
            assert f"sort nested more than {textio.MAX_SORT_NESTING} " in captured.err


def sort_chain(links: int, reverse: bool = False) -> str:
    """``links`` declarations, each one collection around the one before."""
    decls = ["sort S0 = seq T"] + [f"sort S{i} = seq S{i - 1}" for i in range(1, links)]
    if reverse:
        decls.reverse()
    return "sort T\n" + "\n".join(decls) + f"\nprocess p {{ in a : S{links - 1}; out b }}\n"


def alias_chain(links: int, reverse: bool = False) -> str:
    """``links`` declarations, each an alias of the one before."""
    decls = ["sort S0 = T"] + [f"sort S{i} = S{i - 1}" for i in range(1, links)]
    if reverse:
        decls.reverse()
    return "sort T\n" + "\n".join(decls) + f"\nprocess p {{ in a : S{links - 1}; out b }}\n"


class TestSortChains:
    """The nesting bound holds for a sort built through a chain of
    declarations, each of which nests only one level."""

    def test_reversed_alias_chain_runs(self, tmp_path, capsys):
        # an alias nests nothing, so a chain of any length in any order resolves
        printed = []
        for reverse in (False, True):
            model = tmp_path / "aliases.bpn"
            model.write_text(alias_chain(1200, reverse))
            assert run("validate", model) == EXIT_OK
            assert run("fmt", model) == EXIT_OK
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert printed[0].startswith("sort S0 = T\nsort S1 = T\n")

    def test_longest_chain_runs(self, tmp_path, capsys):
        model = tmp_path / "chain.bpn"
        model.write_text(sort_chain(textio.MAX_SORT_NESTING))
        assert run("validate", model) == EXIT_OK
        assert run("fmt", model) == EXIT_OK
        assert capsys.readouterr().out.startswith("sort S0 = seq T\nsort S1 = seq S0\n")

    @pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reversed"])
    def test_long_chain_is_a_parse_error(self, tmp_path, capsys, reverse):
        model = tmp_path / "chain.bpn"
        model.write_text(sort_chain(1200, reverse))
        for command in ("validate", "fmt"):
            assert run(command, model) == EXIT_INVALID
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("parse error: ")
            assert f"sort nested more than {textio.MAX_SORT_NESTING} deep" in captured.err

    def test_reference_into_a_deep_sort_is_bounded(self, tmp_path, capsys):
        model = tmp_path / "chain.bpn"
        chain = sort_chain(textio.MAX_SORT_NESTING)
        model.write_text(chain + f"sort R = record {{ f : S{textio.MAX_SORT_NESTING - 1} }}\n")
        assert run("validate", model) == EXIT_INVALID
        assert "sort nested more than" in capsys.readouterr().err

    def test_fmt_on_a_chain_is_fast(self, tmp_path, capsys):
        # each level of each sort once looked through the whole sort table
        model = tmp_path / "chain.bpn"
        model.write_text(sort_chain(100))
        start = time.process_time()
        assert run("fmt", model) == EXIT_OK
        assert time.process_time() - start < 0.25
        assert capsys.readouterr().out.count("\n") == 103


class TestExportDotAndFmt:
    def test_dot_on_stdout(self, capsys):
        assert run("export-dot", FIXTURES / "library.bpn") == EXIT_OK
        dot = capsys.readouterr().out
        check_dot(dot)
        assert dot.startswith("digraph")

    def test_dot_depth_two(self, capsys):
        code = run(
            "export-dot", FIXTURES / "library_refined.bpn", "--net", "system", "--depth", "2"
        )
        assert code == EXIT_OK
        assert "subgraph cluster" in capsys.readouterr().out

    def test_dot_stops_at_a_port_the_binding_leaves_unbound(self, tmp_path):
        # b has a net, but its binding maps neither of its ports
        model = tmp_path / "unbound.bpn"
        model.write_text(
            """
            process system { in req; out ack }
            net for system {
              process a { in i; out o }; process b { in i; out o }
              channel a.o -> b.i
              input a.i binds system.req; output b.o binds system.ack
            }
            net for system.b { process x { in i; out o } }
            """
        )
        done = run_bounded(
            "import sys; from bpnet import cli\n"
            f"sys.exit(cli.main(['export-dot', {str(model)!r}, '--depth', '2']))"
        )
        assert done.returncode == EXIT_OK, done.stderr
        check_dot(done.stdout)
        # b is drawn whole, as the node p1 beside a's p0, not as a cluster:
        # the channel ends at a declared node
        assert '  p0 [label="a"];' in done.stdout
        assert '  p1 [label="b"];' in done.stdout
        assert "subgraph" not in done.stdout
        assert "  p0 -> p1;" in done.stdout.splitlines()

    def test_dot_without_net_exits_one(self, capsys):
        assert run("export-dot", FIXTURES / "bp.bpn") == EXIT_INVALID

    @pytest.mark.parametrize(
        "depth, problem",
        [
            ("0", "depth must be at least 1, got 0"),
            ("-1", "depth must be at least 1, got -1"),
            ("two", "invalid int value: 'two'"),
        ],
    )
    def test_bad_depth_is_usage_error(self, depth, problem, capsys):
        assert run("export-dot", FIXTURES / "library.bpn", "--depth", depth) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --depth: {problem}\n")

    def test_fmt_is_canonical_fixpoint(self, tmp_path, capsys):
        assert run("fmt", FIXTURES / "bp_refined.bpn") == EXIT_OK
        once = capsys.readouterr().out
        second = tmp_path / "canon.bpn"
        second.write_text(once)
        assert run("fmt", second) == EXIT_OK
        assert capsys.readouterr().out == once

    def test_fmt_keeps_a_compute_name(self, tmp_path, capsys):
        text = (FIXTURES / "library.bpn").read_text(encoding="utf-8")
        rule = "rule notify_user : needs { in_1 } produces { out_1 }"
        assert rule in text
        model = tmp_path / "upcase.bpn"
        model.write_text(text.replace(rule, rule + " using upcase"), encoding="utf-8")
        assert run("fmt", model) == EXIT_OK
        once = capsys.readouterr().out
        assert f"  {rule} using upcase\n" in once
        model.write_text(once, encoding="utf-8")
        assert run("fmt", model) == EXIT_OK
        assert capsys.readouterr().out == once


class TestNotUtf8:
    """A file that is not UTF-8 is a parse error that names the file."""

    @pytest.fixture
    def latin1(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("process caf\u00e9 { }\n".encode("latin-1"))
        return path

    def test_model(self, latin1, capsys):
        assert run("validate", latin1) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"parse error: {latin1}: not UTF-8 text (invalid continuation byte at byte 11)\n"
        )

    def test_script(self, latin1, tmp_path, capsys):
        code = run("apply", FIXTURES / "bp.bpn", latin1, tmp_path / "out.bpn")
        assert code == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"parse error: {latin1}: not UTF-8 text")
        assert not (tmp_path / "out.bpn").exists()

    def test_env(self, latin1, capsys):
        assert run("simulate", FIXTURES / "library.bpn", latin1) == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"error: {latin1}: not UTF-8 text")


class TestUsage:
    def test_unknown_command(self):
        assert run("frobnicate") == EXIT_USAGE

    def test_no_command(self):
        assert run() == EXIT_USAGE

    def test_help(self, capsys):
        assert run("--help") == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("usage: bpn ")
        for command in ("validate", "apply", "check", "simulate", "export-dot", "fmt"):
            assert f"    {command} " in out


class TestCollector:
    """A command runs with the cyclic collector paused, and leaves it on or
    off as it found it, however the command ends."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collecting(self, request):
        before = gc.isenabled()
        gc.enable() if request.param else gc.disable()
        yield request.param
        gc.enable() if before else gc.disable()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("validate", FIXTURES / "library.bpn"), EXIT_OK),
            (("export-dot", FIXTURES / "bp.bpn"), EXIT_INVALID),
            (("apply", FIXTURES / "library.bpn", FIXTURES / "bp_refine.bps", "{out}"),
             EXIT_SCRIPT_FAILS),
            (("frobnicate",), EXIT_USAGE),
        ],
        ids=["ok", "invalid", "script-fails", "usage"],
    )
    def test_state_is_restored(self, collecting, argv, code, tmp_path, monkeypatch, capsys):
        parse, during = textio.parse_model, []

        def parse_noting_the_collector(text, filename="<model>"):
            during.append(gc.isenabled())
            return parse(text, filename)

        monkeypatch.setattr(textio, "parse_model", parse_noting_the_collector)
        assert run(*(str(a).format(out=tmp_path / "out.bpn") for a in argv)) == code
        assert gc.isenabled() is collecting
        assert set(during) == (set() if code == EXIT_USAGE else {False})

    def test_state_is_restored_after_an_exception(self, collecting, monkeypatch):
        def fails(text, filename="<model>"):
            raise RuntimeError("boom")

        monkeypatch.setattr(textio, "parse_model", fails)
        with pytest.raises(RuntimeError, match="boom"):
            run("validate", FIXTURES / "library.bpn")
        assert gc.isenabled() is collecting


class TestDeterminismAndColor:
    def test_simulate_is_deterministic(self, capsys):
        argv = ("simulate", FIXTURES / "bp_refined.bpn", FIXTURES / "bp.env",
                "--trials", "20", "--seed", "9")
        assert run(*argv) == EXIT_OK
        first = capsys.readouterr().out
        assert run(*argv) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_color_always_wraps_violation_codes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BPN_COLOR", "always")
        bad = tmp_path / "loop.bpn"
        bad.write_text(
            "process system { }\nnet for system {\n"
            "  process p { in i; out o }\n  channel p.o -> p.i\n}\n"
        )
        assert run("validate", bad) == EXIT_INVALID
        assert "\x1b[31m" in capsys.readouterr().out


class TestOneParserPerProcess:
    """The argument parser is built once per process; each call still gives
    the exit code and stdout of a fresh process."""

    CALLS = [
        ("simulate", FIXTURES / "bp.bpn", FIXTURES / "bp.env", "--trials", "3"),
        # no --trials: the default of 1 prints the outputs, not PASS
        ("simulate", FIXTURES / "bp.bpn", FIXTURES / "bp.env"),
        ("validate", "--no-such-option", FIXTURES / "bp.bpn"),
        ("validate", FIXTURES / "bp.bpn"),
    ]

    def test_calls_in_one_process_match_fresh_processes(self, capsys):
        results = []
        for argv in self.CALLS:
            code = run(*argv)
            results.append((code, capsys.readouterr().out))
        assert [code for code, _ in results] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]
        assert results[0][1] == "PASS\n"
        assert results[1][1] not in ("", "PASS\n")
        for argv, (code, out) in zip(self.CALLS, results):
            args = [str(a) for a in argv]
            fresh = run_bounded(f"import sys; from bpnet import cli; sys.exit(cli.main({args!r}))")
            assert (fresh.returncode, fresh.stdout) == (code, out), argv
        assert cli._build_parser() is cli._build_parser()


# --- no traceback on bad input ----------------------------------------------------

# A child interpreter runs each (label, argv) that ``calls()`` yields through
# ``cli.main`` and prints how many ran, the exit codes seen, and the calls
# that ended in another code or printed a traceback.
NO_TRACEBACK = """
import contextlib, io, json, random, sys, traceback
from pathlib import Path
sys.path.insert(0, {tests!r})
from bpnet import cli
from test_parse_oracle import KINDS, base_texts, corpus

fixtures, work = Path({fixtures!r}), Path({work!r})
{calls}
found, bad = [], []
for label, argv in calls():
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
    except Exception:
        code = None
        err.write(traceback.format_exc())
    found.append(code)
    if code not in {codes} or "Traceback" in out.getvalue() + err.getvalue():
        bad.append((label, argv[0], code, err.getvalue()[-300:]))
print(json.dumps([len(found), sorted(set(found), key=repr), bad]))
"""

MODEL_CALLS = """
scripts = {{"bp.bpn": "bp_refine.bps", "library.bpn": "library_decompose.bps"}}
envs = {{"bp.bpn": "bp.env", "bp_refined.bpn": "bp.env", "library.bpn": "library.env",
         "library_refined.bpn": "library.env"}}
(work / "empty.bps").write_text("")
(work / "empty.env").write_text("")
bases = dict(base_texts())

def calls():
    for n, (label, kind, text) in enumerate(corpus()[::{stride}]):
        base = label.split(":")[0]
        model = work / f"m{{n}}.bpn"
        model.write_text(text, encoding="utf-8")
        (work / "base.bpn").write_text(bases[base], encoding="utf-8")
        script = fixtures / scripts[base] if base in scripts else work / "empty.bps"
        env = fixtures / envs[base] if base in envs else work / "empty.env"
        for argv in (
            ["validate", model],
            ["fmt", model],
            ["export-dot", model, "--depth", "2"],
            ["simulate", model, env],
            ["apply", model, script, work / "out.bpn"],
            ["check", work / "base.bpn", model, script],
        ):
            yield label, argv
"""

# the fixture scripts with their base and refined models, and the fixture
# env files with the models they feed
INPUT_CALLS = """
def mutants(name):
    text = (fixtures / name).read_text(encoding="utf-8")
    rng, kinds = random.Random(name), sorted(KINDS)
    for n in range({count}):
        kind = kinds[n % len(kinds)]
        path = work / f"{{n}}-{{name}}"
        path.write_text(KINDS[kind](text, rng, kind), encoding="utf-8")
        yield f"{{name}}:{{n}}:{{kind}}", path

def calls():
    for base, script, refined in (("bp.bpn", "bp_refine.bps", "bp_refined.bpn"),
                                  ("library.bpn", "library_decompose.bps", "library_refined.bpn")):
        for label, path in mutants(script):
            yield label, ["apply", fixtures / base, path, work / "out.bpn"]
            yield label, ["check", fixtures / base, fixtures / refined, path]
    for env, models in (("bp.env", ("bp.bpn", "bp_refined.bpn")),
                        ("bp_partial.env", ("bp.bpn",)),
                        ("library.env", ("library.bpn", "library_refined.bpn"))):
        for label, path in mutants(env):
            for model in models:
                yield label, ["simulate", fixtures / model, path]
                yield label, ["simulate", fixtures / model, path, "--trials", "2"]
"""

DOCUMENTED = {EXIT_OK, EXIT_INVALID, EXIT_DOES_NOT_MATCH, EXIT_SCRIPT_FAILS, EXIT_USAGE}


def no_traceback(calls: str, work) -> tuple[int, list]:
    """Run the calls in one child interpreter; how many ran, and the exit
    codes seen.  Each call must end in a documented exit code, and none may
    print a traceback."""
    tests = os.path.dirname(os.path.abspath(__file__))
    done = run_bounded(
        NO_TRACEBACK.format(
            tests=tests, fixtures=str(FIXTURES), work=str(work), calls=calls, codes=DOCUMENTED
        ),
        seconds=60,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    ran, seen, bad = json.loads(done.stdout.splitlines()[-1])
    assert bad == []
    return ran, seen


def test_parse_oracle_mutants_give_no_traceback(tmp_path):
    """Every subcommand on a fixed sample of the parse oracle's texts, each
    mutant checked against its base text."""
    ran, seen = no_traceback(MODEL_CALLS.format(stride=8), tmp_path)
    assert ran == 6 * 274 and {EXIT_OK, EXIT_INVALID, EXIT_DOES_NOT_MATCH} <= set(seen), seen


def test_script_and_env_mutants_give_no_traceback(tmp_path):
    """``apply`` and ``check`` on mutants of the fixture scripts, and
    ``simulate`` on mutants of the fixture env files."""
    count = 40
    ran, seen = no_traceback(INPUT_CALLS.format(count=count), tmp_path)
    assert ran == count * (2 * 2 + 2 * (2 + 1 + 2))
    assert {EXIT_OK, EXIT_INVALID, EXIT_DOES_NOT_MATCH, EXIT_SCRIPT_FAILS} <= set(seen), seen
