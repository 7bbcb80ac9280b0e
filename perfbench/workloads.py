"""The benchmark's workloads: inputs, operations and the known answer of each.

An operation is one timed call into the package: a ``bpn`` subcommand run
in-process through ``bpnet.cli.main`` with its output captured, or a
library call.  Every workload runs every kind of operation, so every run
reports every end-to-end metric: the kinds a workload is about run on its
generated inputs, the others on the fixture suite (``fixture_ops``).
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import bpnet.check
import bpnet.cli
import bpnet.core
import bpnet.refine
import bpnet.textio
from bpnet.core import OUTPUT, RecordSort
from bpnet.errors import BpnError

import gen

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"

# metric name of each operation kind
VALIDATE, FMT, DOT, APPLY, CHECK = "validate_ms", "fmt_ms", "export_dot_ms", "apply_ms", "check_ms"
SIMULATE, CONFLUENCE, RULE_STEP, DERIVE = "simulate_ms", "confluence_ms", "rule_step_ms", "derive_ms"
KINDS = (VALIDATE, FMT, DOT, APPLY, CHECK, SIMULATE, CONFLUENCE, RULE_STEP, DERIVE)

# A check returns None for a right answer, else ("error", why) when the
# operation failed to answer, or ("wrong", why) when it answered wrongly.
Verdict = tuple[str, str] | None


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    # text of a known defect's error: such a failure counts as failed but
    # does not make the run incorrect
    known: str | None = None
    # untimed preparation run just before ``run``
    prepare: Callable[[], None] | None = None


def cli(*argv: object) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bpnet.cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _cli_op(kind: str, label: str, argv: tuple, expect: Callable[[str], str | None],
            known: str | None = None) -> Op:
    """A CLI operation; ``expect`` judges stdout of a zero exit."""

    def check(result) -> Verdict:
        code, out, err = result
        if code != 0:
            return ("error", f"exit {code}: {err.strip().splitlines()[0] if err.strip() else out[:200]}")
        why = expect(out)
        return None if why is None else ("wrong", why)

    return Op(kind, label, lambda: cli(*argv), check, known)


def _read(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _isomorphic(a, b) -> bool:
    return bpnet.check.model_isomorphic(a, b) is not None


# --- expectations --------------------------------------------------------------------


def expect_silent(out: str) -> str | None:
    return None if out == "" else f"unexpected output {out[:200]!r}"


def expect_fmt(source) -> Callable[[str], str | None]:
    """``fmt`` of the parsed model ``source``."""

    def expect(out: str) -> str | None:
        printed = bpnet.textio.parse_model(out)
        if bpnet.textio.print_model(printed) != out:
            return "fmt output is not a fixed point"
        if not _isomorphic(printed, source):
            return "fmt output does not re-parse to an isomorphic model"
        return None

    return expect


def expect_dot(nodes: list[str], clusters: list[str], edges: int) -> Callable[[str], str | None]:
    def expect(out: str) -> str | None:
        lines = out.splitlines()
        if not lines or lines[0] != "digraph bpn {" or lines[-1] != "}":
            return "not a digraph"
        if out.count("{") != out.count("}"):
            return "unbalanced braces"
        got_nodes = sorted(re.findall(r'^\s*p\d+ \[label="([^"]*)"\];$', out, re.M))
        got_clusters = sorted(re.findall(r'^\s*label="([^"]*)";$', out, re.M))
        got_edges = sum(1 for line in lines if " -> " in line)
        if (got_nodes, got_clusters, got_edges) != (sorted(nodes), sorted(clusters), edges):
            return f"dot nodes/clusters/edges {len(got_nodes)}/{got_clusters}/{got_edges}"
        return None

    return expect


def expect_lines(expected: str) -> Callable[[str], str | None]:
    return lambda out: None if out == expected else f"printed {out[:200]!r}"


def expect_refines(out: str) -> str | None:
    return None if out.startswith("Refines:") else f"verdict {out.strip()[:200]!r}"


def expect_apply(out_path: Path, refined, arrows: Callable[[str], str | None]):
    """The ``~>`` lines pass ``arrows`` and the written model is ``refined``."""

    def expect(out: str) -> str | None:
        why = arrows(out)
        if why is None and not _isomorphic(bpnet.textio.parse_model(_read(out_path)), refined):
            why = "written model is not the expected refinement"
        return why

    return expect


# --- the fixture suite ------------------------------------------------------------------

# Every fixture operation costs about the same on each repeat, so its samples
# form a tight cluster, and a percentile that fell between two clusters
# would jump from run to run.  The counts below keep each percentile inside
# one cluster: the full suite has an odd number of operations per kind, so
# its median is the middle cluster.  The two scripts' ``apply`` and
# ``check`` cost nearly the same, so the bp script runs four times to
# library's once: its cluster then holds the median and the tail, well
# inside it (with two runs to one, ``check_ms.p50`` jumped between the two
# and spread by 0.27 over ten seeds).  In ``hier-cli``, where three
# generated models join the fixtures, the subset ``few`` runs two fixture
# operations per kind twice each, so the median sits in the upper fixture
# cluster and the generated models, three in seven, hold the tail.  This
# holds for ``export-dot`` and ``apply`` too, which report only a median:
# with their medians on the generated models, the median's spread over ten
# seeds reached 0.32 to 0.35 of its value, because the generated models'
# costs spread widely (13 to 35 ms for ``export-dot``).

# Known answers worked out by hand from the fixture files under the ``tag``
# compute; the library lines are the ones the README documents.
# (model, env, stdout, in the subset)
FIXTURE_SIMULATIONS = (
    ("bp", "bp", "out_1 avail = (whole+whole)\nout_1 descr = (whole+whole)\n", False),
    ("bp", "bp_partial", "", False),
    ("bp_fig6", "bp", "out_1 avail = (whole+whole)\nout_1 descr = (whole+whole)\n", False),
    ("bp_refined", "bp", "out_1a whole = (whole+whole)\nout_1b whole = (whole)\n", True),
    ("bp_refined", "bp_partial", "out_1b whole = (whole)\n", False),
    ("library", "library", "ack whole = (whole)\nrec whole = (whole)\n", False),
    ("library_refined", "library", "ack whole = (whole)\nrec whole = (whole)\n", True),
)
# (model, env, in the subset)
FIXTURE_CONFLUENCE = (("bp", "bp", False), ("bp_fig6", "bp", False), ("bp_refined", "bp", True),
                      ("library", "library", False), ("library_refined", "library", True))
# (model, extra argv, node labels, cluster labels, edge count, in the subset)
FIXTURE_DOTS = (
    ("bp_refined", (), ["bp1", "bp21", "bp22"], [], 6, True),
    ("bp_fig6", (), ["bp1", "bp2"], [], 4, False),
    ("library", (), ["notify_user", "reserve_book", "retrieve_book"], [], 5, False),
    ("library_refined", (), ["notify_user", "reserve_book", "retrieve_book"], [], 5, False),
    ("library_refined", ("--depth", "2"),
     ["check_availability", "issue_notification", "notify_user", "retrieve_book"],
     ["reserve_book"], 5, True),
)
# (base, script, refined, stdout of apply, runs in the suite, runs in the subset)
FIXTURE_SCRIPTS = (
    ("bp", "bp_refine", "bp_refined",
     "in_1^{bp} ~> {in_1^{bp1}}\nin_2^{bp} ~> {in_1^{bp21}}\n"
     "out_1^{bp} ~> {out_1^{bp21}, out_1^{bp22}}\n", 4, 1),
    ("library", "library_decompose", "library_refined",
     "in_1^{reserve_book} ~> {in_1^{check_availability}}\n"
     "out_1^{reserve_book} ~> {out_1^{issue_notification}}\n"
     "out_2^{reserve_book} ~> {out_2^{issue_notification}}\n", 1, 1),
)
# (model, in the subset)
FIXTURE_MODELS = (("bp", False), ("bp_fig6", False), ("bp_refined", True), ("library", False),
                  ("library_refined", True))


def fixture(name: str, ext: str = "bpn") -> Path:
    return FIXTURES / f"{name}.{ext}"


def fixture_ops(kinds: set[str], work: Path, few: bool = False) -> list[Op]:
    """The fixture suite for ``kinds``, or its subset ``few``."""
    ops: list[Op] = []
    for name, in_few in FIXTURE_MODELS:
        if few and not in_few:
            continue
        if VALIDATE in kinds:
            ops.append(_cli_op(VALIDATE, f"validate {name}", ("validate", fixture(name)),
                               expect_silent))
        if FMT in kinds:
            ops.append(_cli_op(FMT, f"fmt {name}", ("fmt", fixture(name)),
                               expect_fmt(bpnet.textio.parse_model(_read(fixture(name))))))
    if DOT in kinds:
        for name, extra, nodes, clusters, edges, in_few in FIXTURE_DOTS:
            if in_few or not few:
                ops.append(_cli_op(DOT, f"export-dot {name}",
                                   ("export-dot", fixture(name), *extra),
                                   expect_dot(nodes, clusters, edges)))
    for base, script, refined, arrows, runs, runs_few in FIXTURE_SCRIPTS:
        for _ in range(runs_few if few else runs):
            if APPLY in kinds:
                out = work / f"{base}_applied.bpn"
                ops.append(_cli_op(
                    APPLY, f"apply {script}",
                    ("apply", fixture(base), fixture(script, "bps"), out),
                    expect_apply(out, bpnet.textio.parse_model(_read(fixture(refined))),
                                 expect_lines(arrows)),
                ))
            if CHECK in kinds:
                ops.append(_cli_op(
                    CHECK, f"check {script}",
                    ("check", fixture(base), fixture(refined), fixture(script, "bps")),
                    expect_refines,
                ))
    if SIMULATE in kinds:
        for model, env, expected, in_few in FIXTURE_SIMULATIONS:
            if in_few or not few:
                ops.append(_cli_op(SIMULATE, f"simulate {model} {env}",
                                   ("simulate", fixture(model), fixture(env, "env")),
                                   expect_lines(expected)))
    if CONFLUENCE in kinds:
        for model, env, in_few in FIXTURE_CONFLUENCE:
            if in_few or not few:
                ops.append(_cli_op(
                    CONFLUENCE, f"confluence {model}",
                    ("simulate", fixture(model), fixture(env, "env"),
                     "--trials", "100", "--seed", "1"),
                    expect_lines("PASS\n"),
                ))
    if RULE_STEP in kinds or DERIVE in kinds:
        chains = [fixture_chain(base, script) for base, script, *_ in FIXTURE_SCRIPTS]
        for states, steps in chains:
            for i, step in enumerate(steps):
                if RULE_STEP in kinds:
                    ops.append(rule_step_op(f"fixture step {i + 1}", states[i], step))
                if DERIVE in kinds:
                    op = derive_op(f"derive fixture step {i + 1}", states[i], states[i + 1], 1)
                    # the search back from bp's closing unfold is the costliest
                    # by far; run once, it was a seventh of the samples, and the
                    # tail (p90) jumped between it and the next cluster
                    ops += [op] * (3 if isinstance(step, bpnet.refine.UnfoldStep) else 1)
    return ops


def fixture_chain(base: str, script: str) -> tuple[list, list]:
    """The states a fixture script passes through, and its steps."""
    model = bpnet.textio.parse_model(_read(fixture(base)))
    steps = bpnet.textio.parse_script(_read(fixture(script, "bps"))).steps
    states = [model]
    for step in steps:
        states.append(step.apply(states[-1])[0])
    return states, list(steps)


# --- library operations ---------------------------------------------------------------------


def _rule_step_check(must_accept: bool) -> Callable[[object], Verdict]:
    """Rules are total or rejected: an accepted step leaves a well-formed model."""

    def check(outcome) -> Verdict:
        status, detail = outcome
        if status == "accepted" and detail:
            return ("wrong", f"accepted step left {len(detail)} violations, e.g. {detail[0]}")
        if status == "rejected" and must_accept:
            return ("error", f"step rejected with {detail}")
        return None

    return check


def rule_step_op(label: str, model, step) -> Op:
    """Apply a step the fixture scripts take, then validate the result in full."""

    def run():
        try:
            result, _ = step.apply(model)
        except BpnError as exc:
            return "rejected", type(exc).__name__
        return "accepted", bpnet.core.validate_model(result)

    return Op(RULE_STEP, label, run, _rule_step_check(must_accept=True))


def derive_op(label: str, base, refined, steps: int) -> Op:
    """Search for a script deriving ``refined``, then check the witness."""

    def run():
        witness = bpnet.check.brute_force_derivable(base, refined, steps)
        if witness is None:
            return None, None
        return witness, bpnet.check.check_refinement(base, refined, witness)

    def check(outcome) -> Verdict:
        witness, verdict = outcome
        if witness is None:
            return ("wrong", f"no witness within {steps} steps")
        if len(witness.steps) > steps:
            return ("wrong", f"witness of {len(witness.steps)} steps")
        if verdict.status != bpnet.check.REFINES:
            return ("wrong", f"witness does not replay: {verdict.status}")
        return None

    return Op(DERIVE, label, run, check)


def guarded(op: Op) -> Op:
    """Turn an exception escaping the package into a failed operation."""
    run = op.run

    def safe_run():
        try:
            return run()
        except Exception as exc:  # the operation failed; the benchmark goes on
            return _Raised(f"{type(exc).__name__}: {exc}")

    def check(result) -> Verdict:
        if isinstance(result, _Raised):
            return ("error", result.why)
        return op.check(result)

    return Op(op.kind, op.label, safe_run, check, op.known, op.prepare)


@dataclass(frozen=True)
class _Raised:
    why: str


# --- rule proposals on a parsed model ------------------------------------------------------------


def _paths(model) -> dict[str, tuple[str, ...]]:
    parent = {m: owner for owner, (net, _) in model.nets.items() for m in net.processes}

    def path(pid: str) -> tuple[str, ...]:
        names = [model.processes[pid].name]
        while pid in parent:
            pid = parent[pid]
            names.append(model.processes[pid].name)
        return tuple(reversed(names))

    return {pid: path(pid) for pid in model.processes if pid == model.root or pid in parent}


def _sort_text(sort, table) -> str:
    """A sort as model text: its name in the table, else its record structure
    (the benchmark's models hold no collection sorts)."""
    for name in sorted(table):
        if table[name] == sort:
            return name
    if isinstance(sort, RecordSort):
        return "record { " + ", ".join(f"{f}: {_sort_text(s, table)}" for f, s in sort.fields) + " }"
    return sort.name


def _fresh(prefix: str, taken: set[str], rng: random.Random) -> str:
    while True:
        name = f"{prefix}{rng.randrange(1000)}"
        if name not in taken:
            return name


def propose(model, rng: random.Random, kind: str) -> str | None:
    """Script text for one random application of ``kind``, or None.

    Choices are made over paths and names, never over internal ids, so the
    same seed proposes the same text on any commit that keeps the rules'
    behaviour.  Proposals may be rejected, like a user's edits.
    """
    paths = _paths(model)
    by_path = {paths[pid]: pid for pid in paths}
    ordered = sorted(by_path)

    def at(path: tuple[str, ...]) -> str:
        return ".".join(path)

    def ports_of(pid: str):
        proc = model.processes[pid]
        return sorted((model.ports[p] for p in proc.ports() if p in model.ports),
                      key=lambda p: p.name)

    if kind == "assign":
        unsorted = [(path, port.name) for path in ordered for port in ports_of(by_path[path])
                    if port.sort is None]
        if not unsorted:
            return None
        path, name = rng.choice(unsorted)
        return f"assign-sort {at(path)}.{name} : {rng.choice(sorted(model.sort_table))}"
    if kind == "add":
        owners = [p for p in ordered if by_path[p] in model.nets]
        if not owners:
            return None
        owner = rng.choice(owners)
        net, _ = model.nets[by_path[owner]]
        members = sorted(model.processes[m].name for m in net.processes)
        if len(members) < 2:
            return None
        src, dst = rng.sample(members, 2)
        src_pid, dst_pid = by_path[owner + (src,)], by_path[owner + (dst,)]
        outs = [p.name for p in ports_of(src_pid) if p.direction == OUTPUT]
        if outs and rng.random() < 0.6:
            sname = rng.choice(outs)
        else:
            sname = _fresh("x", {p.name for p in ports_of(src_pid)}, rng)
        dname = _fresh("y", {p.name for p in ports_of(dst_pid)}, rng)
        return f"add-channel {at(owner + (src,))}.{sname} -> {at(owner + (dst,))}.{dname}"
    if kind == "decompose":
        leaves = [p for p in ordered if by_path[p] not in model.nets]
        if not leaves:
            return None
        path = rng.choice(leaves)
        pid = by_path[path]
        proc = gen.Proc(path[-1], path=path)
        for port in ports_of(pid):
            entry = (port.name, None if port.sort is None
                     else _sort_text(port.sort, model.sort_table))
            (proc.outs if port.direction == OUTPUT else proc.ins).append(entry)
        if not proc.ins or not proc.outs:
            return None
        gen.decompose(rng, proc, rng.randint(2, 3))
        body = "\n".join("  " + line for line in gen.net_body(proc))
        return f"decompose {at(path)} {{\n{body}\n}}"
    if kind == "split":
        cands = [(path, port) for path in ordered for port in ports_of(by_path[path])
                 if port.sort is None
                 or (isinstance(port.sort, RecordSort) and len(port.sort.fields) >= 2)]
        if not cands:
            return None
        path, port = rng.choice(cands)
        if port.sort is None:
            return f"split-port {at(path)}.{port.name} -> {port.name}_sa, {port.name}_sb"
        names = list(port.sort.field_names())
        cut = rng.randint(1, len(names) - 1)
        rng.shuffle(names)
        groups = [sorted(names[:cut]), sorted(names[cut:])]
        parts = ", ".join(f"{port.name}_s{i} : {{ {', '.join(g)} }}" for i, g in enumerate(groups))
        return f"split-port {at(path)}.{port.name} -> {parts}"
    if kind == "fold":
        owners = [p for p in ordered if by_path[p] in model.nets
                  and len(model.nets[by_path[p]][0].processes) >= 2]
        if not owners:
            return None
        owner = rng.choice(owners)
        net, _ = model.nets[by_path[owner]]
        members = sorted(model.processes[m].name for m in net.processes)
        group = sorted(rng.sample(members, rng.randint(1, len(members) - 1)))
        name = _fresh("q", set(members), rng)
        return f"fold {at(owner)} {{ {', '.join(group)} }} as {name}"
    if kind == "unfold":
        cands = [p for p in ordered if by_path[p] in model.nets and len(p) >= 2]
        return f"unfold {at(rng.choice(cands))}" if cands else None
    raise ValueError(kind)


PROPOSALS = ("assign", "add", "decompose", "split", "fold", "unfold")


def apply_text(model, text: str):
    """``model`` after one statement of script text, or None if it is rejected."""
    step = bpnet.textio.parse_script(text).steps[0]
    try:
        return step.apply(model)[0]
    except BpnError:
        return None


# --- workloads ----------------------------------------------------------------------------

# Flattening unfolds subnets with the validated unfold rule, which rejects a
# member whose name a sibling of its parent already uses; generated models
# reuse member names across levels, so ``simulate`` fails on them.
FLATTEN_DEFECT = "would leave the model ill-formed"


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def hier_cli_round(seed: int, r: int, work: Path) -> list[Op]:
    """Three generated deep models of 100 processes through every subcommand."""
    ops = []
    for i in range(3):
        rng = random.Random(f"{seed}:hier:{r}:{i}")
        tree = gen.hier_model(rng, 100)
        text = gen.model_text(tree)
        script, leaves = gen.script_text(rng, tree)
        name = f"hier{r}.{i}"
        model = _write(work / f"{name}.bpn", text)
        bps = _write(work / f"{name}.bps", script)
        env = _write(work / f"{name}.env", gen.env_text(tree))
        parsed = bpnet.textio.parse_model(text)
        refined_model, _ = bpnet.refine.apply_script(parsed, bpnet.textio.parse_script(script))
        refined = _write(work / f"{name}_refined.bpn", bpnet.textio.print_model(refined_model))
        out = work / f"{name}_applied.bpn"
        heads = sorted(f"{port}^{{{leaf.name}}}" for leaf in leaves
                       for port, _ in leaf.ins + leaf.outs)

        def arrows(stdout: str, heads=heads) -> str | None:
            got = sorted(line.split(" ~> ")[0] for line in stdout.splitlines())
            return None if got == heads else f"~> lines for {got[:4]}, expected {heads[:4]}"

        ops += [
            _cli_op(VALIDATE, f"validate {name}", ("validate", model), expect_silent),
            _cli_op(FMT, f"fmt {name}", ("fmt", model), expect_fmt(parsed)),
            _cli_op(DOT, f"export-dot {name}", ("export-dot", model, "--depth", "2"),
                    expect_dot(*gen.dot_shape(tree))),
            _cli_op(APPLY, f"apply {name}", ("apply", model, bps, out),
                    expect_apply(out, refined_model, arrows)),
            _cli_op(CHECK, f"check {name}", ("check", model, refined, bps), expect_refines),
            _cli_op(SIMULATE, f"simulate {name}", ("simulate", model, env),
                    expect_lines(gen.expected_outputs(tree)), FLATTEN_DEFECT),
            _cli_op(CONFLUENCE, f"confluence {name}",
                    ("simulate", model, env, "--trials", "3", "--seed", str(seed)),
                    expect_lines("PASS\n"), FLATTEN_DEFECT),
        ]
    return ops


def sim_wide_round(seed: int, r: int, work: Path) -> list[Op]:
    """Single-level nets of about 200 and 400 leaf rules through ``simulate``."""
    ops = []
    for i, members in enumerate((100, 100, 100, 100, 200, 200)):
        rng = random.Random(f"{seed}:wide:{r}:{i}")
        tree = gen.wide_model(rng, members)
        name = f"wide{r}.{i}"
        model = _write(work / f"{name}.bpn", gen.model_text(tree))
        env = _write(work / f"{name}.env", gen.env_text(tree))
        ops.append(_cli_op(SIMULATE, f"simulate {name}", ("simulate", model, env),
                           expect_lines(gen.expected_outputs(tree))))
        if i in (0, 1, 4):
            ops.append(_cli_op(CONFLUENCE, f"confluence {name}",
                               ("simulate", model, env, "--trials", "2", "--seed", str(seed)),
                               expect_lines("PASS\n")))
    return ops


def walk_ops(model, rng: random.Random, steps: int, label: str) -> list[Op]:
    """A random walk, like a user's edits: each operation applies one
    proposal to the walk's current model and validates the result.  The
    proposal is drawn, untimed, just before the operation runs; a rejected
    proposal leaves the model as it was."""
    state = {"model": model, "step": None}

    def prepare():
        kinds = list(PROPOSALS)
        if len(state["model"].processes) > 150:
            kinds.remove("decompose")
        text = None
        while text is None:
            text = propose(state["model"], rng, rng.choice(kinds))
        state["step"] = bpnet.textio.parse_script(text).steps[0]

    def run():
        try:
            result, _ = state["step"].apply(state["model"])
        except BpnError as exc:
            return "rejected", type(exc).__name__
        violations = bpnet.core.validate_model(result)
        state["model"] = result
        return "accepted", violations

    check = _rule_step_check(must_accept=False)
    return [Op(RULE_STEP, f"{label} step {k + 1}", run, check, prepare=prepare)
            for k in range(steps)]


def rule_walk_round(seed: int, r: int, work: Path) -> list[Op]:
    """Random rule applications on four generated models of about 100 processes."""
    ops = []
    for i in range(4):
        rng = random.Random(f"{seed}:walk:{r}:{i}")
        model = bpnet.textio.parse_model(gen.model_text(gen.hier_model(rng, 100)))
        ops += walk_ops(model, rng, 50, f"walk{r}.{i}")
    return ops


def derive_pair(model, rng: random.Random, kinds: list[str]):
    """``model`` after one accepted proposal of each kind in turn."""
    for kind in kinds:
        for _ in range(50):
            text = propose(model, rng, kind)
            if text is None:
                continue
            result = apply_text(model, text)
            if result is not None:
                model = result
                break
    return model


def derive_round(seed: int, r: int, work: Path) -> list[Op]:
    """Unfold one and both subnets of a fixed-shape base, then search back.

    Unfold is the last kind of candidate the search enumerates, so each
    search walks nearly the whole tree before its witness: its cost is set
    by the base's shape, which is fixed, not by where a witness happens to
    sit.  Sorting two ports in either order reaches one state, so the tree
    revisits states.
    """
    ops = []
    for i, kinds in enumerate([["unfold"]] * 2 + [["unfold", "unfold"]] * 6):
        rng = random.Random(f"{seed}:derive:{r}:{i}")
        base = bpnet.textio.parse_model(gen.model_text(gen.derive_base(rng)))
        refined = derive_pair(base, rng, kinds)
        ops.append(derive_op(f"derive {'+'.join(kinds)} {r}.{i}", base, refined, len(kinds)))
    return ops


# workload -> (kinds it runs on generated inputs, generator of round r's
# operations, repeats of the fixture suite for the other kinds)
WORKLOADS = {
    "hier-cli": ({VALIDATE, FMT, DOT, APPLY, CHECK, SIMULATE, CONFLUENCE}, hier_cli_round, 3),
    "sim-wide": ({SIMULATE, CONFLUENCE}, sim_wide_round, 3),
    "rule-walk": ({RULE_STEP}, rule_walk_round, 3),
    "derive": ({DERIVE}, derive_round, 3),
}


class Workload:
    """The fixture suite, built once, and generated operations per round.

    In ``hier-cli`` a subset of the fixtures joins the generated models for
    the kinds it is about; every other kind runs the fixture suite
    ``repeats`` times.
    """

    def __init__(self, name: str, seed: int, work: Path):
        focus, self._round, repeats = WORKLOADS[name]
        self.seed, self.work = seed, work
        fixed = fixture_ops(set(KINDS) - focus, work) * repeats
        if name == "hier-cli":
            fixed = fixture_ops(focus, work, few=True) * 2 + fixed
        self.fixed = [guarded(op) for op in fixed]

    def round(self, r: int) -> list[Op]:
        """Operations of round ``r``; their files live in ``work/r<r>``."""
        work = self.work / f"r{r}"
        work.mkdir(parents=True, exist_ok=True)
        return spread(self.fixed + [guarded(op) for op in self._round(self.seed, r, work)])


def spread(ops: list[Op]) -> list[Op]:
    """``ops`` reordered so that each kind's operations spread evenly over
    the round, in their own order.

    The machine's speed drifts from one second to the next.  Operations of
    one kind run back to back would all see the same speed, and a run would
    hold few independent samples of that kind.
    """
    by_kind: dict[str, list[int]] = {}
    for i, op in enumerate(ops):
        by_kind.setdefault(op.kind, []).append(i)
    key = {}
    for indices in by_kind.values():
        for k, i in enumerate(indices):
            key[i] = ((k + 0.5) / len(indices), i)
    return [ops[i] for i in sorted(range(len(ops)), key=key.__getitem__)]
