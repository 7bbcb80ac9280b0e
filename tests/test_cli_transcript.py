"""The ``bpn`` command line, byte for byte: each invocation of a recorded
transcript, replayed in-process, gives the recorded exit code, stdout,
stderr and written file.

The transcript, ``cli_transcript.json``, holds the generated inputs it
needs (two ``gen_model`` models, each with a random script and an
environment, and one-line scripts, most of them failing) and, for each
invocation, its arguments and what it did.  The fixtures are read from
``fixtures/``.  Paths in the output are written as ``{fixtures}`` and
``{work}``.  To record it again, on purpose, after a change of output:

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

from bpnet import cli, textio
from bpnet.core import RecordSort, container_index, display_path
from bpnet.errors import BpnError
from bpnet.refine import apply_script

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS.parent / "fixtures"
TRANSCRIPT = TESTS / "cli_transcript.json"

MODELS = ["bp.bpn", "bp_fig6.bpn", "bp_refined.bpn", "library.bpn", "library_refined.bpn"]
ENVS = {"bp": ["bp.env", "bp_partial.env"], "library": ["library.env"]}

# (fixture, script line): each rule's rejections, and a few steps that apply
ONE_LINERS = [
    ("bp.bpn", "decompose bp { process a { in i } input a.i binds bp.in_1 }"),
    ("bp.bpn", "add-channel bp.out_1 -> bp.in_3"),
    ("bp.bpn", "assign-sort bp.in_1 : NoSuchSort"),
    ("bp.bpn", "assign-sort bp.in_1 : BookData"),
    ("bp.bpn", "assign-sort bp.out_1 : Description"),
    ("bp.bpn", "split-port bp.out_1 -> a : descr"),
    ("bp.bpn", "split-port bp.out_1 -> a : descr, a : avail"),
    ("bp.bpn", "split-port bp.out_1 -> a : descr, b : descr"),
    ("bp.bpn", "split-port bp.out_1 -> a : { descr, descr }, b : avail"),
    ("bp.bpn", "split-port bp.out_1 -> a : { descr, nothing }, b : avail"),
    ("bp.bpn", "split-port bp.out_1 -> a : nothing, b : avail"),
    ("bp.bpn", "split-port bp.out_1 -> a : descr, b : { descr, avail }"),
    ("bp.bpn", "split-port bp.out_1 -> a, b"),
    ("bp.bpn", "split-port bp.in_1 -> a : { descr }, b"),
    ("bp.bpn", "split-port bp.out_1 -> a : { avail, descr }"),
    ("bp.bpn", "split-port bp.out_1 -> a : { descr, avail }, b : avail"),
    ("bp.bpn", "split-port bp.in_9 -> a, b"),
    ("bp.bpn", "fold bp { bp } as q"),
    ("bp.bpn", "unfold bp"),
    ("library.bpn", "add-channel system.notify_user.out_1 -> system.retrieve_book.in_2"),
    ("library.bpn", "add-channel system.retrieve_book.out_1 -> system.retrieve_book.in_2"),
    ("library.bpn", "add-channel system.retrieve_book.in_1 -> system.notify_user.in_2"),
    ("library.bpn", "add-channel system.retrieve_book.out_1 -> system.notify_user.in_1"),
    ("library.bpn", "add-channel system.retrieve_book.out_1 -> system.notify_user.in_9"),
    ("library.bpn", "add-channel system.retrieve_book.out_7 -> system.notify_user.in_9"),
    ("library.bpn", "assign-sort system.retrieve_book.out_1 : Notification"),
    ("library.bpn", "split-port system.retrieve_book.out_1 -> a, b"),
    ("library.bpn", "fold system { retrieve_book, reserve_book, notify_user } as all"),
    ("library.bpn", "fold system { retrieve_book, notify_user } as ends"),
    ("library.bpn", "fold system { retrieve_book, ghost } as g"),
    ("library.bpn", "fold system { retrieve_book } as reserve_book"),
    ("library.bpn", "fold system { retrieve_book, reserve_book } as desk"),
    ("library.bpn", "unfold system.retrieve_book"),
    ("library.bpn", "unfold system.nothing"),
    ("library_refined.bpn", "decompose system.reserve_book { process a { } }"),
    ("library_refined.bpn", "unfold system.reserve_book"),
    ("library_refined.bpn", "unfold system"),
    ("library_refined.bpn", "fold system.reserve_book { check_availability } as check"),
    (
        "library_refined.bpn",
        "add-channel system.retrieve_book.out_1 -> system.reserve_book.issue_notification.in_2",
    ),
    (
        "library_refined.bpn",
        "add-channel system.reserve_book.issue_notification.out_1 -> "
        "system.reserve_book.check_availability.in_5",
    ),
]


# --- recording ------------------------------------------------------------------


def _path(model, pid) -> str:
    return ".".join(display_path(model, pid))


def _ref(model, port_id) -> str:
    return f"{_path(model, model.port_owners[port_id])}.{model.ports[port_id].name}"


def _assign(model, rng):
    unsorted = sorted(p for p, port in model.ports.items() if port.sort is None)
    if unsorted:
        sort = rng.choice(sorted(model.sort_table))
        return f"assign-sort {_ref(model, rng.choice(unsorted))} : {sort}"
    return None


def _add(model, rng):
    members = sorted(model.nets[rng.choice(sorted(model.nets))][0].processes)
    if len(members) < 2:
        return None
    src, dst = rng.sample(members, 2)
    n = rng.randrange(100)
    return f"add-channel {_path(model, src)}.x{n} -> {_path(model, dst)}.y{n}"


def _decompose(model, rng):
    leaves = sorted(p for p in container_index(model) if p not in model.nets)
    if not leaves:
        return None
    pid = rng.choice(leaves)
    proc, sorts = model.processes[pid], sorted(model.sort_table)

    def decl(port_id) -> str:
        # an unsorted parent port may get its sort from the subnet
        port = model.ports[port_id]
        if port.sort is None and rng.random() < 0.5:
            return f"{port.name} : {rng.choice(sorts)}"
        return port.name

    ports = [f"{word} {' '.join(decl(p) for p in ids)}"
             for word, ids in (("in", proc.inputs), ("out", proc.outputs)) if ids]
    binds = [f"input d.{model.ports[p].name} binds {proc.name}.{model.ports[p].name}"
             for p in proc.inputs]
    binds += [f"output d.{model.ports[p].name} binds {proc.name}.{model.ports[p].name}"
              for p in proc.outputs]
    return f"decompose {_path(model, pid)} {{ process d {{ {'; '.join(ports)} }} {' '.join(binds)} }}"


def _split(model, rng):
    ports = sorted(
        p for p, port in model.ports.items()
        if port.sort is None or isinstance(port.sort, RecordSort) and len(port.sort.fields) > 1
    )
    if not ports:
        return None
    port = model.ports[rng.choice(ports)]
    if port.sort is None:
        parts = f"{port.name}_a, {port.name}_b"
    else:
        first, *rest = port.sort.field_names()
        parts = f"{port.name}_a : {first}, {port.name}_b : {{ {', '.join(rest)} }}"
    return f"split-port {_ref(model, port.id)} -> {parts}"


def _fold(model, rng):
    owner = rng.choice(sorted(model.nets))
    members = sorted(model.nets[owner][0].processes)
    if len(members) < 2:
        return None
    group = rng.sample(members, rng.randint(1, len(members) - 1))
    names = ", ".join(model.processes[m].name for m in group)
    return f"fold {_path(model, owner)} {{ {names} }} as q{rng.randrange(100)}"


def _unfold(model, rng):
    inner = sorted(p for p in model.nets if p in container_index(model))
    return f"unfold {_path(model, rng.choice(inner))}" if inner else None


def random_script(model, rng: random.Random, length: int) -> str:
    """``length`` random script lines that apply, in turn, to ``model``."""
    lines: list[str] = []
    for _ in range(50 * length):
        if len(lines) == length:
            break
        propose = rng.choice([_assign, _add, _decompose, _split, _fold, _unfold])
        line = propose(model, rng)
        if line is None:
            continue
        try:
            model, _ = apply_script(model, textio.parse_script(line))
        except BpnError:
            continue
        lines.append(line)
    return "".join(line + "\n" for line in lines)


def generated_files() -> dict[str, str]:
    """The inputs the transcript writes into its work directory."""
    from genmodels import gen_model

    files = {}
    for seed in (3, 8):
        model = gen_model(seed, max_depth=2, max_members=4)
        files[f"gen{seed}.bpn"] = textio.print_model(model)
        files[f"gen{seed}.bps"] = random_script(model, random.Random(seed), 12)
        root = model.processes[model.root]
        files[f"gen{seed}.env"] = "".join(
            f"{model.ports[p].name} whole = v{k}\n" for k, p in enumerate(root.inputs)
        )
    for k, (_, line) in enumerate(ONE_LINERS):
        files[f"line{k}.bps"] = line + "\n"
    return files


def invocations() -> list[list[str]]:
    """Each argument list, paths written with ``{fixtures}`` and ``{work}``."""
    fx, out = "{fixtures}/", "{work}/out.bpn"
    runs = []
    for name in MODELS:
        model = fx + name
        runs += [["validate", model], ["fmt", model], ["export-dot", model]]
        runs += [["export-dot", model, "--depth", str(d)] for d in (1, 2, 3)]
        for env in ENVS["bp" if name.startswith("bp") else "library"]:
            runs += [["simulate", model, fx + env],
                     ["simulate", model, fx + env, "--trials", "20", "--seed", "7"]]
    runs += [
        ["export-dot", fx + "library_refined.bpn", "--net", "system.reserve_book"],
        ["export-dot", fx + "library.bpn", "--net", "system.nothing"],
        ["export-dot", fx + "bp.bpn", "--depth", "0"],
        ["simulate", fx + "bp.bpn", fx + "bp.env", "--trials", "0"],
        ["validate", "{work}/missing.bpn"],
    ]
    for base, script in (("bp", "bp_refine.bps"), ("library", "library_decompose.bps")):
        for name in MODELS:
            runs.append(["apply", fx + name, fx + script, out])
        runs.append(["check", fx + f"{base}.bpn", fx + f"{base}_refined.bpn", fx + script])
        runs.append(["check", fx + f"{base}.bpn", fx + f"{base}.bpn", fx + script])
    runs.append(["check", fx + "bp.bpn", fx + "bp_fig6.bpn", fx + "bp_refine.bps"])
    for k, (name, _) in enumerate(ONE_LINERS):
        runs.append(["apply", fx + name, f"{{work}}/line{k}.bps", out])
    for seed in (3, 8):
        gen = f"{{work}}/gen{seed}"
        runs += [
            ["validate", gen + ".bpn"],
            ["fmt", gen + ".bpn"],
            ["export-dot", gen + ".bpn", "--depth", "3"],
            ["simulate", gen + ".bpn", gen + ".env"],
            ["simulate", gen + ".bpn", gen + ".env", "--trials", "10", "--seed", "1"],
            ["apply", gen + ".bpn", gen + ".bps", gen + "-out.bpn"],
            ["check", gen + ".bpn", gen + "-out.bpn", gen + ".bps"],
            ["validate", gen + "-out.bpn"],
        ]
    return runs


def replay(argv: list[str], work: Path) -> dict:
    """Run one invocation in-process: its exit code, its stdout and stderr,
    and, for ``apply``, the file it wrote, if any."""
    places = {"{fixtures}": str(FIXTURES), "{work}": str(work)}

    def fill(text: str) -> str:
        for mark, place in places.items():
            text = text.replace(mark, place)
        return text

    def mark(text: str) -> str:
        for name, place in places.items():
            text = text.replace(place, name)
        return text

    written = Path(fill(argv[3])) if argv[0] == "apply" else None
    if written is not None and written.exists():
        written.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([fill(arg) for arg in argv])
    return {
        "argv": argv,
        "code": code,
        "stdout": mark(out.getvalue()),
        "stderr": mark(err.getvalue()),
        "written": written.read_text(encoding="utf-8") if written and written.exists() else None,
    }


def write_files(files: dict[str, str], work: Path) -> None:
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")


# --- the gate --------------------------------------------------------------------


def test_cli_transcript_is_unchanged(tmp_path, monkeypatch):
    monkeypatch.setenv("BPN_COLOR", "never")
    recorded = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    write_files(recorded["files"], tmp_path)
    runs = recorded["runs"]
    assert {run["argv"][0] for run in runs} == {
        "validate", "apply", "check", "simulate", "export-dot", "fmt"
    }
    assert {run["code"] for run in runs} == {0, 1, 2, 3, 64}
    differ = [run["argv"] for run in runs if replay(run["argv"], tmp_path) != run]
    assert differ == [], f"{len(differ)} of {len(runs)} invocations differ: {differ[:5]}"


def record() -> None:
    import tempfile

    sys.path.insert(0, str(TESTS))
    os.environ["BPN_COLOR"] = "never"
    files = generated_files()
    with tempfile.TemporaryDirectory() as work:
        write_files(files, Path(work))
        runs = [replay(argv, Path(work)) for argv in invocations()]
    TRANSCRIPT.write_text(
        json.dumps({"files": files, "runs": runs}, indent=1) + "\n", encoding="utf-8"
    )
    print(f"{len(runs)} invocations recorded in {TRANSCRIPT}")


if __name__ == "__main__":
    record()
