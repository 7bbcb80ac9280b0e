"""Command-line entry point: validate, apply, check, simulate, export-dot, fmt."""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Callable

from . import check, core, sim, textio
from .core import Model, format_port
from .errors import BpnError, NoNetError, ParseError, StepFailedError, UnknownProcessError
from .refine import Trace, apply_script

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_DOES_NOT_MATCH = 2
EXIT_SCRIPT_FAILS = 3
EXIT_USAGE = 64


class _UsageError(SystemExit):
    def __init__(self) -> None:
        super().__init__(EXIT_USAGE)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError()


def _use_color(stream) -> bool:
    mode = os.environ.get("BPN_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return stream.isatty()


def _report_violations(model: Model, stream) -> bool:
    """Print the model's violations to ``stream``; whether there were any."""
    violations = core.validate_model(model)
    color = violations and _use_color(stream)
    for violation in violations:
        code = f"\x1b[31m{violation.code}\x1b[0m" if color else violation.code
        print(f"{code} {','.join(violation.location)}: {violation.message}", file=stream)
    return bool(violations)


def _read_file(path: str) -> str:
    p = Path(path)
    try:
        # a directory exists, and reading it says so
        if not p.exists():
            print(f"bpn: no such file: {path}", file=sys.stderr)
            raise _UsageError()
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        print(f"bpn: cannot read {path}: {exc.strerror or exc}", file=sys.stderr)
        raise _UsageError() from None


def _load_model(path: str) -> Model:
    return textio.parse_model(_read_file(path), filename=path)


def _load_script(path: str):
    return textio.parse_script(_read_file(path), filename=path)


def _arrow_lines(trace: Trace, final: Model) -> list[str]:
    base = trace.base

    def key(port_id: str, model: Model) -> tuple[str, str]:
        owner = model.port_owners.get(port_id)
        if owner is None:
            return ("", port_id)
        return (model.processes[owner].name, model.ports[port_id].name)

    lines = []
    mapping = trace.port_map()
    for origin in sorted(mapping, key=lambda p: key(p, base)):
        image = mapping[origin]
        if image == frozenset({origin}):
            continue
        rendered = ", ".join(
            format_port(final, q) for q in sorted(image, key=lambda p: key(p, final))
        )
        lines.append(f"{format_port(base, origin)} ~> {{{rendered}}}")
    return lines


def _at_least_one(what: str) -> Callable[[str], int]:
    """An argparse type: an int of at least 1, named ``what`` in its error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"{what} must be at least 1, got {value}")
        return value

    return parse


def cmd_validate(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    return EXIT_INVALID if _report_violations(model, sys.stdout) else EXIT_OK


def cmd_apply(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    script = _load_script(args.script)
    # the rules assume a well-formed input and re-check only what they change
    if _report_violations(model, sys.stderr):
        return EXIT_INVALID
    try:
        refined, trace = apply_script(model, script)
    except StepFailedError as exc:
        print(f"step {exc.index} failed: {exc.cause}", file=sys.stderr)
        return EXIT_SCRIPT_FAILS
    try:
        Path(args.output).write_text(textio.print_model(refined), encoding="utf-8")
    except OSError as exc:
        print(f"bpn: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    for line in _arrow_lines(trace, refined):
        print(line)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    base = _load_model(args.base)
    refined = _load_model(args.refined)
    script = _load_script(args.script)
    # the replay, like apply's, assumes a well-formed base
    if _report_violations(base, sys.stderr):
        return EXIT_INVALID
    verdict = check.check_refinement(base, refined, script)
    print(f"{verdict.status}: {verdict.detail}")
    if verdict.status == check.REFINES:
        return EXIT_OK
    if verdict.status == check.DOES_NOT_MATCH:
        return EXIT_DOES_NOT_MATCH
    return EXIT_SCRIPT_FAILS


def cmd_simulate(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    try:
        entries = sim.parse_env_text(_read_file(args.env))
        fragments = sim.prepare_env(model, entries)
        if args.trials > 1:
            ok = sim.check_confluence(model, fragments, args.trials, args.seed)
            print("PASS" if ok else "FAIL")
            return EXIT_OK if ok else EXIT_INVALID
        outputs, _ = sim.simulate_greedy(model, fragments)
        rendered = sim.format_outputs(model, outputs)
        if rendered:
            print(rendered)
        return EXIT_OK
    except BpnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def cmd_export_dot(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    try:
        owner = (
            core.resolve_path(model, tuple(args.net.split(".")))
            if args.net
            else model.root
        )
        print(textio.export_dot(model, owner, depth=args.depth), end="")
        return EXIT_OK
    except (NoNetError, UnknownProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def cmd_fmt(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    print(textio.print_model(model), end="")
    return EXIT_OK


@functools.cache
def _build_parser() -> _ArgumentParser:
    # built once per process: parsing leaves the parser unchanged
    parser = _ArgumentParser(
        prog="bpn", description="Hierarchical business process net toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file for well-formedness")
    p.add_argument("model")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("apply", help="apply a refinement script to a model")
    p.add_argument("model")
    p.add_argument("script")
    p.add_argument("output")
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("check", help="verify that a script derives one model from another")
    p.add_argument("base")
    p.add_argument("refined")
    p.add_argument("script")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("simulate", help="run the greedy dataflow semantics")
    p.add_argument("model")
    p.add_argument("env")
    p.add_argument("--trials", type=_at_least_one("trials"), default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("export-dot", help="render a net as a DOT digraph")
    p.add_argument("model")
    p.add_argument("--net", default=None, help="dotted process path (default: root)")
    p.add_argument("--depth", type=_at_least_one("depth"), default=1)
    p.set_defaults(fn=cmd_export_dot)

    p = sub.add_parser("fmt", help="reprint a model in canonical form")
    p.add_argument("model")
    p.set_defaults(fn=cmd_fmt)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args)
    except _UsageError as exc:
        return int(exc.code)
    except ParseError as exc:
        # a model or script that does not load; an env file reports its own
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SystemExit as exc:
        # argparse exits 2 for usage problems; the documented contract is 64
        return EXIT_USAGE if exc.code not in (0, None) else 0
    return code


if __name__ == "__main__":
    sys.exit(main())
