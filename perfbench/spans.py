"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each traced function at every name through
which the package's modules reach it (``check.apply_script`` and
``cli.apply_script`` are the same function imported twice), so calls
between layers pass through a wrapper.  A wrapper records a span only while
an operation is open; everything else calls straight through.  Spans are
kept in memory as ``[name, start, end, parent, op]`` and written out by
``dump``.  Untraced runs never call ``install``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable

RULE_KINDS = {
    "DecomposeStep": "decompose",
    "AddChannelStep": "add_channel",
    "AssignSortStep": "assign_sort",
    "SplitPortStep": "split_port",
    "FoldStep": "fold",
    "UnfoldStep": "unfold",
}

# (module, attribute) of every traced function; the span name is
# "<module>.<attribute>" without the package prefix.
FUNCTIONS = (
    ("bpnet.cli", "main"),
    ("bpnet.textio", "parse_model"),
    ("bpnet.textio", "parse_script"),
    ("bpnet.textio", "print_model"),
    ("bpnet.textio", "export_dot"),
    ("bpnet.core", "validate_model"),
    ("bpnet.core", "validate_scope"),
    ("bpnet.core", "serialize_order"),
    ("bpnet.refine", "apply_script"),
    ("bpnet.refine", "unfold"),
    ("bpnet.check", "check_refinement"),
    ("bpnet.check", "brute_force_derivable"),
    ("bpnet.sim", "flatten_with_boundary"),
    ("bpnet.sim", "simulate_greedy"),
    ("bpnet.sim", "check_confluence"),
    ("bpnet.sim", "prepare_env"),
    ("bpnet.sim", "format_outputs"),
)

SEARCH = "check.brute_force_derivable"


class Tracer:
    def __init__(self, canonical: Callable[[object], str]):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self._ops = 0
        self.counts: Counter[str] = Counter()
        self._canonical = canonical
        self._states: list[object] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- operations -------------------------------------------------------------

    def begin(self) -> None:
        """Open the next operation; every operation of the run has its own id."""
        self._ops += 1
        self.op = self._ops

    def end(self) -> None:
        """Close the operation; search states are canonicalised outside it."""
        self.op = None
        if self._states:
            self.counts["check.search.distinct_states"] += len(
                {self._canonical(m) for m in self._states}
            )
            self._states.clear()

    # --- wrappers -------------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if after is not None:
                    after(None)
                raise
            span[2] = time.perf_counter()
            tracer._stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, original: object, wrapper: object) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "bpnet" and not module_name.startswith("bpnet."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        import importlib

        from bpnet import refine

        for module_name, attr in FUNCTIONS:
            module = importlib.import_module(module_name)
            name = f"{module_name.removeprefix('bpnet.')}.{attr}"
            original = getattr(module, attr)
            after = self._count_fired if name == "sim.simulate_greedy" else None
            self._replace(original, self._wrap(name, original, after))
        for cls_name, kind in RULE_KINDS.items():
            cls = getattr(refine, cls_name)
            self._restore.append((cls, "apply", cls.apply))
            cls.apply = self._wrap(f"refine.rule.{kind}", cls.apply, self._rule_outcome)

    def _count_fired(self, result) -> None:
        if result is not None:
            self.counts["sim.simulate_greedy.rules_fired"] += len(result[1])

    def _rule_outcome(self, result) -> None:
        """Count attempts and rejections; under the search, nodes and states."""
        self.counts["refine.rule.attempted"] += 1
        if result is None:
            self.counts["refine.rule.rejected"] += 1
        if any(self.spans[i][0] == SEARCH for i in self._stack):
            self.counts["check.search.nodes"] += 1
            if result is not None:
                self._states.append(result[0])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- results -------------------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: number of calls and self time in ms."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter[str] = Counter()
        self_ms: Counter[str] = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ms[name] += (end - start - child[i]) * 1000.0
        return calls, self_ms

    def calls_per_op(self, name: str) -> float:
        ops = {op for n, _, _, _, op in self.spans if n == name}
        calls = sum(1 for n, *_ in self.spans if n == name)
        return calls / len(ops) if ops else 0.0

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


__all__ = ["Tracer", "FUNCTIONS", "RULE_KINDS"]
