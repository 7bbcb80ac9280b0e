"""The clock the benchmark times with, and the machine's speed during a run.

Operations are timed in CPU time of the benchmark's process
(``time.process_time``): the package runs single-threaded and in-process,
so on an idle machine this is its wall time, and on a shared virtual
machine it leaves out the time the host gives the processor to others
(the guest kernel accounts it as stolen).

CPU time still runs slower while other tenants share the host's caches and
cores; that speed changes within a second and drifts by tens of percent
from run to run.  ``Gauge`` measures it: between operations it times a
fixed piece of interpreter work that is the benchmark's own, not the
package's, and each time a run takes is scaled by ``REFERENCE_MS`` over
the mean of the timings around it.  A run thus reports its times at one
reference speed, the speed at which the fixed work takes ``REFERENCE_MS``;
a change to the package moves them as much as it moves the package's CPU
time.
"""

from __future__ import annotations

import gc
import re
import statistics
import time

clock = time.process_time

# the fixed work's time at the reference speed; about its median in runs
# on an idle 2-vCPU cloud virtual machine (Python 3.11)
REFERENCE_MS = 0.5
# time the fixed work after this much timed operation time; about a
# twentieth of a run goes to it
EVERY_MS = 5.0
# a sample is scaled by the mean of this many timings on each side of it
NEAR = 2
WARM_UP = 30


_TEXT = "\n".join(
    f"process p{i % 41} {{ in in_{i % 5} : s{i % 3}; out out_{(i * 7) % 11} : record {{ f{i % 4}: s0 }} }}"
    for i in range(15)
)
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|[{}:;]")


class _Node:
    __slots__ = ("name", "ports", "members")

    def __init__(self, name: str, ports: tuple, members: list):
        self.name, self.ports, self.members = name, ports, members


def _tree(depth: int, name: str) -> _Node:
    members = [_tree(depth - 1, f"{name}.{k}") for k in range(3)] if depth else []
    return _Node(name, tuple(f"{name}/{d}" for d in ("in", "out")), members)


def _walk(node: _Node, found: dict[str, int]) -> int:
    found[node.name.rsplit(".", 1)[-1]] = found.get(node.name.rsplit(".", 1)[-1], 0) + 1
    return len(node.ports) + sum(_walk(m, found) for m in node.members)


def work() -> int:
    """A fixed mix of what the package's interpreter work is made of:
    tokenising, dictionaries and sets of strings and tuples, sorting,
    small objects, recursion and string building."""
    tokens = _TOKEN.findall(_TEXT)
    index: dict[str, list[int]] = {}
    for i, token in enumerate(tokens):
        index.setdefault(token, []).append(i)
    names = sorted(index, key=lambda t: (len(index[t]), t))
    pairs = {(a, b) if a < b else (b, a) for a in names for b in names[:6]}
    found: dict[str, int] = {}
    ports = _walk(_tree(3, "root"), found)
    text = "\n".join(f"{a} -> {b}" for a, b in sorted(pairs))
    return len(tokens) + len(pairs) + ports + len(found) + len(text)


class Gauge:
    """Timings of the fixed work over a run."""

    def __init__(self):
        self.samples_ms: list[float] = []
        self._since_ms = 0.0
        self._answer = work()
        for _ in range(WARM_UP):
            work()
        self.measure()

    def mark(self) -> int:
        """Where the run is: a time taken now falls between timings
        ``mark - 1`` and ``mark``."""
        return len(self.samples_ms)

    def after(self, op_ms: float) -> None:
        """Time the fixed work once ``EVERY_MS`` of operations have passed."""
        self._since_ms += op_ms
        if self._since_ms >= EVERY_MS:
            self._since_ms = 0.0
            self.measure()

    def measure(self) -> None:
        # from the same collector state as every operation, and, like
        # them, with whatever the last operation left in the caches
        gc.collect()
        gc.freeze()
        t0 = clock()
        answer = work()
        self.samples_ms.append((clock() - t0) * 1000.0)
        if answer != self._answer:
            raise AssertionError("the fixed work gave another answer")

    def scale(self, mark: int) -> float:
        """Factor from a time taken at ``mark`` to the reference speed: the
        reference over the mean of the ``NEAR`` timings each side of it."""
        near = self.samples_ms[max(0, mark - NEAR):mark + NEAR]
        return REFERENCE_MS / statistics.fmean(near)
