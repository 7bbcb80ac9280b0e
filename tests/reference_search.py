"""The search that ``check.brute_force_derivable`` replaced, kept as an oracle.

It applied every enumerated candidate, including those whose result has a
process count that the steps left can no longer bring to the refined
model's.  It shares the candidate enumeration and the matcher with the
package, so any difference between the two searches lies in the pruning.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from bpnet.check import _candidate_groups, _match_models, _Refined
from bpnet.core import Model
from bpnet.errors import BpnError, SearchBudgetExceededError
from bpnet.refine import RefinementScript, Step


def candidate_steps(current: Model, refined: Model) -> Iterator[Step]:
    """Deterministic enumeration of plausible single rule applications: the
    candidates of ``check._candidate_groups``, group after group."""
    groups = _candidate_groups(current, _Refined(refined))
    return itertools.chain.from_iterable(candidates for *_, candidates in groups)


def brute_force_derivable(
    base: Model,
    refined: Model,
    max_steps: int,
    node_limit: int = 200_000,
) -> RefinementScript | None:
    nodes = 0

    def search(current: Model, depth: int, prefix: list[Step]) -> RefinementScript | None:
        nonlocal nodes
        iso, _ = _match_models(current, refined)
        if iso is not None:
            return RefinementScript(tuple(prefix))
        if depth >= max_steps:
            return None
        for step in candidate_steps(current, refined):
            nodes += 1
            if nodes > node_limit:
                raise SearchBudgetExceededError(
                    f"brute-force search exceeded {node_limit} nodes"
                )
            try:
                nxt, _ = step.apply(current)
            except BpnError:
                continue
            found = search(nxt, depth + 1, prefix + [step])
            if found is not None:
                return found
        return None

    return search(base, 0, [])
