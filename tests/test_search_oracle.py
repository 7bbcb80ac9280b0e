"""The pruned derivability search against the unpruned one it replaced.

``check.brute_force_derivable`` skips a candidate whose result cannot reach
the refined model's process count in the steps left.  That is safe only if
each rule kind changes the process count by exactly ``check._PROCESS_DELTA``
and assign-sort keeps the port count; the oracle run below checks both on
every candidate it applies, and the searches must agree on every pair.
"""

from __future__ import annotations

import random
import typing
from collections import Counter

import pytest

from bpnet import check, refine, textio
from bpnet.errors import SearchBudgetExceededError
from bpnet.refine import AssignSortStep, UnfoldStep

import reference_search
from genmodels import DERIVE_BASE, one_step_pairs, propose_step, two_step_pairs

BUDGET = "SearchBudgetExceededError"


def derive_pairs() -> list[tuple[object, object, str, int]]:
    """The search benchmark's shape: one and two unfolds, and one-step proposals."""
    base = textio.parse_model(DERIVE_BASE)
    p1, _ = UnfoldStep(("system", "p1")).apply(base)
    p2, _ = UnfoldStep(("system", "p2")).apply(base)
    both, _ = UnfoldStep(("system", "p2")).apply(p1)
    pairs = [(base, p1, "unfold", 1), (base, p2, "unfold", 1), (base, both, "unfold+unfold", 2)]
    for seed in range(6):
        refined, kind = propose_step(base, random.Random(seed))
        pairs.append((base, refined, kind, 1))
    return pairs


@pytest.fixture(scope="module")
def corpus() -> list[tuple[object, object, str, int]]:
    """(base, refined, kind, max_steps): criterion 8's 50 one-step pairs, 12
    two-step pairs and the derive-shaped pairs."""
    return (
        [(base, refined, kind, 1) for base, refined, kind in one_step_pairs(50)]
        + [(base, refined, kind, 2) for base, refined, kind in two_step_pairs(12)]
        + derive_pairs()
    )


def outcome(search, base, refined, max_steps, node_limit=200_000):
    try:
        return search(base, refined, max_steps, node_limit)
    except SearchBudgetExceededError:
        return BUDGET


@pytest.fixture(scope="module")
def reference(corpus):
    """The unpruned search's outcome on each pair, the rule kinds of every
    candidate it applied, and each applied candidate whose process or port
    count change breaks the pruning's assumptions."""
    applied: Counter[str] = Counter()
    broken: list[str] = []

    def recording(apply):
        def wrapper(step, model):
            result = apply(step, model)
            after = result[0]
            applied[type(step).__name__] += 1
            delta = len(after.processes) - len(model.processes)
            if delta != check._PROCESS_DELTA[type(step)](step):
                broken.append(f"{step.describe()}: process count changed by {delta}")
            if isinstance(step, AssignSortStep) and len(after.ports) != len(model.ports):
                broken.append(f"{step.describe()}: port count changed")
            return result

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for cls in typing.get_args(refine.Step):
            mp.setattr(cls, "apply", recording(cls.apply))
        outcomes = [
            outcome(reference_search.brute_force_derivable, base, refined, steps)
            for base, refined, _, steps in corpus
        ]
    return outcomes, applied, broken


def test_every_rule_kind_has_a_process_delta():
    missing = set(typing.get_args(refine.Step)) - set(check._PROCESS_DELTA)
    assert not missing, sorted(cls.__name__ for cls in missing)


def test_process_deltas_hold_on_every_applied_candidate(reference):
    _, applied, broken = reference
    assert not broken, broken[:10]
    assert set(applied) == {cls.__name__ for cls in typing.get_args(refine.Step)}, applied


def test_same_result_as_the_unpruned_search(corpus, reference):
    expected, _, _ = reference
    for (base, refined, kind, steps), old in zip(corpus, expected):
        new = outcome(check.brute_force_derivable, base, refined, steps)
        assert new == old, (kind, steps)
    assert BUDGET not in expected


@pytest.mark.parametrize("node_limit", [1, 5, 25])
def test_same_result_at_small_node_limits(corpus, node_limit):
    for base, refined, kind, steps in corpus:
        old = outcome(reference_search.brute_force_derivable, base, refined, steps, node_limit)
        new = outcome(check.brute_force_derivable, base, refined, steps, node_limit)
        assert new == old, (kind, steps, node_limit)

