"""The pruned derivability search against the unpruned one it replaced.

``check.brute_force_derivable`` skips a candidate whose result cannot reach
the refined model's process count in the steps left.  That is safe only if
each rule kind changes the process count by exactly ``check._PROCESS_DELTA``
and assign-sort keeps the port count; the oracle run below checks both on
every candidate it applies, and the searches must agree on every pair.
The pruned search prices its candidates in groups, one per rule kind and
one per decompose candidate; each group's count is checked against its
candidates at every state the searches visit, and its node accounting
against a search that counts and prices one candidate at a time.
"""

from __future__ import annotations

import random
import typing
from collections import Counter

import pytest

from bpnet import check, refine, textio
from bpnet.errors import BpnError, SearchBudgetExceededError
from bpnet.refine import AssignSortStep, RefinementScript, UnfoldStep

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
                broken.append(f"{step!r}: process count changed by {delta}")
            if isinstance(step, AssignSortStep) and len(after.ports) != len(model.ports):
                broken.append(f"{step!r}: port count changed")
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


# --- the candidate groups the search prices once each ------------------------------


class Pulled:
    """A group's candidates, counting each one the search takes into
    ``nodes``, as the search counts it."""

    def __init__(self, candidates, nodes: list[int]) -> None:
        self.candidates, self.nodes, self.pulled = iter(candidates), nodes, False

    def __iter__(self):
        return self

    def __next__(self):
        step = next(self.candidates)
        self.pulled = True
        self.nodes[0] += 1
        return step


@pytest.fixture(scope="module")
def searched(corpus):
    """The pruned search on each pair: the states it enumerated candidates
    at, with the refined model's facts it read there, and for each pair the
    nodes it counted and each skipped group's (nodes before it, count)."""
    states: list[tuple[object, object]] = []
    totals: list[int] = []
    skipped: list[list[tuple[int, int]]] = []
    groups = check._candidate_groups
    nodes = [0]

    def recording(current, refined):
        states.append((current, refined))
        for kind, delta, count, candidates in groups(current, refined):
            pulled = Pulled(candidates, nodes)
            yield kind, delta, count, pulled
            # an admitted group is walked; a skipped one never is
            if count and not pulled.pulled:
                skipped[-1].append((nodes[0], count))
                nodes[0] += count

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(check, "_candidate_groups", recording)
        for base, refined, _, steps in corpus:
            nodes[0] = 0
            skipped.append([])
            check.brute_force_derivable(base, refined, steps)
            totals.append(nodes[0])
    return states, totals, skipped


def test_group_counts_are_the_lengths_of_their_candidates(searched):
    """At every state the searches visit, each group's count is the number
    of candidates its iterator gives, each of the group's kind and delta,
    and ``reference_search.candidate_steps`` lists the groups' candidates
    in order."""
    states, _, _ = searched
    counted: Counter[str] = Counter()
    for current, refined in states:
        steps = []
        for kind, delta, count, candidates in check._candidate_groups(current, refined):
            group = list(candidates)
            assert len(group) == count, (kind.__name__, count, len(group))
            for step in group:
                assert type(step) is kind, (kind.__name__, step)
                assert check._PROCESS_DELTA[kind](step) == delta, step
            counted[kind.__name__] += count
            steps += group
        assert list(reference_search.candidate_steps(current, refined.model)) == steps
    assert len(states) > 500, len(states)
    assert set(+counted) == {cls.__name__ for cls in typing.get_args(refine.Step)}, counted


def one_at_a_time(base, refined, max_steps, node_limit=200_000, spent=None):
    """The pruned search as it was before candidates came in groups: it
    counts, prices and skips each candidate on its own.  It counts the
    nodes the grouped search counts, at every limit; ``spent`` gets the
    nodes it counted."""
    nodes = 0

    def search(current, depth, prefix):
        nonlocal nodes
        if check._match_models(current, refined)[0] is not None:
            return RefinementScript(tuple(prefix))
        if depth >= max_steps:
            return None
        for step in reference_search.candidate_steps(current, refined):
            nodes += 1
            if nodes > node_limit:
                raise SearchBudgetExceededError(f"brute-force search exceeded {node_limit} nodes")
            delta = check._PROCESS_DELTA[type(step)](step)
            if check._steps_needed(type(step), delta, current, refined) > max_steps - depth - 1:
                continue
            try:
                nxt, _ = step.apply(current)
            except BpnError:
                continue
            found = search(nxt, depth + 1, prefix + [step])
            if found is not None:
                return found
        return None

    try:
        return search(base, 0, [])
    finally:
        if spent is not None:
            spent.append(nodes)


def test_nodes_counted_up_to_the_witness(corpus, reference, searched):
    """A skipped group adds its count at once, so each search reaches its
    witness after as many nodes as a search counting one candidate at a
    time: with that many as the limit it finds it, with one fewer it runs
    out."""
    expected, *_ = reference
    _, totals, skipped = searched
    assert sum(map(len, skipped)) > 1000, sum(map(len, skipped))
    for (base, refined, kind, steps), old, total in zip(corpus, expected, totals):
        spent: list[int] = []
        assert one_at_a_time(base, refined, steps, spent=spent) == old, kind
        assert spent == [total], kind
        assert outcome(check.brute_force_derivable, base, refined, steps, total) == old, kind
        fewer = outcome(check.brute_force_derivable, base, refined, steps, total - 1)
        assert fewer == BUDGET, (kind, total)


def test_same_result_at_limits_around_skipped_groups(corpus, searched):
    """Limits that end just before a skipped group, inside it and just after
    it, for the first skipped group of each search and the last that ends
    within 400 nodes.  The search counting one candidate at a time gives
    the same outcome at each.  So does the unpruned search within 400 nodes
    of a one-step search: there every node it counts is a leaf, so it
    counts what the pruned search counts."""
    _, _, skipped = searched
    tried = Counter()
    for (base, refined, kind, steps), groups in zip(corpus, skipped):
        early = [(start, count) for start, count in groups if start + count <= 400]
        for start, count in set(groups[:1] + early[-1:]):
            for limit in (start, start + 1, start + count // 2, start + count, start + count + 1):
                new = outcome(check.brute_force_derivable, base, refined, steps, limit)
                assert new == outcome(one_at_a_time, base, refined, steps, limit), (
                    kind, steps, start, count, limit
                )
                tried["one at a time"] += 1
                if steps == 1 and start + count <= 400:
                    search = reference_search.brute_force_derivable
                    assert new == outcome(search, base, refined, steps, limit), (kind, limit)
                    tried["unpruned"] += 1
                tried[new == BUDGET] += 1
    assert tried["unpruned"] > 200 and tried[True] > 200 and tried[False] > 20, tried
