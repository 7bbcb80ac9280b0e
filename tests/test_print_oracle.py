"""``textio.print_model`` and ``refine.net_spec`` against the printer and the
search's subnet exporter they replaced.

The printer must give byte-identical text on every fixture, every mutant
that the parser oracle's corpus has accepted, 200 generated models with
their renamed copies, and 30-step random rule walks from each of those 200.
The exporter must give the old exporter's spec for every net of the
fixtures and of 50 generated models, except that a decomposed member's note
and firing rules, residue beside its net, are left out.
"""

from __future__ import annotations

import random

import pytest

from bpnet import refine, textio
from bpnet.errors import BpnError

import reference_print
from conftest import fixture_text
from genmodels import gen_model, propose_step, rename_ids
from test_parse_oracle import FIXTURES, corpus

WALK_STEPS = 30


def models():
    """(label, model) for every model of the corpus."""
    for label, _, text in corpus():
        try:
            yield label, textio.parse_model(text)
        except BpnError:
            continue
    for seed in range(200):
        model = gen_model(seed, 3, 6)
        yield f"gen{seed}", model
        yield f"gen{seed}:renamed", rename_ids(model)
        rng = random.Random(seed)
        for step in range(WALK_STEPS):
            proposed = propose_step(model, rng)
            if proposed is None:
                break
            model = proposed[0]
            yield f"gen{seed}:walk{step}", model


@pytest.fixture(scope="module")
def printed():
    """(label, reference text, text) for every model of the corpus."""
    return [
        (label, reference_print.print_model(model), textio.print_model(model))
        for label, model in models()
    ]


class TestAgainstReferencePrinter:
    def test_corpus_size(self, printed):
        assert len(printed) >= 7000

    def test_same_text_as_the_reference(self, printed):
        for label, expected, got in printed:
            assert got == expected, label


def without_residue(model, owner, spec):
    net, _ = model.nets[owner]
    decomposed = {model.processes[m].name for m in net.processes if m in model.nets}
    return spec._replace(
        members=tuple(
            m._replace(note="") if m.name in decomposed else m for m in spec.members
        ),
        rules=tuple(r for r in spec.rules if r.process not in decomposed),
    )


def spec_models():
    for name in FIXTURES:
        yield name, textio.parse_model(fixture_text(name))
    for seed in range(50):
        yield f"gen{seed}", gen_model(seed, 3, 6)


class TestAgainstReferenceExporter:
    def test_same_spec_as_the_reference(self):
        nets = residue = 0
        for label, model in spec_models():
            for owner in sorted(model.nets):
                expected = reference_print.net_spec_of(model, owner, model.sort_table)
                got = refine.net_spec(model, owner, model._sort_names)
                assert got == without_residue(model, owner, expected), (label, owner)
                nets += 1
                residue += got != expected
        assert nets >= 200
        # the fixtures and generated models do carry residue to leave out
        assert residue > 0
