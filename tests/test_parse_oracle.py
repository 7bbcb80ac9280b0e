"""``textio.parse_model`` against the parser it replaced, on the fixtures,
printed generated models and seeded mutants of both.

Both parsers must accept and reject the same inputs.  An accepted input
must give the same printed text, process ids, port ids and validator
report, and a model that holds each port id once and lists each process
once; a rejected one must raise a ``ParseError`` in both.  Only the wording
of a message may differ and, in a file with several errors, which one is
reported first.
"""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from bpnet import textio
from bpnet.core import validate_model
from bpnet.errors import BpnError, ParseError

from conftest import fixture_text, one_holder_one_listing
from genmodels import gen_model
from reference_textio import parse_model as reference_parse_model

FIXTURES = ["bp.bpn", "bp_fig6.bpn", "bp_refined.bpn", "library.bpn", "library_refined.bpn"]
MUTANTS_PER_TEXT = 80

_TOKEN = re.compile(r'[A-Za-z_][A-Za-z0-9_]*|"[^"\n]*"|->|[{}:;,.=-]')
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NOISE = list('{}:;,.=-"#@ \n') + ["->", "x", "in", "out", "net", "record", "seq"]


def _lines(text: str, rng: random.Random, kind: str) -> str:
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    j = rng.randrange(len(lines))
    if kind == "drop-line":
        del lines[i]
    elif kind == "copy-line":
        lines.insert(j, lines[i])
    elif kind == "swap-lines":
        lines[i], lines[j] = lines[j], lines[i]
    else:  # join-lines: the statements stay, their line ends go
        if i + 1 < len(lines):
            lines[i : i + 2] = [lines[i] + " " + lines[i + 1]]
    return "\n".join(lines)


def _shuffle_blocks(text: str, rng: random.Random) -> str:
    blocks = text.split("\n\n")
    rng.shuffle(blocks)
    return "\n\n".join(blocks)


def _tokens(text: str, rng: random.Random, kind: str) -> str:
    found = list(_TOKEN.finditer(text))
    m = rng.choice(found)
    if kind == "drop-token":
        return text[: m.start()] + text[m.end() :]
    if kind == "rename":  # another identifier of the same text, or a new one
        names = sorted(set(_IDENT.findall(text))) + ["ghost"]
        idents = [t for t in found if _IDENT.fullmatch(t.group())]
        m = rng.choice(idents)
        return text[: m.start()] + rng.choice(names) + text[m.end() :]
    return text[: m.start()] + rng.choice(_NOISE) + text[m.end() :]  # noise


def _chars(text: str, rng: random.Random, kind: str) -> str:
    i = rng.randrange(len(text))
    if kind == "truncate":
        return text[:i]
    if kind == "drop-char":
        return text[:i] + text[i + 1 :]
    return text[:i] + rng.choice(_NOISE) + text[i:]  # insert


KINDS = {
    "drop-line": _lines,
    "copy-line": _lines,
    "swap-lines": _lines,
    "join-lines": _lines,
    "shuffle-blocks": lambda text, rng, _: _shuffle_blocks(text, rng),
    "drop-token": _tokens,
    "rename": _tokens,
    "noise": _tokens,
    "truncate": _chars,
    "drop-char": _chars,
    "insert": _chars,
}


def base_texts() -> list[tuple[str, str]]:
    texts = [(name, fixture_text(name)) for name in FIXTURES]
    for seed in range(20):
        model = gen_model(seed, 1 + seed % 3, 3 + seed % 4)
        texts.append((f"gen{seed}", textio.print_model(model)))
    # the benchmark's shapes: a single-level net of 58 members and 58 rules,
    # and a model of 12 nets four levels deep
    texts.append(("wide101", textio.print_model(gen_model(101, 1, 100))))
    texts.append(("deep105", textio.print_model(gen_model(105, 4, 6))))
    return texts


def corpus() -> list[tuple[str, str, str]]:
    """(label, kind, text) triples: every base text, then its mutants."""
    cases = []
    for label, text in base_texts():
        cases.append((label, "base", text))
        rng = random.Random(label)
        kinds = sorted(KINDS)
        for n in range(MUTANTS_PER_TEXT):
            kind = kinds[n % len(kinds)]
            cases.append((f"{label}:{n}:{kind}", kind, KINDS[kind](text, rng, kind)))
    return cases


def outcome(parse, text: str):
    """What a parser makes of a text: the facts compared, or the error."""
    try:
        model = parse(text)
    except BpnError as exc:
        return exc
    return (
        textio.print_model(model),
        sorted(model.processes),
        sorted(model.ports),
        Counter(str(v) for v in validate_model(model)),
        one_holder_one_listing(model),
    )


@pytest.fixture(scope="module")
def outcomes():
    """(label, kind, reference outcome, outcome) for every case."""
    return [
        (label, kind, outcome(reference_parse_model, text), outcome(textio.parse_model, text))
        for label, kind, text in corpus()
    ]


class TestAgainstReferenceParser:
    def test_corpus_size_and_mix(self, outcomes):
        assert len(outcomes) >= 2000
        accepted = Counter(kind for _, kind, _, got in outcomes if not isinstance(got, BpnError))
        assert accepted["base"] == len(FIXTURES) + 22
        # enough mutants are accepted that both outcomes are compared often
        assert sum(accepted.values()) - accepted["base"] >= 200, accepted

    def test_same_outcome_as_the_reference(self, outcomes):
        for label, _, expected, got in outcomes:
            if isinstance(expected, BpnError) or isinstance(got, BpnError):
                assert isinstance(expected, ParseError), (label, expected)
                assert isinstance(got, ParseError), (label, got)
            else:
                assert got == expected, label

    def test_every_parse_holds_each_port_once_and_lists_each_process_once(self, outcomes):
        parsed = [(label, got) for label, _, _, got in outcomes if not isinstance(got, BpnError)]
        assert len(parsed) > 200
        assert [label for label, got in parsed if not got[-1]] == []
