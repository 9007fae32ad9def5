"""Seeded mutation fuzzing of the two text formats the command line reads.

Each case takes a demo PLA, or a netlist the decomposer wrote for one, and
applies one or two random edits: insert, delete or replace a character, or
drop or duplicate a line.  A mutated text must either parse or raise
``ParseError``; any other exception is a reader fault.  A PLA that still
parses, with at most 8 inputs, must decompose into a netlist that verifies
equivalent, since the reader's covers are the decomposer's whole input
contract.
"""

from __future__ import annotations

import random

import pytest

from gridsyn import (
    ParseError,
    decompose,
    netlist_from_text,
    netlist_to_text,
    parse_pla_outputs,
    verify,
)

from helpers import DEMO_PLAS

#: Characters an edit inserts: both formats' syntax, digits, letters of
#: their keywords, blanks and one non-ASCII digit.
ALPHABET = "01-~.#[], \t\n23456789ieopblnaxSYMORINVCTAND_+١"

CASES_PER_TEXT = 200


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(5)
        if op < 3:
            at = rng.randrange(len(text) + 1)
            ch = rng.choice(ALPHABET)
            if op == 0:
                text = text[:at] + ch + text[at:]
            elif op == 1:
                text = text[:at] + text[at + 1 :]
            else:
                text = text[:at] + ch + text[at + 1 :]
        else:
            lines = text.splitlines(keepends=True)
            if not lines:
                continue
            at = rng.randrange(len(lines))
            lines[at : at + 1] = [] if op == 3 else [lines[at]] * 2
            text = "".join(lines)
    return text


def _pla_texts() -> list[tuple[str, str]]:
    return [(p.name, p.read_text()) for p in sorted(DEMO_PLAS.glob("*.pla"))]


def _netlist_texts() -> list[str]:
    return [
        netlist_to_text(decompose(cover))
        for _, text in _pla_texts()
        for _, cover in parse_pla_outputs(text)
    ]


@pytest.mark.parametrize("seed", range(4))
def test_mutated_plas_parse_or_fail_cleanly_and_decompose(seed):
    rng = random.Random(seed)
    for name, text in _pla_texts():
        for _ in range(CASES_PER_TEXT):
            mutated = _mutate(rng, text)
            try:
                outputs = parse_pla_outputs(mutated)
            except ParseError:
                continue
            for out, cover in outputs:
                if cover.n <= 8:
                    assert verify(decompose(cover), cover), (name, out, mutated)


@pytest.mark.parametrize("seed", range(4))
def test_mutated_netlists_parse_or_fail_cleanly(seed):
    rng = random.Random(seed)
    for text in _netlist_texts():
        for _ in range(CASES_PER_TEXT):
            mutated = _mutate(rng, text)
            try:
                netlist_from_text(mutated)
            except ParseError:
                pass
