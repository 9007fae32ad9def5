#!/usr/bin/env python3
"""Walkthrough: decomposing covers into networks of symmetric components.

Each example parses a bundled PLA, runs the recursive decomposition, prints
the resulting network, and re-verifies it against the cover by exhaustive
truth-table comparison.
"""

from pathlib import Path

from gridsyn import (
    CoreSearch,
    best_pair_cores,
    decompose,
    netlist_to_expr,
    netlist_to_text,
    parse_pla,
    verify,
)

PLA_DIR = Path(__file__).parent / "pla"

for name in ("fa_carry", "fa_sum", "xor_pair", "mixed5", "majority5"):
    cover = parse_pla((PLA_DIR / f"{name}.pla").read_text())
    nl = decompose(cover)
    check = verify(nl, cover)
    print(f"{name}: {netlist_to_expr(nl)}")
    print(f"  inputs={cover.n} cubes={cover.m} verified={bool(check)}")

print()
print("pair-core scores for the xor pair (the seeds of the decomposition):")
cover = parse_pla((PLA_DIR / "xor_pair.pla").read_text())
for (a, b), core in sorted(best_pair_cores(CoreSearch(cover)).items()):
    names = cover.input_names
    phase = f"~{names[a]}" if core.flips else "plain"
    print(f"  ({names[a]},{names[b]})  {phase:>6}  {core.cube_count} cubes")

print()
print("full netlist file format for the xor pair:")
print(netlist_to_text(decompose(cover)))
