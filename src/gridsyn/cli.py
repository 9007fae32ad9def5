"""Command-line front end.

Commands: synth, spectrum, grid, cores, tmap, explore-planar, verify.  Each
command takes only the options its handler reads.  Artifacts (netlist files,
SVG, JSON summaries) are written to files named from the input stem, in the
current directory; --out overrides the stem on synth, grid (its --render svg
file) and tmap, and names the summary file of explore-planar.  spectrum and
cores write no file.  Each command handler writes its artifacts and returns
its exit status, its record and its text report; ``main`` alone prints, the
text report or, with --json, the record as one JSON object whose first key
is "command".  Exit status: 0 on success, 1 on a failed equivalence check, 2
on usage or parse errors, or when stdout refuses the report (a closed pipe, a
full disk).  The commands with a layout search, synth and grid, take --seed
for its greedy mode, so identical inputs and flags give byte-identical
output.  grid refuses the options it would ignore: --out without --render
svg, and, like synth, --seed without --minimize greedy.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable, TypeVar

from . import cores as cores_mod
from .cubes import (
    DEFAULT_EXPANSION_CAP,
    CapacityError,
    Cover,
    MintermSet,
    ParseError,
    PhaseVector,
    cover_to_minterms,
    literal_density,
    parse_pla_outputs,
)
from .decompose import decompose, verify
from .gridplot import EXHAUSTIVE_LAYOUT_CAP, build_grid_dag, metrics, minimize_layout, render
from .netlist import (
    Netlist,
    netlist_from_text,
    netlist_to_expr,
    netlist_to_json_dict,
    netlist_to_text,
)
from .planar import _SURVEY_CAP, survey_planarity
from .spectra import format_spectrum, spectrum_of
from .tcells import MappingError, library_from_pitch_table, library_inventory, map_netlist

Report = tuple[int, dict, list[str]]
T = TypeVar("T")

_ARITY_HELP = "cell library arity (default: the pitch table's largest arity, else 5)"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gridsyn",
        description="Decompose PLA covers into symmetric-component networks, "
        "analyze their grid plots, and map them onto threshold cells.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    p = {
        name: sub.add_parser(name, help=text)
        for name, text in (
            ("synth", "decompose, verify, and report"),
            ("spectrum", "rank spectrum per output"),
            ("grid", "grid plot metrics and rendering"),
            ("cores", "pair and expanded symmetric cores of the whole cover"),
            ("tmap", "map a netlist (or PLA) onto threshold cells"),
            ("explore-planar", "exhaustive planarity survey"),
            ("verify", "check a netlist file against a PLA"),
        )
    }
    # each command takes only the options its handler reads
    p["verify"].add_argument("netlist", help="netlist file")
    for name in ("synth", "spectrum", "grid", "cores", "verify"):
        p[name].add_argument("input", help="PLA file")
    p["tmap"].add_argument("input", help="netlist (.net) or PLA file")
    p["explore-planar"].add_argument(
        "-n", type=int, required=True, choices=range(_SURVEY_CAP + 1)
    )
    for name, what in (("synth", "netlist"), ("grid", "--render svg"), ("tmap", "mapped netlist")):
        p[name].add_argument("--out", help=f"stem of the {what} file (default: the input's)")
    p["explore-planar"].add_argument("--out", help="summary JSON path (default planar_bf<n>.json)")
    for name in ("synth", "grid"):
        p[name].add_argument("--seed", type=int, help="seed for --minimize greedy (default 0)")
    for cmd in p.values():
        cmd.add_argument("--json", action="store_true", help="machine-readable stdout")

    p["synth"].add_argument("--minimize", choices=("greedy", "exhaustive"), default="greedy")
    for name in ("synth", "tmap"):
        p[name].add_argument("--max-arity", type=int, help=_ARITY_HELP)
        p[name].add_argument("--pitch-table", help="cell cost table file")
    p["grid"].add_argument("--order", help="comma-separated input order, e.g. a,c,b,d")
    p["grid"].add_argument("--phases", help="comma-separated inputs to invert")
    p["grid"].add_argument("--minimize", choices=("greedy", "exhaustive"))
    p["grid"].add_argument("--render", choices=("ascii", "svg"), default="ascii")
    return ap


def main(argv: list[str] | None = None) -> int:
    """Run one command and print its report: the only writer to stdout."""
    ns = _parser().parse_args(argv)
    try:
        status, record, lines = run(ns)
    except (ParseError, CapacityError, MappingError, ValueError, OSError) as exc:
        print(f"gridsyn: error: {exc}", file=sys.stderr)
        return 2
    if ns.json:  # ASCII: json.dumps escapes every other character
        lines = [json.dumps({"command": ns.command, **record}, indent=2)]
    # input names may hold characters stdout cannot encode: escape them
    encoding = sys.stdout.encoding or "utf-8"
    try:
        for line in lines:
            print(line.encode(encoding, "backslashreplace").decode(encoding))
        sys.stdout.flush()
    except OSError as exc:
        # as the Python docs advise for SIGPIPE: the interpreter's last flush writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"gridsyn: error: cannot write the report: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return status


def run(ns: argparse.Namespace) -> Report:
    """The command's exit status, ``--json`` record (without its "command" key) and text."""
    return _COMMANDS[ns.command](ns)


# ---------------------------------------------------------------------------
# helpers


def _read(path: str, parse: Callable[[str], T]) -> T:
    """Parse one input file; a read or parse error names the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _stem(ns: argparse.Namespace) -> str:
    return ns.out or Path(ns.input).stem


def _greedy_seed(ns: argparse.Namespace) -> int:
    """The layout search's seed: ``--seed``, which needs ``--minimize greedy``, else 0."""
    if ns.seed is not None and ns.minimize != "greedy":
        raise ValueError("--seed seeds the greedy layout search and needs --minimize greedy")
    return ns.seed or 0


def _load_library(ns: argparse.Namespace):
    if ns.pitch_table:
        return _read(ns.pitch_table, lambda text: library_from_pitch_table(text, ns.max_arity))
    return library_inventory(5 if ns.max_arity is None else ns.max_arity)


def _parse_name_list(spec: str, names: tuple[str, ...], what: str) -> list[int]:
    idx = []
    for token in spec.split(","):
        token = token.strip()
        if token not in names:
            raise ValueError(f"unknown input {token!r} in --{what}")
        idx.append(names.index(token))
    return idx


def _format_report(rows: list[tuple]) -> list[str]:
    """The report table over (cct, inp, cub, dens, pitches) rows, None as "-"; none if no rows."""
    if not rows:
        return []
    lines = [f"{'cct':<12} {'inp':>4} {'cub':>4} {'dens':>5} {'pitches':>8}"]
    for cct, inp, cub, dens, pitches in rows:
        cub_s = "-" if cub is None else cub
        dens_s = "-" if dens is None else f"{dens:.0f}"
        pitches_s = "-" if pitches is None else f"{pitches:g}"
        lines.append(f"{cct:<12} {inp:>4} {cub_s:>4} {dens_s:>5} {pitches_s:>8}")
    return lines


# ---------------------------------------------------------------------------
# commands: each returns (exit status, --json record, text report lines)


def _cmd_synth(ns: argparse.Namespace) -> Report:
    seed = _greedy_seed(ns)
    outputs = _read(ns.input, parse_pla_outputs)
    stem = _stem(ns)
    lib = _load_library(ns)
    # refuse before any netlist is written
    wide = any(cover.n > EXHAUSTIVE_LAYOUT_CAP for _, cover in outputs)
    if ns.minimize == "exhaustive" and wide:
        raise ValueError(f"exhaustive layout search requires n <= {EXHAUSTIVE_LAYOUT_CAP}")

    circuits = []
    rows = []
    lines = []
    failed = False
    for name, cover in outputs:
        cct = stem if len(outputs) == 1 else f"{stem}.{name}"
        nl = decompose(cover)
        check = verify(nl, cover)
        if not check:
            failed = True
            lines.append(f"{cct}: VERIFICATION FAILED at {check.witness}")
            continue
        net_path = Path(f"{cct}.net")
        net_path.write_text(netlist_to_text(nl), encoding="utf-8")

        # the layout search expands the whole truth table, even of dead inputs
        layout = None
        if cover.n <= DEFAULT_EXPANSION_CAP:
            layout = minimize_layout(cover_to_minterms(cover), mode=ns.minimize, seed=seed)
        try:
            area = map_netlist(nl, lib).total_pitches
        except MappingError as exc:
            area = None
            lines.append(f"{cct}: unmapped ({exc})")
        density = literal_density(cover)
        rows.append((cct, cover.n, cover.m, density, area))
        checked = "" if check.exhaustive else f" on {check.checked} sampled assignments"
        lines.append(f"{cct}: verified equivalent{checked}; netlist -> {net_path}")
        lines.append(f"{cct}: output = {netlist_to_expr(nl)}")
        if layout is None:
            lines.append(
                f"{cct}: best layout skipped "
                f"({cover.n} inputs over the {DEFAULT_EXPANSION_CAP}-input cap)"
            )
        else:
            lines.append(
                f"{cct}: best layout {layout.metrics} "
                f"order=({','.join(cover.input_names[i] for i in layout.order)}) "
                f"inverted=({','.join(cover.input_names[i] for i in layout.phases.inverted)})"
            )
        circuits.append(
            {
                "output": name,
                "inputs": cover.n,
                "cubes": cover.m,
                "density": density,
                "verified": True,
                "exhaustive": check.exhaustive,
                "checked": check.checked,
                "netlist_file": str(net_path),
                "netlist": netlist_to_json_dict(nl),
                "sym_nodes": len(nl.sym_nodes()),
                "layout": None
                if layout is None
                else {
                    "order": list(layout.order),
                    "inverted": list(layout.phases.inverted),
                    "N": layout.metrics.node_count,
                    "L": layout.metrics.link_count,
                },
                "pitches": area,
            }
        )
    record = {"circuits": circuits, "verified": not failed}
    return (1 if failed else 0), record, lines + _format_report(rows)


def _cmd_spectrum(ns: argparse.Namespace) -> Report:
    outputs = _read(ns.input, parse_pla_outputs)
    entries = []
    lines = []
    for name, cover in outputs:
        sp = spectrum_of(cover_to_minterms(cover))
        entries.append({"output": name, "spectrum": list(sp)})
        text = format_spectrum(sp)
        lines.append(text if len(outputs) == 1 else f"{name}: {text}")
    return 0, {"outputs": entries}, lines


def _cmd_grid(ns: argparse.Namespace) -> Report:
    if ns.minimize and (ns.order is not None or ns.phases is not None):
        raise ValueError("--minimize cannot be combined with --order or --phases")
    if ns.out is not None and ns.render != "svg":
        raise ValueError("--out names the --render svg file and needs --render svg")
    seed = _greedy_seed(ns)
    outputs = _read(ns.input, parse_pla_outputs)
    stem = _stem(ns)
    entries = []
    lines = []
    for name, cover in outputs:
        s = cover_to_minterms(cover)
        if ns.minimize:
            layout = minimize_layout(s, mode=ns.minimize, seed=seed)
            order, phases = layout.order, layout.phases
        else:
            order = tuple(range(cover.n))
            if ns.order is not None:
                order = tuple(_parse_name_list(ns.order, cover.input_names, "order"))
                if sorted(order) != list(range(cover.n)):
                    raise ValueError("--order must list every input exactly once")
            phases = PhaseVector.none(cover.n)
            if ns.phases is not None:
                inverted = _parse_name_list(ns.phases, cover.input_names, "phases")
                if len(set(inverted)) < len(inverted):
                    raise ValueError("--phases must list each input at most once")
                phases = PhaseVector.inverting(cover.n, inverted)
        dag = build_grid_dag(s, order, phases)
        m = metrics(dag)
        entry = {
            "output": name,
            "order": list(order),
            "inverted": list(phases.inverted),
            "N": m.node_count,
            "L": m.link_count,
        }
        if len(outputs) > 1:
            lines.append(f"== {name}")
        if ns.render == "svg":
            path = Path(f"{stem}.svg" if len(outputs) == 1 else f"{stem}.{name}.svg")
            path.write_text(render(dag, "svg"), encoding="utf-8")
            entry["svg_file"] = str(path)
            lines += [str(m), f"svg -> {path}"]
        else:
            lines += render(dag, "ascii").splitlines()
        entries.append(entry)
    return 0, {"outputs": entries}, lines


def _core_report(cover: Cover) -> tuple[dict, list[str]]:
    """Pair cores, their expansions and the best core: the JSON entry and the text.

    The report is on the whole cover, not on the don't-care parts that
    ``decompose`` splits it into.  One core search serves all three, so the
    cover's pairs are scanned once and the best core's widenings end where
    the report's own did.  A cover with fewer than two inputs has no pair
    cores.
    """
    names = cover.input_names
    search = cores_mod.CoreSearch(cover)
    pairs = sorted(cores_mod.best_pair_cores(search).items())
    lines = ["pair cores:"]
    for (a, b), core in pairs:
        phase = f"~{names[a]}" if core.flips else "plain"
        lines.append(f"  ({names[a]},{names[b]})  {phase:>8}  {core.cube_count} cubes")
    lines.append("expanded cores:")
    for (a, b), core in pairs:
        if not core.cubes:
            continue
        expanded = cores_mod.expand_core(core, search)
        z = ",".join(names[i] for i in expanded.sym_inputs)
        inv = ",".join(names[i] for i in sorted(expanded.inverted))
        lines.append(
            f"  seed=({names[a]},{names[b]}) Z=({z}) inverted=({inv}) "
            f"count={expanded.cube_count} score={expanded.score}"
        )
    best = cores_mod.best_core(search)
    if best is None:
        lines.append("best core: none")
    else:
        z = ",".join(names[i] for i in best.sym_inputs)
        inv = ",".join(names[i] for i in sorted(best.inverted))
        lines.append(f"best core: Z=({z}) inverted=({inv}) cubes={best.cube_count}")
    entry = {
        "pair_cores": [
            {"pair": [a, b], "invert_first": bool(core.flips), "cubes": core.cube_count}
            for (a, b), core in pairs
        ],
        "best": None
        if best is None
        else {
            "sym_inputs": list(best.sym_inputs),
            "inverted": sorted(best.inverted),
            "cube_indices": list(best.cube_indices),
        },
    }
    return entry, lines


def _cmd_cores(ns: argparse.Namespace) -> Report:
    outputs = _read(ns.input, parse_pla_outputs)
    entries = []
    lines = []
    for name, cover in outputs:
        entry, text = _core_report(cover)
        entries.append({"output": name, **entry})
        if len(outputs) > 1:
            lines.append(f"== {name}")
        lines += text
    return 0, {"outputs": entries}, lines


def _cmd_tmap(ns: argparse.Namespace) -> Report:
    path = Path(ns.input)
    lib = _load_library(ns)
    stem = _stem(ns)
    jobs: list[tuple[str, Netlist, Cover | None]] = []
    if path.suffix == ".net":
        jobs.append((stem, _read(ns.input, netlist_from_text), None))
    else:
        outputs = _read(ns.input, parse_pla_outputs)
        for name, cover in outputs:
            cct = stem if len(outputs) == 1 else f"{stem}.{name}"
            jobs.append((cct, decompose(cover), cover))

    circuits = []
    rows = []
    lines = []
    for cct, nl, cover in jobs:
        result = map_netlist(nl, lib)
        out_path = Path(f"{cct}.tmap.net")
        out_path.write_text(netlist_to_text(result.netlist), encoding="utf-8")
        lines.append(f"{cct}: mapped netlist -> {out_path}")
        for use in result.cells:
            lines.append(
                f"  {use.name:<8} x{use.count:<3} {use.unit_cost:g} pitches each"
            )
        lines.append(f"  total: {result.total_pitches:g} pitches")
        # a netlist has no cube table
        cubes, density = (cover.m, literal_density(cover)) if cover else (None, None)
        rows.append((cct, nl.n, cubes, density, result.total_pitches))
        circuits.append(
            {
                "circuit": cct,
                "cells": [use._asdict() for use in result.cells],
                "total_pitches": result.total_pitches,
                "netlist_file": str(out_path),
            }
        )
    return 0, {"circuits": circuits}, lines + _format_report(rows)


def _cmd_explore(ns: argparse.Namespace) -> Report:
    survey = survey_planarity(ns.n)
    record = {
        "n": survey.n,
        "total": survey.total,
        "planar": survey.planar,
        "all_planar": survey.all_planar,
        "nonplanar_witnesses": [
            {"mask": w, "minterms": list(MintermSet(survey.n, w).members())}
            for w in survey.nonplanar_witnesses
        ],
    }
    out_path = Path(ns.out or f"planar_bf{survey.n}.json")
    out_path.write_text(
        json.dumps({"command": ns.command, **record}, indent=2) + "\n", encoding="utf-8"
    )
    lines = [f"functions of {survey.n} inputs: {survey.total}", f"planar: {survey.planar}"]
    if survey.all_planar:
        lines.append("all functions planar")
    else:
        lines.append(f"non-planar: {survey.total - survey.planar}")
        lines += [f"  witness mask {w:#x}" for w in survey.nonplanar_witnesses]
    lines.append(f"summary -> {out_path}")
    return 0, record, lines


def _cmd_verify(ns: argparse.Namespace) -> Report:
    nl = _read(ns.netlist, netlist_from_text)
    outputs = _read(ns.input, parse_pla_outputs)
    if len(outputs) != 1:
        raise ValueError("verify expects a single-output PLA")
    result = verify(nl, outputs[0][1])
    record = {
        "equivalent": result.equivalent,
        "exhaustive": result.exhaustive,
        "checked": result.checked,
        "witness": list(result.witness) if result.witness else None,
    }
    if result and result.exhaustive:
        line = "equivalent"
    elif result:
        line = f"equivalent on {result.checked} sampled assignments"
    else:
        line = f"mismatch at {result.witness}"
    return (0 if result else 1), record, [line]


_COMMANDS = {
    "synth": _cmd_synth,
    "spectrum": _cmd_spectrum,
    "grid": _cmd_grid,
    "cores": _cmd_cores,
    "tmap": _cmd_tmap,
    "explore-planar": _cmd_explore,
    "verify": _cmd_verify,
}


if __name__ == "__main__":
    sys.exit(main())
