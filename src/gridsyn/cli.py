"""Command-line front end.

Commands: synth, spectrum, grid, cores, tmap, explore-planar, verify.
Reports go to standard output; artifacts (netlist files, SVG, JSON
summaries) are written to files named from the input stem, in the current
directory unless --out overrides the stem.  With --json the stdout report
is replaced by a machine-readable summary.  Exit status: 0 on success, 1 on
a failed equivalence check, 2 on usage or parse errors.  All randomized
steps take --seed, so identical inputs and flags give byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

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
from .decompose import DecomposeOptions, decompose, verify
from .gridplot import EXHAUSTIVE_LAYOUT_CAP, build_grid_dag, metrics, minimize_layout, render
from .netlist import (
    Netlist,
    netlist_from_text,
    netlist_to_expr,
    netlist_to_json_dict,
    netlist_to_text,
)
from .planar import survey_planarity
from .spectra import format_spectrum, spectrum_of
from .tcells import MappingError, library_from_pitch_table, library_inventory, map_netlist

REPORT_COLUMNS = ("cct", "inp", "cub", "dens", "pitches")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gridsyn",
        description="Decompose PLA covers into symmetric-component networks, "
        "analyze their grid plots, and map them onto threshold cells.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, pla=True):
        if pla:
            p.add_argument("input", help="PLA file")
        p.add_argument("--out", help="artifact stem (default: input stem in the cwd)")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized steps")
        p.add_argument("--json", action="store_true", help="machine-readable stdout")

    p = sub.add_parser("synth", help="decompose, verify, and report")
    add_common(p)
    p.add_argument("--minimize", choices=("greedy", "exhaustive"), default="greedy")
    p.add_argument("--dc-partition", action="store_true", help="split by don't-care count first")
    p.add_argument("--core-metric", choices=cores_mod.SIZE_METRICS, default="cubes")
    p.add_argument("--max-arity", type=int, default=5, help="cell library arity")
    p.add_argument("--pitch-table", help="cell cost table file")
    p.add_argument("--report-cores", action="store_true", help="also dump the core report")

    p = sub.add_parser("spectrum", help="rank spectrum per output")
    add_common(p)

    p = sub.add_parser("grid", help="grid plot metrics and rendering")
    add_common(p)
    p.add_argument("--order", help="comma-separated input order, e.g. a,c,b,d")
    p.add_argument("--phases", help="comma-separated inputs to invert")
    p.add_argument("--minimize", choices=("greedy", "exhaustive"))
    p.add_argument("--render", choices=("ascii", "svg"), default="ascii")

    p = sub.add_parser("cores", help="pair and expanded symmetric-core report")
    add_common(p)
    p.add_argument("--core-metric", choices=cores_mod.SIZE_METRICS, default="cubes")

    p = sub.add_parser("tmap", help="map a netlist (or PLA) onto threshold cells")
    add_common(p)
    p.add_argument("--max-arity", type=int, default=5)
    p.add_argument("--pitch-table")

    p = sub.add_parser("explore-planar", help="exhaustive planarity survey")
    p.add_argument("-n", type=int, required=True, choices=(0, 1, 2, 3, 4))
    p.add_argument("--out", help="summary JSON path (default planar_bf<n>.json)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="check a netlist file against a PLA")
    p.add_argument("netlist", help="netlist file")
    p.add_argument("input", help="PLA file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    return ap


def main(argv: list[str] | None = None) -> int:
    ns = _parser().parse_args(argv)
    try:
        return run(ns)
    except (ParseError, CapacityError, MappingError, ValueError, OSError) as exc:
        print(f"gridsyn: error: {exc}", file=sys.stderr)
        return 2


def run(ns: argparse.Namespace) -> int:
    handler = {
        "synth": _cmd_synth,
        "spectrum": _cmd_spectrum,
        "grid": _cmd_grid,
        "cores": _cmd_cores,
        "tmap": _cmd_tmap,
        "explore-planar": _cmd_explore,
        "verify": _cmd_verify,
    }[ns.command]
    return handler(ns)


# ---------------------------------------------------------------------------
# helpers


def _read_pla(path: str) -> list[tuple[str, Cover]]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise OSError(f"{path}: {exc.strerror or exc}") from None
    try:
        return parse_pla_outputs(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _stem(ns: argparse.Namespace) -> str:
    if ns.out:
        return ns.out
    return Path(ns.input).stem


def _load_library(ns: argparse.Namespace):
    if ns.pitch_table:
        return library_from_pitch_table(Path(ns.pitch_table).read_text(), ns.max_arity)
    return library_inventory(ns.max_arity)


def _parse_name_list(spec: str, names: tuple[str, ...], what: str) -> list[int]:
    idx = []
    for token in spec.split(","):
        token = token.strip()
        if token not in names:
            raise ValueError(f"unknown input {token!r} in --{what}")
        idx.append(names.index(token))
    return idx


def _format_report(rows: list[dict]) -> str:
    header = f"{'cct':<12} {'inp':>4} {'cub':>4} {'dens':>5} {'pitches':>8}"
    lines = [header]
    for row in rows:
        pitches = row["pitches"]
        pitches_s = f"{pitches:g}" if pitches is not None else "-"
        lines.append(
            f"{row['cct']:<12} {row['inp']:>4} {row['cub']:>4} "
            f"{row['dens']:>5.0f} {pitches_s:>8}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands


def _cmd_synth(ns: argparse.Namespace) -> int:
    outputs = _read_pla(ns.input)
    stem = _stem(ns)
    lib = _load_library(ns)
    opts = DecomposeOptions(dc_partition=ns.dc_partition, core_size_metric=ns.core_metric)
    # refuse before any netlist is written; layouts over the expansion cap are skipped
    if ns.minimize == "exhaustive" and any(
        EXHAUSTIVE_LAYOUT_CAP < cover.n <= DEFAULT_EXPANSION_CAP for _, cover in outputs
    ):
        raise ValueError(f"exhaustive layout search requires n <= {EXHAUSTIVE_LAYOUT_CAP}")

    summary = []
    rows = []
    text_lines = []
    failed = False
    for name, cover in outputs:
        cct = stem if len(outputs) == 1 else f"{stem}.{name}"
        nl = decompose(cover, opts)
        check = verify(nl, cover, seed=ns.seed)
        if not check:
            failed = True
            text_lines.append(f"{cct}: VERIFICATION FAILED at {check.witness}")
            continue
        net_path = Path(f"{cct}.net")
        net_path.write_text(netlist_to_text(nl))

        # the layout search expands the whole truth table, even of dead inputs
        layout = None
        if cover.n <= DEFAULT_EXPANSION_CAP:
            layout = minimize_layout(cover_to_minterms(cover), mode=ns.minimize, seed=ns.seed)
        sym_count = len(nl.sym_nodes())
        try:
            area = map_netlist(nl, lib).total_pitches
        except MappingError as exc:
            area = None
            text_lines.append(f"{cct}: unmapped ({exc})")
        rows.append(
            {
                "cct": cct,
                "inp": cover.n,
                "cub": cover.m,
                "dens": literal_density(cover),
                "pitches": area,
            }
        )
        checked = "" if check.exhaustive else f" on {check.checked} sampled assignments"
        text_lines.append(f"{cct}: verified equivalent{checked}; netlist -> {net_path}")
        text_lines.append(f"{cct}: output = {netlist_to_expr(nl)}")
        if layout is None:
            text_lines.append(
                f"{cct}: best layout skipped "
                f"({cover.n} inputs over the {DEFAULT_EXPANSION_CAP}-input cap)"
            )
        else:
            text_lines.append(
                f"{cct}: best layout {layout.metrics} "
                f"order=({','.join(cover.input_names[i] for i in layout.order)}) "
                f"inverted=({','.join(cover.input_names[i] for i in layout.phases.inverted)})"
            )
        summary.append(
            {
                "output": name,
                "inputs": cover.n,
                "cubes": cover.m,
                "density": literal_density(cover),
                "verified": True,
                "exhaustive": check.exhaustive,
                "checked": check.checked,
                "netlist_file": str(net_path),
                "netlist": netlist_to_json_dict(nl),
                "sym_nodes": sym_count,
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
        if ns.report_cores:
            text_lines.append(_core_report_text(cover, ns.core_metric))

    if ns.json:
        print(json.dumps({"command": "synth", "circuits": summary, "verified": not failed}, indent=2))
    else:
        for line in text_lines:
            print(line)
        if rows:
            print(_format_report(rows))
    return 1 if failed else 0


def _cmd_spectrum(ns: argparse.Namespace) -> int:
    outputs = _read_pla(ns.input)
    if ns.json:
        payload = [
            {"output": name, "spectrum": list(spectrum_of(cover_to_minterms(cover)))}
            for name, cover in outputs
        ]
        print(json.dumps({"command": "spectrum", "outputs": payload}, indent=2))
        return 0
    for name, cover in outputs:
        sp = format_spectrum(spectrum_of(cover_to_minterms(cover)))
        print(sp if len(outputs) == 1 else f"{name}: {sp}")
    return 0


def _cmd_grid(ns: argparse.Namespace) -> int:
    outputs = _read_pla(ns.input)
    stem = _stem(ns)
    payload = []
    for name, cover in outputs:
        s = cover_to_minterms(cover)
        if ns.minimize:
            layout = minimize_layout(s, mode=ns.minimize, seed=ns.seed)
            order, phases = layout.order, layout.phases
        else:
            order = tuple(range(cover.n))
            if ns.order:
                order = tuple(_parse_name_list(ns.order, cover.input_names, "order"))
                if sorted(order) != list(range(cover.n)):
                    raise ValueError("--order must list every input exactly once")
            phases = PhaseVector.none(cover.n)
            if ns.phases:
                phases = PhaseVector.inverting(
                    cover.n, _parse_name_list(ns.phases, cover.input_names, "phases")
                )
        dag = build_grid_dag(s, order, phases)
        m = metrics(dag)
        entry = {
            "output": name,
            "order": list(order),
            "inverted": list(phases.inverted),
            "N": m.node_count,
            "L": m.link_count,
        }
        if not ns.json and len(outputs) > 1:
            print(f"== {name}")
        if ns.render == "svg":
            path = Path(f"{stem}.svg" if len(outputs) == 1 else f"{stem}.{name}.svg")
            path.write_text(render(dag, "svg"))
            entry["svg_file"] = str(path)
            if not ns.json:
                print(str(m))
                print(f"svg -> {path}")
        else:
            if not ns.json:
                print(render(dag, "ascii"), end="")
        payload.append(entry)
    if ns.json:
        print(json.dumps({"command": "grid", "outputs": payload}, indent=2))
    return 0


def _pair_cores(cover: Cover, metric: str) -> dict:
    """``best_pair_cores``, empty for a cover with fewer than two inputs."""
    return cores_mod.best_pair_cores(cover, metric) if cover.n >= 2 else {}


def _core_report_text(cover: Cover, metric: str) -> str:
    lines = ["pair cores:"]
    pairs = _pair_cores(cover, metric)
    names = cover.input_names
    for (a, b), (inv_a, core) in sorted(pairs.items()):
        phase = f"~{names[a]}" if inv_a else "plain"
        lines.append(f"  ({names[a]},{names[b]})  {phase:>8}  {core.cube_count} cubes")
    lines.append("expanded cores:")
    for (a, b), (inv_a, core) in sorted(pairs.items()):
        if not core.cube_indices:
            continue
        expanded, score = cores_mod.expand_core(core, cover, metric)
        z = ",".join(names[i] for i in expanded.sym_inputs)
        inv = ",".join(names[i] for i in sorted(expanded.inverted))
        lines.append(
            f"  seed=({names[a]},{names[b]}) Z=({z}) inverted=({inv}) "
            f"count={score.cube_count} score={score.score}"
        )
    core = cores_mod.best_core(cover, metric)
    if core is None:
        lines.append("best core: none")
    else:
        z = ",".join(names[i] for i in core.sym_inputs)
        inv = ",".join(names[i] for i in sorted(core.inverted))
        lines.append(f"best core: Z=({z}) inverted=({inv}) cubes={core.cube_count}")
    return "\n".join(lines)


def _cmd_cores(ns: argparse.Namespace) -> int:
    outputs = _read_pla(ns.input)
    if ns.json:
        payload = []
        for name, cover in outputs:
            pairs = []
            for (a, b), (inv_a, core) in sorted(_pair_cores(cover, ns.core_metric).items()):
                pairs.append(
                    {"pair": [a, b], "invert_first": inv_a, "cubes": core.cube_count}
                )
            best = cores_mod.best_core(cover, ns.core_metric)
            payload.append(
                {
                    "output": name,
                    "pair_cores": pairs,
                    "best": None
                    if best is None
                    else {
                        "sym_inputs": list(best.sym_inputs),
                        "inverted": sorted(best.inverted),
                        "cube_indices": list(best.cube_indices),
                    },
                }
            )
        print(json.dumps({"command": "cores", "outputs": payload}, indent=2))
        return 0
    for name, cover in outputs:
        if len(outputs) > 1:
            print(f"== {name}")
        print(_core_report_text(cover, ns.core_metric))
    return 0


def _cmd_tmap(ns: argparse.Namespace) -> int:
    path = Path(ns.input)
    lib = _load_library(ns)
    stem = _stem(ns)
    jobs: list[tuple[str, Netlist, Cover | None]] = []
    if path.suffix == ".net":
        jobs.append((stem, netlist_from_text(path.read_text()), None))
    else:
        outputs = _read_pla(ns.input)
        for name, cover in outputs:
            cct = stem if len(outputs) == 1 else f"{stem}.{name}"
            jobs.append((cct, decompose(cover), cover))

    payload = []
    rows = []
    lines = []
    for cct, nl, cover in jobs:
        result = map_netlist(nl, lib)
        out_path = Path(f"{cct}.tmap.net")
        out_path.write_text(netlist_to_text(result.netlist))
        lines.append(f"{cct}: mapped netlist -> {out_path}")
        for use in result.cells:
            lines.append(
                f"  {use.name:<8} x{use.count:<3} {use.unit_cost:g} pitches each"
            )
        lines.append(f"  total: {result.total_pitches:g} pitches")
        rows.append(
            {
                "cct": cct,
                "inp": nl.n,
                "cub": cover.m if cover else 0,
                "dens": literal_density(cover) if cover else 0.0,
                "pitches": result.total_pitches,
            }
        )
        payload.append(
            {
                "circuit": cct,
                "cells": [
                    {
                        "name": u.name,
                        "arity": u.arity,
                        "threshold": u.threshold,
                        "count": u.count,
                        "unit_cost": u.unit_cost,
                    }
                    for u in result.cells
                ],
                "total_pitches": result.total_pitches,
                "netlist_file": str(out_path),
            }
        )
    if ns.json:
        print(json.dumps({"command": "tmap", "circuits": payload}, indent=2))
    else:
        for line in lines:
            print(line)
        if rows:
            print(_format_report(rows))
    return 0


def _cmd_explore(ns: argparse.Namespace) -> int:
    survey = survey_planarity(ns.n)
    summary = {
        "command": "explore-planar",
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
    out_path.write_text(json.dumps(summary, indent=2) + "\n")
    if ns.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"functions of {survey.n} inputs: {survey.total}")
        print(f"planar: {survey.planar}")
        if survey.all_planar:
            print("all functions planar")
        else:
            print(f"non-planar: {survey.total - survey.planar}")
            for w in survey.nonplanar_witnesses:
                print(f"  witness mask {w:#x}")
        print(f"summary -> {out_path}")
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    nl = netlist_from_text(Path(ns.netlist).read_text())
    outputs = _read_pla(ns.input)
    if len(outputs) != 1:
        raise ValueError("verify expects a single-output PLA")
    cover = outputs[0][1]
    result = verify(nl, cover, seed=ns.seed)
    if ns.json:
        print(
            json.dumps(
                {
                    "command": "verify",
                    "equivalent": result.equivalent,
                    "exhaustive": result.exhaustive,
                    "checked": result.checked,
                    "witness": list(result.witness) if result.witness else None,
                },
                indent=2,
            )
        )
    else:
        if result and result.exhaustive:
            print("equivalent")
        elif result:
            print(f"equivalent on {result.checked} sampled assignments")
        else:
            print(f"mismatch at {result.witness}")
    return 0 if result else 1


if __name__ == "__main__":
    sys.exit(main())
