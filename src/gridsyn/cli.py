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
from dataclasses import dataclass
from pathlib import Path

from . import cores as cores_mod
from .cubes import (
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
from .gridplot import build_grid_dag, metrics, minimize_layout, render
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


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    netlist_path: str | None = None
    out: str | None = None
    order: str | None = None
    phases: str | None = None
    minimize: str | None = None
    render_style: str = "ascii"
    dc_partition: bool = False
    core_metric: str = "cubes"
    max_arity: int = 5
    pitch_table: str | None = None
    seed: int = 0
    json_output: bool = False
    report_cores: bool = False
    survey_n: int = 3
    survey_mode: str = "classes"


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
    p.add_argument("--mode", choices=("classes", "direct"), default="classes")
    p.add_argument("--out", help="summary JSON path (default planar_bf<n>.json)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="check a netlist file against a PLA")
    p.add_argument("netlist", help="netlist file")
    p.add_argument("input", help="PLA file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    return ap


def _config(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=ns.command)
    cfg.input_path = getattr(ns, "input", None)
    cfg.netlist_path = getattr(ns, "netlist", None)
    cfg.out = getattr(ns, "out", None)
    cfg.order = getattr(ns, "order", None)
    cfg.phases = getattr(ns, "phases", None)
    cfg.minimize = getattr(ns, "minimize", None)
    cfg.render_style = getattr(ns, "render", "ascii")
    cfg.dc_partition = getattr(ns, "dc_partition", False)
    cfg.core_metric = getattr(ns, "core_metric", "cubes")
    cfg.max_arity = getattr(ns, "max_arity", 5)
    cfg.pitch_table = getattr(ns, "pitch_table", None)
    cfg.seed = getattr(ns, "seed", 0)
    cfg.json_output = getattr(ns, "json", False)
    cfg.report_cores = getattr(ns, "report_cores", False)
    cfg.survey_n = getattr(ns, "n", 3)
    cfg.survey_mode = getattr(ns, "mode", "classes")
    return cfg


def main(argv: list[str] | None = None) -> int:
    ns = _parser().parse_args(argv)
    try:
        return run(_config(ns))
    except (ParseError, CapacityError, MappingError, ValueError, OSError) as exc:
        print(f"gridsyn: error: {exc}", file=sys.stderr)
        return 2


def run(cfg: RunConfig) -> int:
    handler = {
        "synth": _cmd_synth,
        "spectrum": _cmd_spectrum,
        "grid": _cmd_grid,
        "cores": _cmd_cores,
        "tmap": _cmd_tmap,
        "explore-planar": _cmd_explore,
        "verify": _cmd_verify,
    }[cfg.command]
    return handler(cfg)


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


def _stem(cfg: RunConfig) -> str:
    if cfg.out:
        return cfg.out
    return Path(cfg.input_path).stem


def _load_library(cfg: RunConfig):
    if cfg.pitch_table:
        return library_from_pitch_table(Path(cfg.pitch_table).read_text(), cfg.max_arity)
    return library_inventory(cfg.max_arity)


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


def _cmd_synth(cfg: RunConfig) -> int:
    outputs = _read_pla(cfg.input_path)
    stem = _stem(cfg)
    lib = _load_library(cfg)
    opts = DecomposeOptions(dc_partition=cfg.dc_partition, core_size_metric=cfg.core_metric)

    summary = []
    rows = []
    text_lines = []
    failed = False
    for name, cover in outputs:
        cct = stem if len(outputs) == 1 else f"{stem}.{name}"
        nl = decompose(cover, opts)
        check = verify(nl, cover, seed=cfg.seed)
        if not check:
            failed = True
            text_lines.append(f"{cct}: VERIFICATION FAILED at {check.witness}")
            continue
        net_path = Path(f"{cct}.net")
        net_path.write_text(netlist_to_text(nl))

        layout = minimize_layout(cover_to_minterms(cover), mode=cfg.minimize, seed=cfg.seed)
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
        text_lines.append(f"{cct}: verified equivalent; netlist -> {net_path}")
        text_lines.append(f"{cct}: output = {netlist_to_expr(nl)}")
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
                "netlist_file": str(net_path),
                "netlist": netlist_to_json_dict(nl),
                "sym_nodes": sym_count,
                "layout": {
                    "order": list(layout.order),
                    "inverted": list(layout.phases.inverted),
                    "N": layout.metrics.node_count,
                    "L": layout.metrics.link_count,
                },
                "pitches": area,
            }
        )
        if cfg.report_cores:
            text_lines.append(_core_report_text(cover))

    if cfg.json_output:
        print(json.dumps({"command": "synth", "circuits": summary, "verified": not failed}, indent=2))
    else:
        for line in text_lines:
            print(line)
        if rows:
            print(_format_report(rows))
    return 1 if failed else 0


def _cmd_spectrum(cfg: RunConfig) -> int:
    outputs = _read_pla(cfg.input_path)
    if cfg.json_output:
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


def _cmd_grid(cfg: RunConfig) -> int:
    outputs = _read_pla(cfg.input_path)
    stem = _stem(cfg)
    payload = []
    for name, cover in outputs:
        s = cover_to_minterms(cover)
        if cfg.minimize:
            layout = minimize_layout(s, mode=cfg.minimize, seed=cfg.seed)
            order, phases = layout.order, layout.phases
        else:
            order = tuple(range(cover.n))
            if cfg.order:
                order = tuple(_parse_name_list(cfg.order, cover.input_names, "order"))
                if sorted(order) != list(range(cover.n)):
                    raise ValueError("--order must list every input exactly once")
            phases = PhaseVector.none(cover.n)
            if cfg.phases:
                phases = PhaseVector.inverting(
                    cover.n, _parse_name_list(cfg.phases, cover.input_names, "phases")
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
        if not cfg.json_output and len(outputs) > 1:
            print(f"== {name}")
        if cfg.render_style == "svg":
            path = Path(f"{stem}.svg" if len(outputs) == 1 else f"{stem}.{name}.svg")
            path.write_text(render(dag, "svg"))
            entry["svg_file"] = str(path)
            if not cfg.json_output:
                print(str(m))
                print(f"svg -> {path}")
        else:
            if not cfg.json_output:
                print(render(dag, "ascii"), end="")
        payload.append(entry)
    if cfg.json_output:
        print(json.dumps({"command": "grid", "outputs": payload}, indent=2))
    return 0


def _core_report_text(cover: Cover, metric: str = "cubes") -> str:
    lines = ["pair cores:"]
    pairs = cores_mod.best_pair_cores(cover, metric)
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


def _cmd_cores(cfg: RunConfig) -> int:
    outputs = _read_pla(cfg.input_path)
    if cfg.json_output:
        payload = []
        for name, cover in outputs:
            pairs = []
            for (a, b), (inv_a, core) in sorted(
                cores_mod.best_pair_cores(cover, cfg.core_metric).items()
            ):
                pairs.append(
                    {"pair": [a, b], "invert_first": inv_a, "cubes": core.cube_count}
                )
            best = cores_mod.best_core(cover, cfg.core_metric)
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
        print(_core_report_text(cover, cfg.core_metric))
    return 0


def _cmd_tmap(cfg: RunConfig) -> int:
    path = Path(cfg.input_path)
    lib = _load_library(cfg)
    stem = _stem(cfg)
    jobs: list[tuple[str, Netlist, Cover | None]] = []
    if path.suffix == ".net":
        jobs.append((stem, netlist_from_text(path.read_text()), None))
    else:
        outputs = _read_pla(cfg.input_path)
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
    if cfg.json_output:
        print(json.dumps({"command": "tmap", "circuits": payload}, indent=2))
    else:
        for line in lines:
            print(line)
        if rows:
            print(_format_report(rows))
    return 0


def _cmd_explore(cfg: RunConfig) -> int:
    survey = survey_planarity(cfg.survey_n, mode=cfg.survey_mode)
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
        "mode": survey.mode,
    }
    out_path = Path(cfg.out or f"planar_bf{survey.n}.json")
    out_path.write_text(json.dumps(summary, indent=2) + "\n")
    if cfg.json_output:
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


def _cmd_verify(cfg: RunConfig) -> int:
    nl = netlist_from_text(Path(cfg.netlist_path).read_text())
    outputs = _read_pla(cfg.input_path)
    if len(outputs) != 1:
        raise ValueError("verify expects a single-output PLA")
    cover = outputs[0][1]
    result = verify(nl, cover, seed=cfg.seed)
    if cfg.json_output:
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
