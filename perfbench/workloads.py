"""The benchmark's workloads: seeded corpora, one pass over them, and checks.

A workload makes its corpus from the seed with its own code and writes it
to the work directory.  A pass feeds gridsyn only that PLA text (or a
truth table, for planarity) and returns raw outputs.  ``check`` compares
those outputs against the independent oracles in ``oracles.py``;
``fingerprint`` condenses each case into a record that must be
byte-identical across passes, hash seeds and behaviour-preserving changes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from itertools import combinations
from pathlib import Path

import oracles


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def random_cubes(rng: random.Random, n: int, m: int, dc: float = 0.4) -> list[str]:
    return [
        "".join("-" if rng.random() < dc else rng.choice("01") for _ in range(n))
        for _ in range(m)
    ]


def threshold_product_cubes(rng: random.Random, spec) -> tuple[int, list[str]]:
    """OR of products of two disjoint, randomly phased threshold blocks.

    ``spec`` lists one (a, b, ka, kb) per product: an a-input block firing
    when ka of its literals hold, times a b-input block with threshold kb.
    Products use disjoint inputs; input positions, literal phases and cube
    order are drawn from ``rng``.
    """
    n = sum(a + b for a, b, _, _ in spec)
    perm = list(range(n))
    rng.shuffle(perm)
    cubes, pos = [], 0

    def block(ins, k):
        phase = [rng.random() < 0.5 for _ in ins]
        return [{ins[t]: "01"[not phase[t]] for t in ones} for ones in combinations(range(len(ins)), k)]

    for a, b, ka, kb in spec:
        left, right = perm[pos:pos + a], perm[pos + a:pos + a + b]
        pos += a + b
        for x in block(left, ka):
            for y in block(right, kb):
                lits = {**x, **y}
                cubes.append("".join(lits.get(i, "-") for i in range(n)))
    rng.shuffle(cubes)
    return n, cubes


class Workload:
    name = ""

    def make(self, rng: random.Random, work: Path) -> dict:
        """Draw the corpus from ``rng`` and write its input files to ``work``."""
        raise NotImplementedError

    def run(self, gs, corpus: dict, work: Path) -> list[dict]:
        """Run every case once, in order."""
        return [_guard(case["id"], lambda: self.run_case(gs, case, work)) for case in corpus["cases"]]

    def run_case(self, gs, case: dict, work: Path) -> dict:
        raise NotImplementedError

    def collect(self, corpus: dict, results: list[dict], work: Path) -> None:
        """Read the artifacts a pass left on disk into its results (untimed)."""

    def check(self, gs, corpus: dict, results: list[dict], seed: str) -> dict[str, str]:
        """Failure message per failed case id; ``seed`` seeds sampled checks."""
        raise NotImplementedError

    def fingerprint(self, results: list[dict]) -> list[tuple[str, str]]:
        raise NotImplementedError

    def quality(self, results: list[dict]) -> dict[str, float]:
        return {}


def _guard(case_id: str, fn) -> dict:
    """Run one case; an exception makes it a failed case, not a failed pass."""
    try:
        out = fn()
    except Exception as exc:  # every case is attempted, whatever the previous did
        return {"id": case_id, "error": f"{type(exc).__name__}: {exc}"}
    out["id"] = case_id
    out.setdefault("error", None)
    return out


# ---------------------------------------------------------------------------
# synth: the command line, as a user runs it


class Synth(Workload):
    name = "synth"
    RANDOM_SYNTH = ((8, 32),) * 8  # (inputs, cubes) of the seeded synth PLAs
    GRID = (5, 10)  # the seeded PLA whose layout is searched exhaustively

    def __init__(self, root: Path):
        self.demo_dir = root / "demos" / "pla"

    def make(self, rng, work):
        plas = {}  # file stem -> (input names, [(output, cubes)])
        demos = sorted(self.demo_dir.glob("*.pla"))
        if not demos:
            raise FileNotFoundError(f"no demo PLAs under {self.demo_dir}")
        for path in demos:
            text = path.read_text()
            (work / f"demo_{path.stem}.pla").write_text(text)
            plas[f"demo_{path.stem}"] = oracles.read_pla(text)
        for k, (n, m) in enumerate(self.RANDOM_SYNTH):
            names = [f"x{i}" for i in range(n)]
            # A dense cover can be a tautology, whose circuit is a constant
            # and needs no layout search: draw again.
            cubes = random_cubes(rng, n, m)
            while len(oracles.minterms_of(cubes, n)) == 1 << n:
                cubes = random_cubes(rng, n, m)
            (work / f"rand{n}_{k}.pla").write_text(oracles.write_pla(names, cubes))
            plas[f"rand{n}_{k}"] = (names, [("f0", cubes)])
        n, m = self.GRID
        names = [f"x{i}" for i in range(n)]
        grid_cubes = random_cubes(rng, n, m)
        (work / f"grid{n}.pla").write_text(oracles.write_pla(names, grid_cubes))

        cases, circuits = [], {}
        runs = [("g", stem, []) for stem in plas] + [
            ("x", stem, ["--minimize", "exhaustive"]) for stem in plas if stem.startswith("demo_")
        ]
        for tag, stem, extra in runs:
            names, outputs = plas[stem]
            out = f"{tag}_{stem}"
            argv = ["synth", f"{stem}.pla", "--out", out, "--max-arity", str(len(names))]
            cases.append({"id": f"synth:{out}", "argv": argv + extra + ["--json"]})
            for oname, cubes in outputs:
                cct = out if len(outputs) == 1 else f"{out}.{oname}"
                ref = f"ref_{stem}_{oname}.pla"
                (work / ref).write_text(oracles.write_pla(names, cubes, oname))
                circuits[cct] = {"n": len(names), "cubes": cubes, "ref": ref}
        cases.append({
            "id": f"grid:grid{n}",
            "argv": ["grid", f"grid{n}.pla", "--minimize", "exhaustive", "--json"],
            "n": n,
            "cubes": grid_cubes,
        })
        for cct, c in circuits.items():
            cases.append({
                "id": f"tmap:{cct}",
                "argv": ["tmap", f"{cct}.net", "--max-arity", str(c["n"]), "--json"],
                "cct": cct,
            })
            cases.append({
                "id": f"verify:{cct}",
                "argv": ["verify", f"{cct}.net", c["ref"], "--json"],
                "cct": cct,
            })
        return {"cases": cases, "circuits": circuits}

    def run(self, gs, corpus, work):
        here = os.getcwd()
        os.chdir(work)
        try:
            return super().run(gs, corpus, work)
        finally:
            os.chdir(here)

    def run_case(self, gs, case, work) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = gs.cli.main(case["argv"])
            except SystemExit as exc:  # argparse rejecting the arguments
                rc = exc.code
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def collect(self, corpus, results, work):
        files = {p.name: p.read_text() for p in sorted(work.glob("*.net"))}
        for res in results:
            res["files"] = files

    def check(self, gs, corpus, results, seed):
        failures = {}
        circuits = corpus["circuits"]
        by_id = {r["id"]: r for r in results}
        for k, (case, res) in enumerate(zip(corpus["cases"], results)):
            try:
                self._check_case(case, res, circuits, by_id, f"{seed}/{k}")
            except (oracles.OracleError, KeyError, ValueError, TypeError) as exc:
                failures[case["id"]] = f"{type(exc).__name__}: {exc}"
        return failures

    def _check_case(self, case, res, circuits, by_id, sample_seed):
        if res["error"] is not None:
            raise oracles.OracleError(res["error"])
        if res["rc"] != 0:
            raise oracles.OracleError(f"exit status {res['rc']}: {res['stderr'].strip()}")
        payload = json.loads(res["stdout"])
        kind = case["id"].split(":", 1)[0]
        if kind == "synth":
            if payload["verified"] is not True:
                raise oracles.OracleError("synth did not verify")
            for circ in payload["circuits"]:
                cct = circ["netlist_file"][: -len(".net")]
                c = circuits[cct]
                text = res["files"][circ["netlist_file"]]
                oracles.check_netlist(text, c["cubes"], c["n"], sample_seed)
                self._check_layout(circ["layout"], c["cubes"], c["n"])
                tmap = json.loads(by_id[f"tmap:{cct}"]["stdout"])["circuits"][0]
                if circ["pitches"] != tmap["total_pitches"]:
                    raise oracles.OracleError(f"{cct}: synth area {circ['pitches']} != tmap area")
        elif kind == "grid":
            self._check_layout(payload["outputs"][0], case["cubes"], case["n"])
        elif kind == "tmap":
            c = circuits[case["cct"]]
            circ = payload["circuits"][0]
            text = res["files"][circ["netlist_file"]]
            oracles.check_netlist(text, c["cubes"], c["n"], sample_seed)
            if oracles.mapped_area(text) != circ["total_pitches"]:
                raise oracles.OracleError(f"{case['cct']}: reported area differs from its cells")
        elif kind == "verify" and payload["equivalent"] is not True:
            raise oracles.OracleError("verify reported a mismatch on a correct netlist")

    @staticmethod
    def _payload(res) -> dict | None:
        """The command's ``--json`` report, or None if it printed none."""
        if res["error"] is not None:
            return None
        try:
            return json.loads(res["stdout"])
        except ValueError:
            return None

    @staticmethod
    def _check_layout(layout, cubes, n):
        if n > oracles.LAYOUT_MAX:
            return
        on = oracles.minterms_of(cubes, n)
        got = (layout["N"], layout["L"])
        want = oracles.grid_metrics(on, n, layout["order"], layout["inverted"])
        if got != want:
            raise oracles.OracleError(f"layout (N, L) = {got}, recomputed {want}")

    def fingerprint(self, results):
        out = []
        for res in results:
            if res["error"] is not None:
                out.append((res["id"], "error " + res["error"]))
                continue
            parts = [f"rc={res['rc']}"]
            payload = self._payload(res)
            kind = res["id"].split(":", 1)[0]
            if kind == "synth" and payload:
                for c in payload["circuits"]:
                    lay = c["layout"]
                    parts.append(
                        f"{c['netlist_file']} {sha(res['files'].get(c['netlist_file'], ''))} "
                        f"order={lay['order']} inv={lay['inverted']} N={lay['N']} L={lay['L']} "
                        f"pitches={c['pitches']}"
                    )
            elif kind == "grid" and payload:
                o = payload["outputs"][0]
                parts.append(f"order={o['order']} inv={o['inverted']} N={o['N']} L={o['L']}")
            elif kind == "tmap" and payload:
                c = payload["circuits"][0]
                parts.append(f"{sha(res['files'].get(c['netlist_file'], ''))} pitches={c['total_pitches']}")
            elif kind == "verify" and payload:
                parts.append(f"equivalent={payload['equivalent']}")
            out.append((res["id"], " ".join(parts)))
        return out

    def quality(self, results):
        q = {"pitches": 0.0, "net_nodes": 0, "layout_N": 0, "layout_L": 0}
        for res in results:
            payload = self._payload(res)
            if not payload or res["rc"] != 0:
                continue
            if res["id"].startswith("synth:"):
                for c in payload["circuits"]:
                    q["pitches"] += c["pitches"] or 0
                    q["net_nodes"] += len(c["netlist"]["nodes"])
                    q["layout_N"] += c["layout"]["N"]
                    q["layout_L"] += c["layout"]["L"]
            elif res["id"].startswith("grid:"):
                q["layout_N"] += payload["outputs"][0]["N"]
                q["layout_L"] += payload["outputs"][0]["L"]
        return q


# ---------------------------------------------------------------------------
# decompose-*: library calls, parse -> decompose -> verify -> map -> write/read


class Decompose(Workload):
    def __init__(self, name: str, shapes):
        self.name = name
        self.shapes = shapes  # per case: ("random", n, m) or ("blocks", spec)

    def make(self, rng, work):
        cases = []
        for k, shape in enumerate(self.shapes):
            if shape[0] == "random":
                n, cubes = shape[1], random_cubes(rng, shape[1], shape[2])
            else:
                n, cubes = threshold_product_cubes(rng, shape[1])
            names = [f"x{i}" for i in range(n)]
            path = f"c{k:02d}_n{n}.pla"
            (work / path).write_text(oracles.write_pla(names, cubes))
            cases.append({"id": f"{self.name}:{path}", "pla": path, "n": n, "cubes": cubes})
        return {"cases": cases}

    def run_case(self, gs, case, work) -> dict:
        ((_, cover),) = gs.cubes.parse_pla_outputs((work / case["pla"]).read_text())
        nl = gs.decompose.decompose(cover)
        check = gs.decompose.verify(nl, cover)
        mapped = gs.tcells.map_netlist(nl, gs.tcells.library_inventory(cover.n))
        net_path = work / (case["pla"][: -len(".pla")] + ".net")
        net_path.write_text(gs.netlist.netlist_to_text(nl))
        back = gs.netlist.netlist_from_text(net_path.read_text())
        return {
            "equivalent": check.equivalent,
            "net": gs.netlist.netlist_to_text(back),
            "roundtrip": back == nl,
            "mapped": gs.netlist.netlist_to_text(mapped.netlist),
            "pitches": mapped.total_pitches,
            "nodes": len(nl.nodes),
        }

    def check(self, gs, corpus, results, seed):
        failures = {}
        for k, (case, res) in enumerate(zip(corpus["cases"], results)):
            try:
                if res["error"] is not None:
                    raise oracles.OracleError(res["error"])
                if res["equivalent"] is not True:
                    raise oracles.OracleError("verify reported a mismatch")
                if res["roundtrip"] is not True:
                    raise oracles.OracleError("netlist text did not read back to the same netlist")
                oracles.check_netlist(res["net"], case["cubes"], case["n"], f"{seed}/{k}")
                oracles.check_netlist(res["mapped"], case["cubes"], case["n"], f"{seed}/{k}")
                if oracles.mapped_area(res["mapped"]) != res["pitches"]:
                    raise oracles.OracleError("reported area differs from the mapped cells")
            except (oracles.OracleError, ValueError, IndexError) as exc:
                failures[case["id"]] = f"{type(exc).__name__}: {exc}"
        return failures

    def fingerprint(self, results):
        return [
            (
                r["id"],
                "error " + r["error"]
                if r["error"] is not None
                else f"net={sha(r['net'])} mapped={sha(r['mapped'])} pitches={r['pitches']} "
                f"nodes={r['nodes']} equivalent={r['equivalent']}",
            )
            for r in results
        ]

    def quality(self, results):
        ok = [r for r in results if r["error"] is None]
        return {
            "pitches": sum(r["pitches"] for r in ok),
            "net_nodes": sum(r["nodes"] for r in ok),
        }


# ---------------------------------------------------------------------------
# planar: one exhaustive survey, then planarity decisions on 5-input functions


class Planar(Workload):
    name = "planar"
    N = 5
    # Decisions on random functions sweep all 3,840 configurations and cost
    # about the same each; a built function's cost depends on where its first
    # witness lies, so fewer of them keep the pass time steady across seeds.
    RANDOM = 26  # uniformly random functions with half the assignments on
    BUILT = 8  # planar by construction, then disguised
    SURVEY = (4, 65536, 42244, 0x358)  # n, total, planar, first non-planar mask

    def make(self, rng, work):
        n = self.N
        cases = []
        for k in range(self.RANDOM):
            on = sorted(rng.sample(range(1 << n), 1 << (n - 1)))
            cases.append({"id": f"planar:random{k}", "on": on, "built": False})
        links = [(r, d, b) for d in range(n) for r in range(d + 1) for b in (0, 1)]
        for k in range(self.BUILT):
            while True:
                deleted = {link for link in links if rng.random() < 0.25}
                on = oracles.template_function(n, deleted)
                if len(on) >= 4:
                    break
            perm = list(range(n))
            rng.shuffle(perm)
            flip = rng.getrandbits(n)
            # new input j reads old input perm[j], complemented when bit j of flip is set
            moved = sorted(
                sum((((v >> perm[j]) & 1) ^ ((flip >> j) & 1)) << j for j in range(n)) for v in on
            )
            cases.append({
                "id": f"planar:built{k}", "on": moved, "built": True,
                "template_on": on, "deleted": sorted(deleted),
            })
        (work / "functions.json").write_text(json.dumps(cases))
        return {"cases": [{"id": f"planar:survey{self.SURVEY[0]}"}] + cases}

    def run_case(self, gs, case, work):
        if "on" not in case:
            s = gs.planar.survey_planarity(self.SURVEY[0])
            return {"survey": (s.n, s.total, s.planar, list(s.nonplanar_witnesses))}
        bits = sum(1 << v for v in case["on"])
        w = gs.planar.is_planar_function(gs.cubes.MintermSet(self.N, bits))
        return {"witness": None if w is None else (list(w[0]), list(w[1].phases))}

    def check(self, gs, corpus, results, seed):
        failures = {}
        n, total, planar, first = self.SURVEY
        res = results[0]
        if res["error"] is not None:
            failures[res["id"]] = res["error"]
        else:
            got_n, got_total, got_planar, witnesses = res["survey"]
            if (got_n, got_total, got_planar) != (n, total, planar) or witnesses[:1] != [first]:
                failures[res["id"]] = (
                    f"survey reported {got_planar}/{got_total} planar, first witness "
                    f"{witnesses[:1]}; pinned {planar}/{total}, {first:#x}"
                )
        template = gs.planar.full_template(self.N)
        for case, res in zip(corpus["cases"][1:], results[1:]):
            if case["built"]:
                deleted = {(r, d, ("zero", "one")[b]) for r, d, b in case["deleted"]}
                if gs.planar.derive_pf(template, deleted).bits != sum(1 << v for v in case["template_on"]):
                    failures[case["id"]] = "derive_pf disagrees with the template walk"
                    continue
            if res["error"] is not None:
                failures[case["id"]] = res["error"]
            elif res["witness"] is None:
                if case["built"]:
                    failures[case["id"]] = "planar-by-construction function got no witness"
            else:
                order, phases = res["witness"]
                inverted = [i for i, p in enumerate(phases) if p]
                if not oracles.grid_is_planar(case["on"], self.N, order, inverted):
                    failures[case["id"]] = f"witness {order} {inverted} is not planar"
        return failures

    def fingerprint(self, results):
        out = []
        for r in results:
            if r["error"] is not None:
                out.append((r["id"], "error " + r["error"]))
            elif "survey" in r:
                n, total, planar, w = r["survey"]
                out.append((r["id"], f"n={n} total={total} planar={planar} witnesses={w}"))
            else:
                out.append((r["id"], f"witness={r['witness']}"))
        return out

    def quality(self, results):
        decided = [r for r in results[1:] if r["error"] is None]
        return {"witnesses": sum(r["witness"] is not None for r in decided)}


def workloads(root: Path) -> dict[str, Workload]:
    """Every workload by name; the shapes fix each pass's size and mix."""
    random_shapes = [("random", n, 4 * n) for n in [12] * 12 + [13] * 9 + [14] * 5]
    # A 16-input shape cost 1.1-2.6 s a cover across seeds, more spread than
    # a whole pass may have; many 14- and 15-input covers average out instead.
    majority15 = [(3, 3, 2, 2), (3, 3, 2, 2), (2, 1, 1, 1)]
    majority14 = [(3, 3, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2)]
    sym_shapes = [("blocks", majority15)] * 22 + [("blocks", majority14)] * 18
    all_ = [
        Synth(root),
        Decompose("decompose-random", random_shapes),
        Decompose("decompose-sym", sym_shapes),
        Planar(),
    ]
    return {w.name: w for w in all_}
