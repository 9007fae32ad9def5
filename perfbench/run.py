"""Seeded benchmark of gridsyn, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload synth --seed 1 --seconds 20 --trace 0

Load model: gridsyn is a batch compiler with one caller, so the load is a
closed loop with one client in this single-threaded process.  Each case
starts when the previous one ends; a pass runs every case of the seed's
corpus once, and passes repeat while another fits in ``--seconds``.  A
corpus is sized so that one pass nearly fills a run: more distinct cases
steady the seed-to-seed spread more than repeating fewer would.  Every
pass starts with gridsyn's lru caches empty, as each command-line
invocation does.  Times are rescaled to a nominal host speed by
``speed.Meter``.

``--trace 0`` reports the end-to-end metrics, medians over passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones plus the tracing overhead.  The first
pass is checked against the oracles in ``oracles.py``; every later pass
must reproduce its fingerprint exactly.  The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import pkgutil
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from speed import Meter  # noqa: E402

MAX_PASSES = 100  # bounds memory when passes are very short, as when every case fails
SETUP_REPEATS = 21

#: name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Exact output-quality sums, printed on every run and reported per layer.
QUALITY = {
    "pitches": ("tcells.pitches", "pitches"),
    "net_nodes": ("decompose.net_nodes", "count"),
    "layout_N": ("gridplot.layout_N", "count"),
    "layout_L": ("gridplot.layout_L", "count"),
}

#: name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "gridplot.build_calls": ("count", "lower", "synth.wall_s, planar.wall_s"),
    "gridplot.build_s": ("s", "lower", "synth.wall_s, planar.wall_s"),
    "gridplot.search_calls": ("count", "lower", "synth.wall_s"),
    "gridplot.search_self_s": ("s", "lower", "synth.wall_s"),
    "gridplot.builds_per_search": ("count", "lower", "synth.wall_s"),
    "gridplot.distinct_config_ratio": ("ratio", "higher", "synth.wall_s"),
    "cores.best_core_calls": ("count", "lower", "decompose-random.wall_s"),
    "cores.expand_calls": ("count", "lower", "decompose-random.wall_s"),
    "cores.busy_s": ("s", "lower", "decompose-random.wall_s"),
    "cores.hit_ratio": ("ratio", "higher", "decompose-random.wall_s"),
    "spectra.sym_test_calls": ("count", "lower", "decompose-sym.wall_s"),
    "spectra.sym_test_s": ("s", "lower", "decompose-sym.wall_s"),
    "spectra.leaf_ratio": ("ratio", "higher", "decompose-sym.wall_s"),
    "cubes.expand_calls": ("count", "lower", "decompose-sym.wall_s"),
    "cubes.expand_s": ("s", "lower", "decompose-sym.wall_s"),
    "cubes.parse_s": ("s", "lower", "decompose-sym.wall_s"),
    "decompose.factor_calls": ("count", "lower", "decompose-sym.wall_s"),
    "decompose.factor_s": ("s", "lower", "decompose-sym.wall_s"),
    "decompose.calls": ("count", "lower", "decompose-random.wall_s, decompose-sym.wall_s"),
    "decompose.self_s": ("s", "lower", "decompose-random.wall_s, decompose-sym.wall_s"),
    "decompose.verify_calls": ("count", "lower", "decompose-random.wall_s, decompose-sym.wall_s"),
    "decompose.verify_s": ("s", "lower", "decompose-random.wall_s, decompose-sym.wall_s"),
    "tcells.map_calls": ("count", "lower", "synth.wall_s"),
    "tcells.map_s": ("s", "lower", "synth.wall_s"),
    "netlist.write_s": ("s", "lower", "synth.wall_s"),
    "netlist.read_s": ("s", "lower", "synth.wall_s"),
    "cli.calls": ("count", "lower", "synth.wall_s"),
    "cli.self_s": ("s", "lower", "synth.wall_s"),
    "planar.survey_calls": ("count", "lower", "planar.wall_s"),
    "planar.survey_s": ("s", "lower", "planar.wall_s"),
    "planar.decide_calls": ("count", "lower", "planar.wall_s"),
    "planar.decide_self_s": ("s", "lower", "planar.wall_s"),
    "planar.builds_per_decision": ("count", "lower", "planar.wall_s"),
    "planar.witness_ratio": ("ratio", "higher", "planar.wall_s"),
    "tcells.pitches": ("pitches", "lower", "exact output area on synth and decompose-*"),
    "decompose.net_nodes": ("count", "lower", "exact netlist size on synth and decompose-*"),
    "gridplot.layout_N": ("count", "lower", "exact best-layout N on synth"),
    "gridplot.layout_L": ("count", "lower", "exact best-layout L on synth"),
    "trace.overhead_frac": ("ratio", "lower", "none: traced wall over untraced wall, minus 1"),
}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_gridsyn() -> SimpleNamespace:
    """Import gridsyn afresh from this checkout's ``src``; modules by layer name."""
    for name in [n for n in sys.modules if n == spans.PACKAGE or n.startswith(spans.PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(spans.PACKAGE)
    for mod in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{spans.PACKAGE}.{mod.name}")
    if Path(package.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        raise ImportError(f"gridsyn imported from {package.__file__}, not from {ROOT / 'src'}")
    return SimpleNamespace(**spans.gridsyn_modules())


def digest(records) -> str:
    return hashlib.sha256("\n".join(f"{cid} {rec}" for cid, rec in records).encode()).hexdigest()


class Pass(NamedTuple):
    results: list
    meter: Meter
    tracer: spans.Tracer | None


def one_pass(wl, gs, corpus, work: Path, tracer=None) -> Pass:
    """Run the corpus once, with cold caches."""
    for stale in work.glob("*.net"):
        stale.unlink()
    spans.clear_caches()
    try:
        if tracer is not None:
            tracer.install()
        with Meter() as meter:
            results = wl.run(gs, corpus, work)
    finally:
        if tracer is not None:
            tracer.restore()
    wl.collect(corpus, results, work)
    return Pass(results, meter, tracer)


def measure(wl, gs, corpus, work: Path, seconds: float, trace: bool) -> list[Pass]:
    """Closed loop: passes back to back while another fits in ``seconds``.

    Traced runs alternate untraced and traced passes, at least one of each.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(one_pass(wl, gs, corpus, work, spans.Tracer() if traced else None))
        next_traced = trace and len(passes) % 2 == 1
        same_kind = [p.meter.raw_wall for p in passes if (p.tracer is not None) == next_traced]
        estimate = statistics.median(same_kind or [passes[-1].meter.raw_wall])
        done = len(passes) >= (2 if trace else 1)
        if (done and time.perf_counter() - start + estimate > seconds) or len(passes) >= MAX_PASSES:
            return passes


def check_outputs(wl, gs, corpus, passes: list[Pass], seed: int) -> tuple[int, int]:
    """Oracle-check the first pass and fingerprint every pass.

    Every later pass must reproduce the first pass's fingerprint exactly.
    Returns (failed cases, attempted cases).
    """
    failures = wl.check(gs, corpus, passes[0].results, str(seed))
    reference = dict(wl.fingerprint(passes[0].results))
    for cid, rec in reference.items():
        print(f"fingerprint {cid} {hashlib.sha256(rec.encode()).hexdigest()}")
    print(f"fingerprint-run {wl.name} seed={seed} {digest(reference.items())}")

    failed = attempted = 0
    for n, p in enumerate(passes):
        for cid, rec in wl.fingerprint(p.results):
            if cid not in failures and rec != reference[cid]:
                print(f"FAIL pass {n}: {cid}: output differs from the first pass")
            failed += cid in failures or rec != reference[cid]
        attempted += len(p.results)
    for cid, msg in failures.items():
        print(f"FAIL {cid}: {msg}")
    return failed, attempted


def layer_metrics(workload: str, passes: list[Pass], quality: dict, problems: list) -> dict:
    """Per-layer metrics of the traced passes, plus the tracing overhead."""
    traced = [p for p in passes if p.tracer is not None]
    per_pass = [p.tracer.layer_metrics() for p in traced]
    for p in traced:
        missing = p.tracer.missing_home_calls(workload)
        if missing:
            problems.append(f"traced functions recorded no call: {', '.join(missing)}")
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if PER_LAYER[name][0] == "s":
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
    for name, (layer_name, _) in QUALITY.items():
        metrics[layer_name] = quality.get(name, 0)
    untraced = [p.meter.wall for p in passes if p.tracer is None]
    metrics["trace.overhead_frac"] = (
        statistics.median(p.meter.wall for p in traced) / statistics.median(untraced) - 1
    )
    return metrics


def benchmark(args, work: Path) -> dict:
    wl = workloads.workloads(ROOT)[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        with Meter() as meter:
            gs = import_gridsyn()
            corpus = wl.make(random.Random(args.seed), work)
        setups.append(meter)

    print(
        f"run workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} git={git_sha()}"
    )
    passes = measure(wl, gs, corpus, work, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, attempted = check_outputs(wl, gs, corpus, passes, args.seed)

    quality = wl.quality(passes[0].results)
    for name, value in quality.items():
        if name in QUALITY:
            print(f"output {name} = {value} {QUALITY[name][1]} (exact; lower is better)")
        else:
            print(f"output {name} = {value} count (exact)")
    print(f"output fail_frac = {failed / attempted} ratio ({failed}/{attempted} cases; lower is better)")

    problems: list[str] = []
    if args.trace:
        metrics = layer_metrics(args.workload, passes, quality, problems)
        units = {k: PER_LAYER[k][:2] for k in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(p.meter.wall for p in passes),
            "cpu_s": statistics.median(p.meter.cpu for p in passes),
            "setup_s": statistics.median(m.wall for m in setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)

    print(f"setup: median {statistics.median(m.raw_wall for m in setups):.4f} s unscaled")
    for n, p in enumerate(passes[:12]):
        kind = "traced" if p.tracer is not None else "untraced"
        m = p.meter
        print(
            f"pass {n} {kind}: wall {m.wall:.4f} s, cpu {m.cpu:.4f} s at nominal speed; "
            f"unscaled wall {m.raw_wall:.4f} s, cpu {m.raw_cpu:.4f} s"
        )
    for name, value in metrics.items():
        unit, better = units[name]
        moves = f"; moves {PER_LAYER[name][2]}" if args.trace else ""
        print(f"metric {name} = {value} {unit} ({better} is better{moves})")
    for msg in problems:
        print(f"FAIL {msg}")

    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.workloads(ROOT)))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    scratch = ROOT / ".bench_work"
    work = scratch / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = benchmark(args, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
