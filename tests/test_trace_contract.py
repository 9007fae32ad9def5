"""The benchmark's trace contract, on the decompose workloads' chain.

A traced benchmark run is refused when a workload's home functions record
no call, or when a count metric differs between traced passes.  Here the
chain of the decompose workloads (parse, decompose, verify, map, write and
read back) runs twice on two seeded covers, each time under a fresh tracer
from cold caches, as the benchmark's traced passes do.  The tracer is
``perfbench/spans.py``, loaded by path.
"""

import importlib
import importlib.util
import pkgutil
import random
from pathlib import Path

import gridsyn
from gridsyn.cubes import write_pla

from helpers import random_cover, threshold_products

ROOT = Path(__file__).resolve().parent.parent


def _load_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _traced_chain(spans, texts):
    """One pass of the chain over the PLA texts, under a fresh tracer."""
    cubes, decompose, netlist, tcells = (
        importlib.import_module(f"gridsyn.{name}")
        for name in ("cubes", "decompose", "netlist", "tcells")
    )
    spans.clear_caches()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for text in texts:
            ((_, cover),) = cubes.parse_pla_outputs(text)
            nl = decompose.decompose(cover)
            assert decompose.verify(nl, cover)
            tcells.map_netlist(nl, tcells.library_inventory(cover.n))
            assert netlist.netlist_from_text(netlist.netlist_to_text(nl)) == nl
    finally:
        tracer.restore()
    return tracer


def test_two_traced_passes_call_every_home_function_and_count_alike():
    for mod in pkgutil.iter_modules(gridsyn.__path__):
        importlib.import_module(f"gridsyn.{mod.name}")
    spans = _load_spans()
    rng = random.Random(38)
    texts = [write_pla(random_cover(rng, 11, 30)), write_pla(threshold_products(rng, 12))]
    tracers = [_traced_chain(spans, texts) for _ in range(2)]
    for tracer in tracers:
        assert tracer.missing_home_calls("decompose-random") == []
        assert tracer.missing_home_calls("decompose-sym") == []
    # every metric not in seconds is a count or a ratio of counts
    first, second = (
        {name: value for name, value in tracer.layer_metrics().items() if not name.endswith("_s")}
        for tracer in tracers
    )
    assert first["cores.expand_calls"] > 0
    assert first == second
