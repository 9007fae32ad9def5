"""Per-layer tracing of gridsyn from outside the program.

Every public function of every gridsyn module is wrapped at every module
binding that holds it: ``from .x import y`` copies the name, so wrapping
only the defining module would miss calls such as ``cli`` calling
``build_grid_dag``.  Modules are reached through ``sys.modules`` because
the package re-exports functions under module names (``gridsyn.decompose``
is a function).  Spans (function, start, end, parent) stay in memory and
are reduced to per-layer calls, times and ratios when the traced pass ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

PACKAGE = "gridsyn"


def gridsyn_modules() -> dict[str, object]:
    """Loaded gridsyn submodules by layer name (the module's last name part)."""
    prefix = PACKAGE + "."
    return {
        name[len(prefix):]: mod
        for name, mod in sorted(sys.modules.items())
        if name.startswith(prefix)
    }


def public_functions(layer: str, mod) -> dict[str, object]:
    """Functions (plain or lru-cached) that a module defines under public names."""
    out = {}
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_clear"):
            out[f"{layer}.{attr}"] = obj
    return out


def clear_caches() -> None:
    """Empty every lru cache gridsyn defines, as a fresh process would have them.

    Call it with the tracer uninstalled: a wrapper hides ``cache_clear``.
    """
    for layer, mod in gridsyn_modules().items():
        for fn in public_functions(layer, mod).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def _build_key(args, kwargs, result):
    s = args[0] if args else kwargs["s"]
    order = args[1] if len(args) > 1 else kwargs.get("order")
    phases = args[2] if len(args) > 2 else kwargs.get("phases")
    return (
        s.n,
        s.bits,
        tuple(range(s.n)) if order is None else tuple(order),
        (False,) * s.n if phases is None else tuple(phases.phases),
    )


#: What each traced outcome records, for the ratio metrics.
OBSERVE = {
    "gridplot.build_grid_dag": _build_key,
    "cores.best_core": lambda a, k, r: r is not None and bool(r.cube_indices),
    "spectra.fullrank_set_if_symmetric": lambda a, k, r: r is not None,
    "planar.is_planar_function": lambda a, k, r: r is not None,
}

#: Functions that must record a call on each workload's traced pass.
HOME = {
    "synth": (
        "cli.main", "cli.run", "cubes.parse_pla_outputs", "decompose.decompose",
        "decompose.verify", "gridplot.build_grid_dag", "gridplot.minimize_layout",
        "tcells.map_netlist", "netlist.netlist_to_text", "netlist.netlist_from_text",
    ),
    "decompose-random": (
        "cubes.parse_pla_outputs", "cubes.cover_to_minterms", "cores.best_core",
        "cores.expand_core", "decompose.decompose", "decompose.verify",
        "tcells.map_netlist", "netlist.netlist_to_text", "netlist.netlist_from_text",
    ),
    "decompose-sym": (
        "cubes.parse_pla_outputs", "cubes.cover_to_minterms",
        "spectra.fullrank_set_if_symmetric", "decompose.factor_core",
        "decompose.decompose", "decompose.verify",
    ),
    "planar": (
        "planar.survey_planarity", "planar.is_planar_function", "gridplot.build_grid_dag",
    ),
}


class Tracer:
    """Wraps gridsyn's public functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.observed: dict[int, object] = {}
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- installation

    def install(self) -> None:
        mods = gridsyn_modules()
        originals = {}
        for layer, mod in mods.items():
            for name, fn in public_functions(layer, mod).items():
                originals[id(fn)] = (fn, name)
        self._wrappers = {key: self._wrap(fn, name) for key, (fn, name) in originals.items()}
        for mod in list(mods.values()) + [sys.modules[PACKAGE]]:
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None and originals[id(obj)][0] is obj:
                    setattr(mod, attr, wrapper)
                    self._bindings.append((mod, attr, obj))
        leaks = self._bound({key: fn for key, (fn, _) in originals.items()})
        if leaks:
            raise RuntimeError(f"unwrapped bindings remain: {leaks}")

    def restore(self) -> None:
        for mod, attr, fn in self._bindings:
            setattr(mod, attr, fn)
        self._bindings = []
        leaks = self._bound({id(w): w for w in self._wrappers.values()})
        if leaks:
            raise RuntimeError(f"wrappers left installed: {leaks}")

    @staticmethod
    def _bound(objs: dict[int, object]) -> list[str]:
        mods = list(gridsyn_modules().values()) + [sys.modules[PACKAGE]]
        return [
            f"{mod.__name__}.{attr}"
            for mod in mods
            for attr, obj in vars(mod).items()
            if objs.get(id(obj)) is obj
        ]

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        observe = OBSERVE.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.fid)
            self.fid.append(fid)
            self.parent.append(stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                stack.pop()
            if observe is not None:
                self.observed[idx] = observe(args, kwargs, result)
            return result

        return traced

    # -- reduction

    def summary(self) -> dict[str, dict]:
        """Per function: calls, inclusive seconds, self seconds."""
        n = len(self.fid)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.fid[i]]]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def _under(self, name: str) -> list[bool]:
        """Per span: whether some enclosing span is a call of ``name``."""
        target = self.names.index(name)
        under = [False] * len(self.fid)
        for i in range(len(self.fid)):
            p = self.parent[i]
            under[i] = p >= 0 and (self.fid[p] == target or under[p])
        return under

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the benchmark, from the recorded spans."""
        fs = self.summary()
        build = self.names.index("gridplot.build_grid_dag")

        def calls(name):
            return fs[name]["calls"]

        def share(num, den):
            return num / den if den else 0.0

        def observed(name):
            fid = self.names.index(name)
            return [self.observed[i] for i in range(len(self.fid)) if self.fid[i] == fid]

        in_search = self._under("gridplot.minimize_layout")
        in_decide = self._under("planar.is_planar_function")
        search_keys = [
            self.observed[i]
            for i in range(len(self.fid))
            if self.fid[i] == build and in_search[i]
        ]
        decide_builds = sum(
            1 for i in range(len(self.fid)) if self.fid[i] == build and in_decide[i]
        )
        return {
            "gridplot.build_calls": calls("gridplot.build_grid_dag"),
            "gridplot.build_s": fs["gridplot.build_grid_dag"]["s"],
            "gridplot.search_calls": calls("gridplot.minimize_layout"),
            "gridplot.search_self_s": fs["gridplot.minimize_layout"]["self_s"],
            "gridplot.builds_per_search": share(
                len(search_keys), calls("gridplot.minimize_layout")
            ),
            "gridplot.distinct_config_ratio": share(len(set(search_keys)), len(search_keys)),
            "cores.best_core_calls": calls("cores.best_core"),
            "cores.expand_calls": calls("cores.expand_core"),
            "cores.busy_s": fs["cores.best_core"]["s"],
            "cores.hit_ratio": share(sum(observed("cores.best_core")), calls("cores.best_core")),
            "spectra.sym_test_calls": calls("spectra.fullrank_set_if_symmetric"),
            "spectra.sym_test_s": fs["spectra.fullrank_set_if_symmetric"]["s"],
            "spectra.leaf_ratio": share(
                sum(observed("spectra.fullrank_set_if_symmetric")),
                calls("spectra.fullrank_set_if_symmetric"),
            ),
            "cubes.expand_calls": calls("cubes.cover_to_minterms"),
            "cubes.expand_s": fs["cubes.cover_to_minterms"]["s"],
            "cubes.parse_s": fs["cubes.parse_pla_outputs"]["s"],
            "decompose.factor_calls": calls("decompose.factor_core"),
            "decompose.factor_s": fs["decompose.factor_core"]["s"],
            "decompose.calls": calls("decompose.decompose"),
            "decompose.self_s": fs["decompose.decompose"]["self_s"],
            "decompose.verify_calls": calls("decompose.verify"),
            "decompose.verify_s": fs["decompose.verify"]["s"],
            "tcells.map_calls": calls("tcells.map_netlist"),
            "tcells.map_s": fs["tcells.map_netlist"]["s"],
            "netlist.write_s": fs["netlist.netlist_to_text"]["s"],
            "netlist.read_s": fs["netlist.netlist_from_text"]["s"],
            "cli.calls": calls("cli.main"),
            "cli.self_s": fs["cli.main"]["self_s"] + fs["cli.run"]["self_s"],
            "planar.survey_calls": calls("planar.survey_planarity"),
            "planar.survey_s": fs["planar.survey_planarity"]["s"],
            "planar.decide_calls": calls("planar.is_planar_function"),
            "planar.decide_self_s": fs["planar.is_planar_function"]["self_s"],
            "planar.builds_per_decision": share(
                decide_builds, calls("planar.is_planar_function")
            ),
            "planar.witness_ratio": share(
                sum(observed("planar.is_planar_function")), calls("planar.is_planar_function")
            ),
        }

    def missing_home_calls(self, workload: str) -> list[str]:
        fs = self.summary()
        return [name for name in HOME[workload] if fs.get(name, {"calls": 0})["calls"] == 0]
