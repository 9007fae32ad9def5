"""Threshold-cell algebra and technology mapping.

A threshold cell T_k of n inputs fires when at least k inputs are 1; as a
symmetric component it is SYM over the contiguous rank set {k..n}.  Any
maximal run [i..j] of full ranks is T_i AND NOT T_{j+1} (the upper factor
disappears when j = n, the lower one when i = 0), so a symmetric function
with m maximal rank intervals maps to a sum of m threshold-pair products.

A complete library up to a maximum arity holds one cell per (arity,
threshold) pair, n(n+1)/2 cells in total, plus an inverter.  Mapping keeps
everything in this one family: AND glue is the 2-input T_2 cell, OR glue
the 2-input T_1 cell.  Areas are counted in cell pitches; the default cost
model (arbitrary but fixed, see README) charges a k-of-n cell n pitches and
the inverter 1.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .netlist import (
    KIND_AND,
    KIND_CONST,
    KIND_INV,
    KIND_OR,
    KIND_SYM,
    Netlist,
    NetlistBuilder,
    Ref,
)
from .cubes import ParseError
from .spectra import FullRankSet


class MappingError(ValueError):
    """A netlist cannot be mapped onto the given cell library."""


class _ThresholdCellFields(NamedTuple):
    arity: int
    threshold: int


class ThresholdCell(_ThresholdCellFields):
    __slots__ = ()

    def __new__(cls, arity: int, threshold: int) -> ThresholdCell:
        if not 1 <= threshold <= arity:
            raise ValueError("threshold must lie in [1, arity]")
        return tuple.__new__(cls, (arity, threshold))

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> ThresholdCell:
        return cls(*iterable)

    @property
    def name(self) -> str:
        return f"t{self.threshold}of{self.arity}"


class _TCellLibraryFields(NamedTuple):
    max_arity: int
    pitch_costs: Mapping[tuple[int, int], float]
    inverter_cost: float = 1.0


class TCellLibrary(_TCellLibraryFields):
    __slots__ = ()

    def __new__(
        cls,
        max_arity: int,
        pitch_costs: Mapping[tuple[int, int], float],
        inverter_cost: float = 1.0,
    ) -> TCellLibrary:
        if max_arity < 1:
            raise ValueError("library needs max_arity >= 1")
        return tuple.__new__(cls, (max_arity, pitch_costs, inverter_cost))

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> TCellLibrary:
        return cls(*iterable)

    @property
    def cells(self) -> tuple[ThresholdCell, ...]:
        return tuple(
            ThresholdCell(n, k)
            for n in range(1, self.max_arity + 1)
            for k in range(1, n + 1)
        )

    def cost(self, arity: int, threshold: int) -> float:
        try:
            return self.pitch_costs[(arity, threshold)]
        except KeyError:
            raise MappingError(f"no pitch cost for cell t{threshold}of{arity}") from None


def library_inventory(max_arity: int) -> TCellLibrary:
    """Complete threshold-cell inventory up to an arity, plus an inverter.

    The cell count is max_arity*(max_arity+1)/2.  A k-of-n cell costs n
    pitches, the inverter 1; ``library_from_pitch_table`` sets other costs.
    """
    costs = {(n, k): float(n) for n in range(1, max_arity + 1) for k in range(1, n + 1)}
    return TCellLibrary(max_arity, costs)


def scell_count(n: int) -> int:
    """Size of a complete symmetric-cell library up to arity n.

    Counts the nonconstant symmetric functions of each arity 2..n up to
    complement (2**k - 1 per arity) plus one inverter.
    """
    if n < 2:
        raise ValueError("symmetric-cell libraries start at arity 2")
    return 1 + sum((1 << k) - 1 for k in range(2, n + 1))


# ---------------------------------------------------------------------------
# symmetric function -> threshold terms


def intervals(f: FullRankSet) -> list[tuple[int, int]]:
    """Maximal closed runs of consecutive full ranks, ascending."""
    out: list[tuple[int, int]] = []
    for r in sorted(f.ranks):
        if out and out[-1][1] == r - 1:
            out[-1] = (out[-1][0], r)
        else:
            out.append((r, r))
    return out


class SFImpl(NamedTuple):
    """Threshold-pair product form of one symmetric component.

    Each term (i, j) reads T_i AND NOT T_j; a missing j means the interval
    reaches rank n, a missing i (constant-1 lower factor) means it starts
    at rank 0.
    """

    arity: int
    terms: tuple[tuple[int | None, int | None], ...]


def map_sf(f: FullRankSet) -> SFImpl:
    """One threshold-pair term per maximal full-rank interval."""
    terms = []
    for lo, hi in intervals(f):
        lower = lo if lo > 0 else None
        upper = hi + 1 if hi < f.n else None
        terms.append((lower, upper))
    return SFImpl(f.n, tuple(terms))


# ---------------------------------------------------------------------------
# netlist mapping


def _is_threshold_ranks(ranks: frozenset[int], arity: int) -> int | None:
    """Threshold k when the rank set is exactly {k..arity}, else None."""
    k = min(ranks)
    return k if ranks == frozenset(range(k, arity + 1)) else None


_AND2 = frozenset({2})
_OR2 = frozenset({1, 2})


def _sf_plan(arity: int, ranks: frozenset[int]) -> tuple:
    """``map_sf``'s terms as the rank sets of their threshold cells, None for a missing factor."""
    return tuple(
        tuple(None if t is None else frozenset(range(t, arity + 1)) for t in term)
        for term in map_sf(FullRankSet(arity, ranks)).terms
    )


class CellUse(NamedTuple):
    name: str
    arity: int
    threshold: int | None  # None for the inverter
    count: int  # shadows tuple.count
    unit_cost: float

    @property
    def total_cost(self) -> float:
        return self.count * self.unit_cost


class MapResult(NamedTuple):
    netlist: Netlist
    cells: tuple[CellUse, ...]
    total_pitches: float


def map_netlist(nl: Netlist, lib: TCellLibrary) -> MapResult:
    """Rewrite a symmetric network into threshold cells and report its area.

    SYM nodes expand into their threshold-pair products; n-ary sums and
    disjoint products become chains of 2-input T_1 / T_2 glue cells.  A SYM
    node wider than the library arity is rejected rather than split.
    Shared nodes are counted once.
    """
    b = NetlistBuilder(nl.input_names)
    # operand ref -> mapped ref; a Ref equals and hashes as the tuple of its fields
    res: dict[tuple, Ref] = dict(zip(b._inputs, b._inputs))
    plans: dict[tuple, tuple] = {}  # (arity, rank set) -> _sf_plan, once per call

    def and2(x: Ref, y: Ref) -> Ref:
        return b.sym(_AND2, (x, y))

    def or2(x: Ref, y: Ref) -> Ref:
        return b.sym(_OR2, (x, y))

    def chain(refs: Sequence[Ref], gate) -> Ref:
        acc = refs[0]
        for ref in refs[1:]:
            acc = gate(acc, ref)
        return acc

    for i, node in enumerate(nl.nodes):
        ops = tuple(map(res.__getitem__, node.operands))
        if len(set(ops)) < len(ops):
            j = next(j for j, ref in enumerate(ops) if ref in ops[:j])
            first, second = node.operands[ops.index(ops[j])], node.operands[j]
            raise MappingError(
                f"node n{i}: operands {first.token} and {second.token} map to one signal"
            )
        if node.kind == KIND_CONST:
            ref = b.const(node.value)
        elif node.kind == KIND_INV:
            ref = b.inv(ops[0])
        elif node.kind == KIND_OR:
            ref = chain(ops, or2)
        elif node.kind == KIND_AND:
            ref = chain(ops, and2)
        elif node.kind == KIND_SYM:
            k = len(ops)
            if k > lib.max_arity:
                raise MappingError(
                    f"symmetric component of {k} inputs exceeds library arity {lib.max_arity}"
                )
            plan = plans.get((k, node.ranks))
            if plan is None:
                plan = plans[k, node.ranks] = _sf_plan(k, node.ranks)
            terms: list[Ref] = []
            for lower, upper in plan:
                factors = [b.sym(lower, ops)] if lower is not None else []
                if upper is not None:
                    factors.append(b.inv(b.sym(upper, ops)))
                terms.append(chain(factors, and2) if factors else b.const(1))
            ref = chain(terms, or2) if terms else b.const(0)
        else:  # pragma: no cover
            raise MappingError(f"unmappable node kind {node.kind!r}")
        res["node", i] = ref

    result = b.finish(res[nl.output])

    counts: dict[tuple[int, int] | None, int] = {}
    shapes = Counter((node.kind, len(node.operands), node.ranks) for node in result.nodes)
    for (kind, k, ranks), count in shapes.items():
        if kind == KIND_SYM:
            t = _is_threshold_ranks(ranks, k)
            if t is None:  # pragma: no cover - mapping only emits threshold shapes
                raise MappingError("mapped netlist contains a non-threshold component")
            counts[(k, t)] = counts.get((k, t), 0) + count
        elif kind == KIND_INV:
            counts[None] = count

    uses = []
    total = 0.0
    for key in sorted(counts, key=lambda k: (-1, 0) if k is None else k):
        if key is None:
            use = CellUse("inv", 1, None, counts[None], lib.inverter_cost)
        else:
            arity, threshold = key
            use = CellUse(
                ThresholdCell(arity, threshold).name,
                arity,
                threshold,
                counts[key],
                lib.cost(arity, threshold),
            )
        uses.append(use)
        total += use.total_cost
    return MapResult(result, tuple(uses), total)


# ---------------------------------------------------------------------------
# pitch table files
#
# Plain text, one cell per line: ``name arity threshold cost``.  The special
# name ``inv`` sets the inverter cost (its threshold field is ignored, use
# ``-``).  '#' starts a comment.


def library_from_pitch_table(text: str, max_arity: int | None = None) -> TCellLibrary:
    costs: dict[tuple[int, int], float] = {}
    inverter = 1.0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ParseError("expected 'name arity threshold cost'", lineno)
        name, arity_s, thr_s, cost_s = fields
        try:
            cost = float(cost_s)
        except ValueError:
            raise ParseError(f"bad cost {cost_s!r}", lineno) from None
        if cost <= 0:
            raise ParseError("cost must be positive", lineno)
        if name.lower() == "inv":
            inverter = cost
            continue
        try:
            arity, thr = int(arity_s), int(thr_s)
        except ValueError:
            raise ParseError("arity and threshold must be integers", lineno) from None
        if not 1 <= thr <= arity:
            raise ParseError("threshold must lie in [1, arity]", lineno)
        costs[(arity, thr)] = cost
    if not costs:
        raise ParseError("pitch table lists no threshold cells")
    top = max(a for a, _ in costs)
    return TCellLibrary(top if max_arity is None else max_arity, costs, inverter)
