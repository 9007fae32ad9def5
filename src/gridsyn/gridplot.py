"""Grid plots: minterms as lattice paths, shared through a minimal DAG.

Every minterm of an n-input function is drawn as an n-step path in an
orthogonal grid: in input order, a 1 steps right (raising the rank) and a 0
steps down.  All paths start at the origin and end on the n-th diagonal, at
the point determined by their rank.  Sharing common prefixes and suffixes
turns the path bundle into a DAG whose size measures how well the chosen
input order and polarity expose structure:

- node identity is (grid point, suffix set): two prefixes occupy the same
  node iff they have equal depth, equal rank, and accept exactly the same
  completions.  Prefixes with equal suffix sets at different ranks remain
  distinct nodes, since they sit at different grid points.
- a grid point hosting two or more nodes needs a bridge when drawn in the
  plane; a plot whose points all host a single node is planar.

The node count N (origin excluded) is the primary layout-optimization
objective; the link count L breaks ties.

Internally a node's suffix set is a bit mask over the ``2**k`` possible
completions (k characters left to read), with the next character to read in
the most significant position, so splitting on the next character is a
single shift or mask of a big integer.  Those classes are the whole plot: N,
L, planarity, bridges and the drawings come from them.  A class at grid
point (r, d) links to (r + 1, d + 1) when some completion starts with a 1
and to (r, d + 1) when some starts with a 0, so no node needs an identity
of its own.

One level kernel, ``_split_level``, computes the classes.  Level d of a
configuration depends only on the set S of the first d inputs read and
their phases p: its classes are the distinct (rank of the phased prefix,
cofactor of the function on that prefix), a cofactor being a full-width
truth-table mask with the inputs of S fixed to 0, so splitting it on input
x is two masks and a shift.  The kernel splits one level into the next.
N and L are sums over the states (S, p & S) along a configuration, so the
exact layout search (``_exact_layout``) builds each of the 3**n states'
levels once and finds the best configuration by dynamic programming over
them, never visiting the n! * 2**n configurations.  The greedy search
scores configurations through ``_LevelTable``, which memoises, per
(S, p & S), the class count, and per (S, p & S, next input) the link count,
and keeps class sets only along the last walked configuration, so a
configuration costs a few dictionary lookups once its levels have been
seen.  The planarity decision (``planar.is_planar_function``) walks the
same kernel over states.  ``build_grid_dag`` calls the kernel once per
level of the word mask (``cubes.transform_mask`` puts the first input read
in the most significant position), reading its inputs from the top down
without phases, so every cofactor it splits is a suffix set.  Each search
confirms the configuration it returns with one grid DAG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .cubes import (
    CapacityError,
    DEFAULT_EXPANSION_CAP,
    MintermSet,
    PhaseVector,
    assignment_masks,
    full_mask,
    transform_mask,
)


class PlotMetrics(NamedTuple):
    node_count: int
    link_count: int

    def __str__(self) -> str:
        return f"N={self.node_count} L={self.link_count}"


@dataclass(frozen=True)
class GridDag:
    """Minimal stratified acceptor of a fixed-length word set on the grid.

    ``classes[d]`` lists the (rank, suffix mask) classes of depth ``d`` in
    ascending order, one per node, and ``link_count`` counts their links.
    """

    n: int
    order: tuple[int, ...]
    phases: PhaseVector
    classes: tuple[tuple[tuple[int, int], ...], ...]
    link_count: int


def build_grid_dag(
    s: MintermSet,
    order: Sequence[int] | None = None,
    phases: PhaseVector | None = None,
) -> GridDag:
    """Build the minimal grid DAG of a minterm set under an order and phasing.

    The DAG accepts exactly the reordered, rephased minterm words; prefixes
    merge iff they share depth, rank, and suffix set.
    """
    n = s.n
    if n > DEFAULT_EXPANSION_CAP:
        raise CapacityError(f"grid construction capped at {DEFAULT_EXPANSION_CAP} inputs")
    order = tuple(order) if order is not None else tuple(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order is not a permutation of the inputs")
    if phases is None:
        phases = PhaseVector.none(n)
    if phases.n != n:
        raise ValueError("phase vector length mismatch")
    # the first consumed input becomes the most significant word bit, so
    # reading the word table from its top input down splits every class
    # into the suffix sets of its two completions
    level = {transform_mask(s.bits, n, order[::-1], phases.mask): 1}
    classes = [((0, *level),)]
    links = 0
    for d in range(n):
        half = 1 << (n - 1 - d)  # completions left after this input
        level, out = _split_level(level, (1 << half) - 1, half, 0)
        links += out
        pairs = ((r, g) for g, ranks in level.items() for r in range(d + 2) if ranks >> r & 1)
        classes.append(tuple(sorted(pairs)))
    return GridDag(n, order, phases, tuple(classes), links)


def metrics(g: GridDag) -> PlotMetrics:
    """Node count (origin excluded) and link count."""
    return PlotMetrics(sum(map(len, g.classes)) - 1, g.link_count)


def bridge_points(g: GridDag) -> dict[tuple[int, int], int]:
    """Grid points hosting more than one node, with their multiplicities."""
    counts: dict[tuple[int, int], int] = {}
    for depth, keys in enumerate(g.classes):
        for rank, _ in keys:
            counts[(rank, depth)] = counts.get((rank, depth), 0) + 1
    return {pt: k for pt, k in sorted(counts.items()) if k > 1}


def is_planar_plot(g: GridDag) -> bool:
    """True iff every grid point hosts at most one node."""
    return not bridge_points(g)


#: Largest arity that ``minimize_layout`` searches exactly: about a second on
#: a 3n-cube cover of 9 inputs, five at 10.
EXHAUSTIVE_LAYOUT_CAP = 9


class LayoutResult(NamedTuple):
    order: tuple[int, ...]
    phases: PhaseVector
    metrics: PlotMetrics


def _cofactor_lows(n: int) -> list[int]:
    """Per input x, the assignments with x at 0: the ``low`` mask that splits
    a full-width cofactor on x, with shift ``1 << x``."""
    full = full_mask(n)
    return [full & ~m for m in assignment_masks(n)]


def _split_level(
    level: dict[int, int], low: int, shift: int, inv: int
) -> tuple[dict[int, int], int]:
    """The classes one level down, and the link count out of ``level``.

    ``level`` maps each cofactor to the bit mask of the ranks it occurs at.
    Reading the next input splits cofactor g into its 1 half
    ``(g >> shift) & low`` and its 0 half ``g & low``; the 1 half raises the
    rank unless the input is inverted (``inv`` 1), when the 0 half does.
    Empty halves make no class and no link.
    """
    nxt: dict[int, int] = {}
    links = 0
    for g, ranks in level.items():
        hi = (g >> shift) & low
        lo = g & low
        if hi:
            nxt[hi] = nxt.get(hi, 0) | ranks << (1 - inv)
            links += ranks.bit_count()
        if lo:
            nxt[lo] = nxt.get(lo, 0) | ranks << inv
            links += ranks.bit_count()
    return nxt, links


def _exact_layout(s: MintermSet) -> tuple[int, int, tuple[int, ...], tuple[bool, ...]]:
    """The smallest (N, L, order, phases) over every configuration, by
    dynamic programming over the level states (S, q): the inputs S read so
    far and their phases q, one state per ``S | q << n``.

    N sums the class counts of levels 1..n and L the link counts out of
    levels 0..n-1, and both depend only on the states along a path from
    reading nothing to reading every input, so a backward pass gives each
    state its best (N, L) still to come (Friedman and Supowit's exact BDD
    ordering, IEEE Trans. Computers, 1990, with phases).  Each state's level
    is built once, by ``_split_level`` from the parent that lacks its
    largest input, and only two depths of levels are kept; a link count out
    of a level does not depend on the next input's phase.  A forward pass
    then fixes the order input by input, as the smallest input that some
    optimal state reached so far reads next on an optimal path, and the
    phases as the smallest tuple (by input index) among the optimal states
    reached with every input read.
    """
    n = s.n
    every = (1 << n) - 1
    lows = _cofactor_lows(n)
    ones = assignment_masks(n)
    count: dict[int, int] = {}  # class count of each state's level below the root
    links: dict[int, list[int]] = {}  # per state, the links out of its level per next input
    layers = [[0]]  # the states of each depth
    levels = {0: {s.bits: 1}}
    for _ in range(n):
        deeper: dict[int, dict[int, int]] = {}
        for st, level in levels.items():
            read = st & every
            out = links[st] = [0] * n
            for x in range(n):
                if read >> x & 1:
                    continue
                if x < read.bit_length():  # its two next states have another parent
                    # a class has a one-link iff its cofactor holds an
                    # assignment with x at 1, and a zero-link iff one with x at 0
                    one, zero = ones[x], lows[x]
                    out[x] = sum(
                        ranks.bit_count() * (bool(g & one) + bool(g & zero))
                        for g, ranks in level.items()
                    )
                    continue
                for b in (0, 1):
                    nxt, out[x] = _split_level(level, lows[x], 1 << x, b)
                    child = st | 1 << x | b << (x + n)
                    deeper[child] = nxt
                    count[child] = sum(ranks.bit_count() for ranks in nxt.values())
        layers.append(list(deeper))
        levels = deeper

    best = dict.fromkeys(layers[-1], (0, 0))

    def through(st: int, x: int, b: int) -> tuple[int, int]:
        """The best (N, L) from state ``st`` on, reading x at phase b next."""
        child = st | 1 << x | b << (x + n)
        return count[child] + best[child][0], links[st][x] + best[child][1]

    for layer in reversed(layers[:-1]):
        for st in layer:
            best[st] = min(
                through(st, x, b) for x in range(n) if not st >> x & 1 for b in (0, 1)
            )

    read, live, order = 0, [0], []
    while read != every:
        for x in range(n):
            if not read >> x & 1:
                nxt_live = [
                    q | b << x
                    for q in live
                    for b in (0, 1)
                    if through(read | q << n, x, b) == best[read | q << n]
                ]
                if nxt_live:
                    break
        order.append(x)
        read |= 1 << x
        live = nxt_live
    pmask = min(live, key=lambda q: [q >> i & 1 for i in range(n)])
    return (*best[0], tuple(order), tuple(bool(pmask >> i & 1) for i in range(n)))


class _LevelTable:
    """Level statistics of one function's grid plots, memoised across configurations.

    A level is keyed by ``S | (p & S) << n``, with S the mask of the inputs
    read so far and p the phase mask.  ``counts`` maps a level key to its
    class count and ``links`` maps a level key plus the next input to the
    level's outgoing link count.  ``path[d]`` holds the key and the classes
    of the depth-d level walked last, as ``_split_level`` takes them.
    """

    def __init__(self, s: MintermSet):
        n = s.n
        if n > DEFAULT_EXPANSION_CAP:
            raise CapacityError(f"grid construction capped at {DEFAULT_EXPANSION_CAP} inputs")
        self.n = n
        self.low = _cofactor_lows(n)
        self.counts: dict[int, int] = {0: 1}
        self.links: dict[int, int] = {}
        self.path: list[tuple[int, dict[int, int]]] = [(0, {s.bits: 1})] + [(-1, {})] * n

    def _keys(self, order: Sequence[int], pmask: int) -> list[int]:
        keys = [0]
        read = 0
        for x in order:
            read |= 1 << x
            keys.append(read | (pmask & read) << self.n)
        return keys

    def _split(self, d: int, keys: list[int], order: Sequence[int], pmask: int) -> None:
        """Record level d + 1 and the links into it, walking from the deepest
        stored level of this configuration at or above depth d."""
        path = self.path
        k = d
        while path[k][0] != keys[k]:
            k -= 1
        for t in range(k, d + 1):
            x = order[t]
            nxt, links = _split_level(path[t][1], self.low[x], 1 << x, pmask >> x & 1)
            self.links[keys[t] | x << 2 * self.n] = links
            self.counts[keys[t + 1]] = sum(ranks.bit_count() for ranks in nxt.values())
            path[t + 1] = (keys[t + 1], nxt)

    def metrics(self, order: Sequence[int], pmask: int) -> tuple[int, int]:
        """(N, L) of the configuration, as ``metrics(build_grid_dag(...))``."""
        keys = self._keys(order, pmask)
        shift = 2 * self.n
        link_keys = [keys[d] | x << shift for d, x in enumerate(order)]
        counts, links = self.counts, self.links
        for d, lk in enumerate(link_keys):
            if lk not in links or keys[d + 1] not in counts:
                self._split(d, keys, order, pmask)
        return (
            sum(counts[k] for k in keys) - 1,
            sum(links[lk] for lk in link_keys),
        )


def _confirmed(s: MintermSet, best: tuple) -> LayoutResult:
    """The search result for a (N, L, order, phases) key, checked against its grid DAG."""
    result = LayoutResult(best[2], PhaseVector(best[3]), PlotMetrics(best[0], best[1]))
    if metrics(build_grid_dag(s, result.order, result.phases)) != result.metrics:
        raise RuntimeError(f"layout search disagrees with the grid DAG at {result}")
    return result


def minimize_layout(
    s: MintermSet,
    mode: str = "exhaustive",
    seed: int = 0,
) -> LayoutResult:
    """Search input orders and phases minimizing the node count N.

    Ties break on smaller L, then on the lexicographically smallest
    (order, phases) pair.  ``exhaustive`` returns that minimum over all
    n! * 2**n configurations, found by dynamic programming over the 3**n
    level states (n <= ``EXHAUSTIVE_LAYOUT_CAP``); ``greedy`` hill-climbs
    with pairwise order swaps and single phase flips from the identity plus
    n seeded random restarts.
    """
    n = s.n
    if mode == "exhaustive":
        if n > EXHAUSTIVE_LAYOUT_CAP:
            raise ValueError(f"exhaustive layout search requires n <= {EXHAUSTIVE_LAYOUT_CAP}")
        return _confirmed(s, _exact_layout(s))
    if mode != "greedy":
        raise ValueError(f"unknown search mode {mode!r}")

    rng = random.Random(seed)
    table = _LevelTable(s)

    def climb(order: tuple[int, ...], ph: tuple[bool, ...]):
        pmask = PhaseVector(ph).mask
        cur_m = table.metrics(order, pmask)
        while True:
            best_neighbor = None
            for i in range(n):
                for j in range(i + 1, n):
                    cand = list(order)
                    cand[i], cand[j] = cand[j], cand[i]
                    cand_t = tuple(cand)
                    k = (*table.metrics(cand_t, pmask), cand_t, ph)
                    if best_neighbor is None or k < best_neighbor:
                        best_neighbor = k
            for i in range(n):
                cand_ph = tuple(p ^ (idx == i) for idx, p in enumerate(ph))
                k = (*table.metrics(order, pmask ^ 1 << i), order, cand_ph)
                if best_neighbor is None or k < best_neighbor:
                    best_neighbor = k
            if best_neighbor is None or best_neighbor[:2] >= cur_m:
                return (*cur_m, order, ph)
            cur_m = best_neighbor[:2]
            order, ph = best_neighbor[2], best_neighbor[3]
            pmask = PhaseVector(ph).mask

    starts = [(tuple(range(n)), (False,) * n)]
    for _ in range(n):
        order = list(range(n))
        rng.shuffle(order)
        ph = tuple(bool(rng.getrandbits(1)) for _ in range(n))
        starts.append((tuple(order), ph))
    best = min(climb(order, ph) for order, ph in starts)
    return _confirmed(s, best)


# ---------------------------------------------------------------------------
# rendering


def render(g: GridDag, style: str = "ascii") -> str:
    if style == "ascii":
        return render_ascii(g)
    if style == "svg":
        return render_svg(g)
    raise ValueError(f"unknown render style {style!r}")


def _class_links(g: GridDag) -> Iterator[tuple[int, int, bool, bool]]:
    """(rank, depth, has a one-link, has a zero-link) of every class, in level order."""
    for depth, keys in enumerate(g.classes):
        # half == 0 on the accepting level, which has no links
        half = 1 << (g.n - depth - 1) if depth < g.n else 0
        for rank, mask in keys:
            yield rank, depth, bool(half and mask >> half), bool(mask & ((1 << half) - 1))


def render_ascii(g: GridDag) -> str:
    """Deterministic character drawing: 'o' nodes, '*' accepting, '=' bridges."""
    bridges = bridge_points(g)
    nodes = list(_class_links(g))

    # column = rank (right steps), row = depth - rank (down steps)
    max_col = max((r for r, _, _, _ in nodes), default=0)
    max_row = max((d - r for r, d, _, _ in nodes), default=0)
    width = max_col * 4 + 4
    height = max_row * 2 + 1
    canvas = [[" "] * width for _ in range(height)]

    for r, d, one, zero in nodes:
        x, y = r * 4, (d - r) * 2
        if one:
            canvas[y][x + 1 : x + 4] = "---"
        if zero:
            canvas[y + 1][x] = "|"
    for r, d, _, _ in nodes:
        x, y = r * 4, (d - r) * 2
        if (r, d) in bridges:
            canvas[y][x] = "="
        elif d == g.n:
            canvas[y][x] = "*"
            for k, ch in enumerate(str(r)):
                canvas[y][x + 1 + k] = ch
        else:
            canvas[y][x] = "o"

    m = metrics(g)
    lines = ["".join(row).rstrip() for row in canvas]
    lines.append("")
    lines.append(str(m))
    acc_ranks = sorted(r for r, _ in g.classes[g.n])
    lines.append("accepting ranks: " + (",".join(map(str, acc_ranks)) if acc_ranks else "none"))
    if bridges:
        lines.append(
            "bridges: " + " ".join(f"(r={r},d={d})x{k}" for (r, d), k in bridges.items())
        )
    else:
        lines.append("bridges: none")
    return "\n".join(lines) + "\n"


def render_svg(g: GridDag) -> str:
    """Self-contained SVG rendering of the plot."""
    step = 60
    pad = 30
    bridges = bridge_points(g)
    nodes = list(_class_links(g))

    def xy(r: int, d: int) -> tuple[int, int]:
        return (pad + r * step, pad + (d - r) * step)

    max_col = max((r for r, _, _, _ in nodes), default=0)
    max_row = max((d - r for r, d, _, _ in nodes), default=0)
    w = pad * 2 + max_col * step + step
    h = pad * 2 + max_row * step + step
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" font-family="monospace" font-size="12">'
    ]
    for r, d, one, zero in nodes:
        x, y = xy(r, d)
        for used, target in ((one, r + 1), (zero, r)):
            if not used:
                continue
            tx, ty = xy(target, d + 1)
            parts.append(
                f'<line x1="{x}" y1="{y}" x2="{tx}" y2="{ty}" stroke="black" stroke-width="1.5"/>'
            )
    for r, d, _, _ in nodes:
        x, y = xy(r, d)
        fill = "red" if (r, d) in bridges else ("black" if d == g.n else "white")
        parts.append(
            f'<circle cx="{x}" cy="{y}" r="6" fill="{fill}" stroke="black" stroke-width="1.5"/>'
        )
        if d == g.n:
            parts.append(f'<text x="{x + 10}" y="{y + 4}">{r}</text>')
    m = metrics(g)
    parts.append(f'<text x="{pad}" y="{h - 8}">{m}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
