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
exact layout search (``_exact_layout``) finds the best configuration by
dynamic programming over the 3**n states, never visiting the n! * 2**n
configurations.  Inverting every input of S maps a state to its mirror:
the same cofactors, each rank r at |S| - r, so the same class count, link
count and bridges, and the mirrors of its successors.  The exact search
therefore builds only the (3**n - 1) / 2 levels of the states whose lowest
read input is not inverted, once each, and reads each mirror's figures
from its twin.  The greedy search scores configurations through
``_LevelTable``, which memoises, per (S, p & S), the class count, and per
(S, p & S, next input) the link count.
It keeps the class sets of the levels used in the current and the previous
climb step, each compact: a cofactor at depth d is a table over the n - d
unread inputs only, and reading an input that is not at the top of the
table first exchanges it with the top inside the kernel.  A level is split
only from its nearest stored ancestor, normally its parent, and a link
count whose level below is known takes one pass over the classes above.  A
climb step scores a neighbour on the levels it changes: a swap of
positions i < j changes levels i + 1..j and the links out of levels i..j,
and a phase flip the levels below the flipped input.  L is computed only
for a neighbour whose N ties or beats the best of the step so far.  The
planarity decision (``planar.is_planar_function``) walks the same kernel
over states and, by the same mirror argument, never searches below the
root's phase-1 states when their phase-0 mirrors are not good; its
level-2 states come first from one truth-table pass over the input pairs,
which refutes a function with no bridge-free pair before any split.
``build_grid_dag`` calls the kernel once per level of the word mask
(``cubes.transform_mask`` puts the first input read in the most
significant position), reading its inputs from the top down without
phases, so every cofactor it splits is a suffix set.  Each search confirms
the configuration it returns with one grid DAG.
"""

from __future__ import annotations

import random
from itertools import accumulate, chain
from typing import Iterator, NamedTuple, Sequence

from .cubes import (
    MintermSet,
    PhaseVector,
    _delta_swap,
    assignment_masks,
    full_mask,
    transform_mask,
)


class PlotMetrics(NamedTuple):
    node_count: int
    link_count: int

    def __str__(self) -> str:
        return f"N={self.node_count} L={self.link_count}"


class GridDag(NamedTuple):
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


#: Largest arity that ``minimize_layout`` searches exactly: 0.4-0.55 s and
#: 30 MB on seeded 3n-cube covers of 9 inputs, 0.9-1.6 s and 93 MB at 10
#: (2-vCPU Xeon VM, Python 3.11).
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
    level: dict[int, int], low: int, shift: int, inv: int, swap: int = 0, delta: int = 0
) -> tuple[dict[int, int], int]:
    """The classes one level down, and the link count out of ``level``.

    ``level`` maps each cofactor to the bit mask of the ranks it occurs at.
    Reading the next input splits cofactor g into its 1 half
    ``(g >> shift) & low`` and its 0 half ``g & low``; the 1 half raises the
    rank unless the input is inverted (``inv`` 1), when the 0 half does.
    Empty halves make no class and no link.  A nonzero ``swap`` first
    exchanges, in every cofactor, the bits it selects with those ``delta``
    above them (``cubes._delta_swap``), which moves the input to read into
    the split position.
    """
    nxt: dict[int, int] = {}
    links = 0
    for g, ranks in level.items():
        if swap:
            g = _delta_swap(g, swap, delta)
        hi = (g >> shift) & low
        lo = g & low
        if hi:
            nxt[hi] = nxt.get(hi, 0) | ranks << (1 - inv)
            links += ranks.bit_count()
        if lo:
            nxt[lo] = nxt.get(lo, 0) | ranks << inv
            links += ranks.bit_count()
    return nxt, links


def _link_count(level: dict[int, int], one: int) -> int:
    """The link count out of ``level`` when the next input is the one whose
    assignments at 1 are ``one``: a class has a one-link iff its cofactor
    holds such an assignment, and a zero-link iff it holds another."""
    links = 0
    for g, ranks in level.items():
        h = g & one
        links += ranks.bit_count() * (bool(h) + (h != g))
    return links


def _exact_layout(s: MintermSet) -> tuple[int, int, tuple[int, ...], tuple[bool, ...]]:
    """The smallest (N, L, order, phases) over every configuration, by
    dynamic programming over the level states (S, q): the inputs S read so
    far and their phases q, one state per ``S | q << n``.

    N sums the class counts of levels 1..n and L the link counts out of
    levels 0..n-1, and both depend only on the states along a path from
    reading nothing to reading every input, so a backward pass gives each
    state its best (N, L) still to come (Friedman and Supowit's exact BDD
    ordering, IEEE Trans. Computers, 1990, with phases).

    A state and its mirror (S, q ^ S), every input of S inverted, have the
    same cofactors, each at rank |S| - r for its rank r, so the same class
    count, link counts and bridges; reading x at phase b from one is
    reading x at phase 1 - b from the other, so both have the same best
    (N, L) to come.  The root therefore splits only at phase 0, and every
    level built belongs to a state whose lowest read input is not inverted:
    (3**n - 1) / 2 levels, each built once, by ``_split_level`` from the
    parent that lacks its largest input.  Only two depths of levels are
    kept, and a link count out of a level does not depend on the next
    input's phase.  Class counts, link counts and best (N, L) are stored
    under both mirror keys, so the passes read every state.  A forward pass
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
    layers = [[0]]  # the built states of each depth
    levels = {0: {s.bits: 1}}

    def mirror(st: int) -> int:
        """The state with the phase of every input read inverted."""
        return st ^ (st & every) << n

    for _ in range(n):
        deeper: dict[int, dict[int, int]] = {}
        for st, level in levels.items():
            read = st & every
            out = links[st] = links[mirror(st)] = [0] * n
            for x in range(n):
                if read >> x & 1:
                    continue
                if x < read.bit_length():  # its two next states have another parent
                    out[x] = _link_count(level, ones[x])
                    continue
                for b in (0, 1) if read else (0,):  # the root's phase-1 child is a mirror
                    nxt, out[x] = _split_level(level, lows[x], 1 << x, b)
                    child = st | 1 << x | b << (x + n)
                    deeper[child] = nxt
                    count[child] = count[mirror(child)] = sum(
                        ranks.bit_count() for ranks in nxt.values()
                    )
        layers.append(list(deeper))
        levels = deeper

    best: dict[int, tuple[int, int]] = {}  # per state, the best (N, L) still to come

    def through(st: int, x: int, b: int) -> tuple[int, int]:
        """The best (N, L) from state ``st`` on, reading x at phase b next."""
        child = st | 1 << x | b << (x + n)
        return count[child] + best[child][0], links[st][x] + best[child][1]

    for layer in reversed(layers):
        for st in layer:
            best[st] = best[mirror(st)] = min(
                (through(st, x, b) for x in range(n) if not st >> x & 1 for b in (0, 1)),
                default=(0, 0),  # every input read
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

    A level is keyed by its state ``S | (p & S) << n``, with S the mask of the
    inputs read so far and p the phase mask.  ``counts`` maps a state to its
    class count and ``links`` maps a state plus the next input (``x << 2n``)
    to the level's outgoing link count; both are kept for the whole search.

    The class sets themselves live in a two-generation store, ``cur`` and
    ``prev``, keyed by state.  A stored level is compact: at depth d each
    cofactor is a table over the n - d unread inputs only, and the level
    carries its layout, the input at each table position.  Reading input x
    exchanges x with the top position (one ``cubes._delta_swap`` per class,
    inside ``_split_level``) unless it is there already, and then splits at
    the top, as ``build_grid_dag`` does.  ``start`` lays out the root in a
    climb's starting order, so that configuration reads every input at the
    top.  ``rotate`` starts a generation: ``prev`` becomes ``cur`` and
    ``cur`` starts empty, and a level found in ``prev`` moves into ``cur``,
    so levels not used for two generations are dropped.

    ``count_window`` sums class counts over some levels of a configuration
    and ``link_window`` their links, which the climb asks for only where N
    ties or beats the step's best.  A missing level is split from its
    parent's, or from an older ancestor's when the parent was evicted.
    """

    def __init__(self, s: MintermSet):
        n = s.n
        self.n = n
        self.bits = s.bits
        self.counts: dict[int, int] = {0: 1}
        self.links: dict[int, int] = {}
        self.cur: dict[int, tuple[dict[int, int], list[int]]] = {}
        self.prev: dict[int, tuple[dict[int, int], list[int]]] = {}
        # the assignments with position t at 1, which serve a table of any width
        # w as they are (it has no bits above 2**w), and per width those with t
        # at 1 and the top at 0, which an exchange of t with the top moves; width
        # n comes first, so that a width over the cap refuses before anything else
        self.ones = ones = assignment_masks(n)
        self.swaps = [[m & ~ones[w - 1] & full_mask(w) for m in ones[:w]] for w in range(n + 1)]
        self.start(tuple(range(n)))

    def start(self, order: Sequence[int]) -> None:
        """Begin a climb from ``order``: a new generation, and the root laid
        out with ``order[0]`` at the top."""
        self.rotate()
        layout = list(order[::-1])
        self.root = ({transform_mask(self.bits, self.n, layout): 1}, layout)

    def rotate(self) -> None:
        self.prev, self.cur = self.cur, {}

    def _level(
        self, keys: list[int], order: Sequence[int], pmask: int, d: int
    ) -> tuple[dict[int, int], list[int]]:
        """The depth-d level of the configuration whose states are ``keys``,
        split from its nearest stored ancestor (the parent, unless evicted);
        every level split on the way is recorded."""
        cur, prev = self.cur, self.prev
        k = d
        while k:
            found = cur.get(keys[k])
            if found is not None:
                break
            found = prev.pop(keys[k], None)
            if found is not None:
                cur[keys[k]] = found
                break
            k -= 1
        else:
            found = self.root
        level, layout = found
        for t in range(k, d):
            x = order[t]
            top = len(layout) - 1
            pos = layout.index(x)
            half = 1 << top
            # no exchange (a zero swap mask) when x is at the top already
            level, links = _split_level(
                level, (1 << half) - 1, half, pmask >> x & 1,
                self.swaps[top + 1][pos], half - (1 << pos),
            )
            below = layout[:top]
            if pos < top:
                below[pos] = layout[top]
            layout = below
            self.links[keys[t] | x << 2 * self.n] = links
            self.counts[keys[t + 1]] = sum(map(int.bit_count, level.values()))
            cur[keys[t + 1]] = (level, layout)
        return level, layout

    def count_window(
        self, order: Sequence[int], pmask: int, first: int, last: int, keys: list[int]
    ) -> int:
        """The class counts of levels first + 1..last of the configuration.
        ``keys`` holds its states at depths 0..first, and gets those at
        depths first + 1..last appended.  A missing count is split from the
        parent level, which also records the links between them."""
        n, counts = self.n, self.counts
        key = keys[first]
        c = 0
        for d in range(first, last):
            x = order[d]
            key |= 1 << x | (pmask >> x & 1) << (x + n)
            keys.append(key)
            cv = counts.get(key)
            if cv is None:
                self._level(keys, order, pmask, d + 1)
                cv = counts[key]
            c += cv
        return c

    def link_window(
        self, order: Sequence[int], pmask: int, first: int, last: int, keys: list[int]
    ) -> int:
        """The links out of levels first..last - 1 of the configuration whose
        states at depths 0..last are ``keys``.  A missing one takes one pass
        over the classes of the level above."""
        shift, links = 2 * self.n, self.links
        total = 0
        for d in range(first, last):
            x = order[d]
            lk = keys[d] | x << shift  # the same for either phase of x
            lv = links.get(lk)
            if lv is None:
                level, layout = self._level(keys, order, pmask, d)
                lv = links[lk] = _link_count(level, self.ones[layout.index(x)])
            total += lv
        return total

    def profile(
        self, order: Sequence[int], pmask: int
    ) -> tuple[list[int], list[int], list[int]]:
        """The configuration's state and class count at each depth 0..n, and
        the link count out of each depth 0..n - 1; the class counts are those
        of ``build_grid_dag(...).classes``."""
        keys = [0]
        self.count_window(order, pmask, 0, self.n, keys)
        self.link_window(order, pmask, 0, self.n, keys)
        shift = 2 * self.n
        return (
            keys,
            [self.counts[k] for k in keys],
            [self.links[k | x << shift] for k, x in zip(keys, order)],
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
    n seeded random restarts.  A greedy step compares neighbours on that
    same key, but computes a neighbour's L only when its N ties or beats the
    best N of the step so far.
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
        # A neighbour differs from the configuration only on some levels: a
        # swap of positions i < j on levels i + 1..j and the links out of
        # levels i..j, a flip of the input at position p on the levels below
        # p.  Each is scored from the configuration's prefix sums and the
        # table's windows from ``first`` = i or p to ``last`` = j + 1 or n
        # (for a swap the window also holds level j + 1 and for a flip the
        # links out of level p, which the move leaves alone).  L is counted
        # only when N is no worse than the best of the step so far, the
        # configuration's own included, since a larger N is never taken.
        table.start(order)
        pmask = PhaseVector(ph).mask
        while True:
            keys, cnt, lnk = table.profile(order, pmask)
            cpre = list(accumulate(cnt, initial=0))
            lpre = list(accumulate(lnk, initial=0))
            cur_m = (cpre[-1] - 1, lpre[-1])
            best_n, best_neighbor = cur_m[0], None
            swaps = (
                (order[:i] + (order[j],) + order[i + 1 : j] + (order[i],) + order[j + 1 :],
                 ph, pmask, i, j + 1)
                for i in range(n) for j in range(i + 1, n)
            )
            flips = (
                (order, ph[:x] + (not ph[x],) + ph[x + 1 :], pmask ^ 1 << x, order.index(x), n)
                for x in range(n)
            )
            for cand, cand_ph, cand_mask, first, last in chain(swaps, flips):
                ks = keys[: first + 1]
                c = table.count_window(cand, cand_mask, first, last, ks)
                nn = cur_m[0] - cpre[last + 1] + cpre[first + 1] + c
                if nn > best_n:
                    continue
                l = table.link_window(cand, cand_mask, first, last, ks)
                k = (nn, cur_m[1] - lpre[last] + lpre[first] + l, cand, cand_ph)
                if best_neighbor is None or k < best_neighbor:
                    best_n, best_neighbor = nn, k
            if best_neighbor is None or best_neighbor[:2] >= cur_m:
                return (*cur_m, order, ph)
            order, ph = best_neighbor[2], best_neighbor[3]
            pmask = PhaseVector(ph).mask
            table.rotate()

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
