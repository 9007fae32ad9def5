"""Planar functions: grid plots that need no bridges.

A function is planar when some input order and phase assignment gives it a
grid plot with at most one node per grid point.  Every totally symmetric
function is planar (its plot depends only on grid points), and deleting
links from the full symmetric grid template always yields a planar
function, so the template acts as a programmable cell: the full template of
arity n carries exactly n(n+1) links.

The decision sweeps no configurations.  Level d of a plot depends only on
the set of inputs read so far and their phases, so a planar configuration
is a path from reading nothing to reading everything through states whose
levels have no bridge: a reachability question over subsets of inputs with
phases, in the manner of Friedman and Supowit's exact BDD ordering (IEEE
Trans. Computers, 1990).  Each state's level comes from its parent's with
one call of the grid level kernel, ``gridplot._split_level``.  Inverting
every input read maps a state to its mirror, each rank r to |S| - r, which
moves no bridge, so a state and its mirror are both good or both bad; at
the root the two phases of the first input read are mirrors, and phase 1
is tried only when phase 0 is good.  Level 2 has a bridge iff the rank-1
cofactors of its two inputs are nonempty and differ, so one truth-table
pass over the input pairs refutes a function with no bridge-free pair
before any split and prunes the search's second level.

The survey classifies every function of a small arity as bitmap algebra
over one integer, the bitmap of all 2**(2**n) n-input functions, which is
itself a truth table over the 2**n table positions of a function.  Pass 1
builds the functions with no bridge in one fixed configuration, the most
significant input read first and none inverted: those are exactly the
link-deletion images of the template, and each depth's bridge constraint is
a few big-integer operations on the positions' variables.  Planarity is
invariant under input permutation and input complementation, which merely
relabel the configuration space and permute the table positions, so pass 2
closes the bitmap under both (the NP classes; Harrison, 1963) with ``transform_mask`` over
those positions, moving every function at once.  At n = 4 the 4,288
bridge-free functions fall into 287 of the 402 orbits, which hold 42,244
functions.  The survey decides only the non-planar witnesses it reports.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .cubes import MintermSet, PhaseVector, assignment_masks, full_mask, transform_mask
from .gridplot import (
    _class_links,
    _cofactor_lows,
    _split_level,
    build_grid_dag,
    is_planar_plot,
)

_EXHAUSTIVE_WITNESS_CAP = 15
_SURVEY_CAP = 4
_MAX_WITNESSES = 10


class TemplateGrid(NamedTuple):
    """The programmable link set of the full grid of arity n.

    Links are identified by their source grid point (rank, depth) and
    direction: 'one' raises the rank, 'zero' keeps it.
    """

    n: int
    links: frozenset[tuple[int, int, str]]


def full_template(n: int) -> TemplateGrid:
    if n < 0:
        raise ValueError("n must be non-negative")
    links = set()
    for d in range(n):
        for r in range(d + 1):
            links.add((r, d, "one"))
            links.add((r, d, "zero"))
    return TemplateGrid(n, frozenset(links))


def links_of(dag) -> frozenset[tuple[int, int, str]]:
    """Template links actually used by a grid DAG."""
    return frozenset(
        (rank, depth, kind)
        for rank, depth, one, zero in _class_links(dag)
        for kind, used in (("one", one), ("zero", zero))
        if used
    )


def derive_pf(t: TemplateGrid, deleted: Iterable[tuple[int, int, str]]) -> MintermSet:
    """Minterms of all origin-to-diagonal paths avoiding the deleted links.

    The result is planar by construction: prefixes of equal rank and depth
    share their completion set, so each grid point hosts one node.
    """
    deleted = frozenset(deleted)
    if not deleted.issubset(t.links):
        raise ValueError("deleted links must belong to the template")
    alive = t.links - deleted
    # reach[r]: assignments whose first d inputs take alive links to rank r;
    # an assignment has one rank, so the last level's masks are disjoint
    reach = [full_mask(t.n)]
    for d, m in enumerate(assignment_masks(t.n)):
        nxt = [0] * (d + 2)
        for r, acc in enumerate(reach):
            if (r, d, "one") in alive:
                nxt[r + 1] |= acc & m
            if (r, d, "zero") in alive:
                nxt[r] |= acc & ~m
        reach = nxt
    return MintermSet(t.n, sum(reach))


# ---------------------------------------------------------------------------
# planarity decision


def _planar_level(level: dict[int, int]) -> bool:
    """True iff no two cofactors of a level share a rank (a grid point)."""
    seen = 0
    for ranks in level.values():
        if seen & ranks:
            return False
        seen |= ranks
    return True


def _level_key(read: int, level: dict[int, int]) -> tuple[int, frozenset[tuple[int, int]]]:
    """All that the completions of a state depend on: the inputs read and the
    level, its ranks shifted to start at 0 (a uniform shift moves no bridge)."""
    seen = 0
    for ranks in level.values():
        seen |= ranks
    low = max(0, (seen & -seen).bit_length() - 1)
    return read, frozenset((g, ranks >> low) for g, ranks in level.items())


def _bridge_free_pairs(s: MintermSet) -> list[list[int]]:
    """Bit r of ``pairs[x][y]``: reading x and y first at relative phase r
    leaves level 2 without a bridge, as only its two rank-1 prefixes share
    a grid point and their cofactors agree or one is empty (at r = 0 the
    two-variable symmetry test)."""
    n, f = s.n, s.bits
    masks = assignment_masks(n)
    pairs = [[0] * n for _ in range(n)]
    for y, my in enumerate(masks):
        for x, mx in enumerate(masks[:y]):
            # the two rank-1 cofactors, aligned: a, c at r = 0, d, e at r = 1
            a, c = f & mx & ~my, (f & my & ~mx) >> ((1 << y) - (1 << x))
            d, e = (f & mx & my) >> ((1 << x) + (1 << y)), f & ~(mx | my)
            pairs[x][y] = pairs[y][x] = (a == c or not a or not c) | (
                d == e or not d or not e
            ) << 1
    return pairs


def is_planar_function(s: MintermSet) -> tuple[tuple[int, ...], PhaseVector] | None:
    """Witness (order, phases) making the plot planar, or None.

    The witness is the first planar configuration in a fixed order (orders
    lexicographic, then phase tuples lexicographic), found without sweeping
    configurations.  Level d of a plot depends only on the state (S, q): the
    set S of the inputs read so far and their phases q.  A state is good when
    its level has no bridge and some successor, reading one more input in
    either phase, is good (or S holds every input), so a witness is a path
    of good states.  Whether a state is good depends only on S and its level
    up to a uniform rank shift, which is the memo key.  The mirror of a
    state, (S, q ^ S) with every input of S inverted, has the same
    cofactors, each at rank |S| - r for its rank r, so the same bridges, and
    its successors are the mirrors of the state's, so it is good iff the
    state is.  Reading x first at phase 1 is the mirror of reading it at
    phase 0, so phase 1 is tried only when phase 0 is good, and a
    non-planar function searches only the phase-0 half of the root's
    successors.  ``_bridge_free_pairs`` decides every level-2 state up
    front: with no bridge-free pair (and n >= 3) the function is refuted
    before any split, and a level-1 state tries only bridge-free pairs.
    The order is fixed input by input, as the
    smallest input with a good successor from some state reached so far;
    the phases are then the smallest tuple among the states reached with
    every input read.
    """
    n = s.n
    if n > _EXHAUSTIVE_WITNESS_CAP:
        raise ValueError(f"planarity decision capped at {_EXHAUSTIVE_WITNESS_CAP} inputs")
    pairs = _bridge_free_pairs(s)
    if n >= 3 and not any(map(any, pairs)):  # n < 3: no pair, or level 2 is the last
        return None
    every = (1 << n) - 1
    lows = _cofactor_lows(n)
    good: dict[tuple[int, frozenset[tuple[int, int]]], bool] = {}

    def step(read: int, level: dict[int, int], x: int, b: int) -> dict[int, int] | None:
        """The level after reading x at phase b, or None if that state is not good."""
        read |= 1 << x
        nxt, _ = _split_level(level, lows[x], 1 << x, b)
        if not _planar_level(nxt):
            return None
        if read == every:
            return nxt
        key = _level_key(read, nxt)
        if key not in good:
            good[key] = any(
                step(read, nxt, y, c) is not None
                for y in range(n)
                if not read >> y & 1
                for c in (0, 1)
                if read != 1 << x or pairs[x][y] >> (b ^ c) & 1
            )
        return nxt if good[key] else None

    def phase_tuple(q: int) -> list[int]:
        return [q >> i & 1 for i in range(n)]

    # The good states reached along the order so far, one per distinct level
    # with its smallest phases: states with equal levels have the same
    # completions, and the smaller phases win every tie among them.
    read, live = 0, [(0, {s.bits: 1})]
    order = []
    while read != every:
        for x in range(n):
            if read >> x & 1:
                continue
            reached: dict[tuple, tuple[int, dict[int, int]]] = {}
            for q, level in live:
                for b in (0, 1):
                    nxt = step(read, level, x, b)
                    if nxt is None:
                        if not read:  # the root's phase-1 state is the mirror of this one
                            break
                        continue
                    q_next = q | b << x
                    key = _level_key(read, nxt)
                    if key not in reached or phase_tuple(q_next) < phase_tuple(reached[key][0]):
                        reached[key] = (q_next, nxt)
            if reached:
                break
        else:
            # only at the root: a live state is good, so it has a good successor
            return None
        order.append(x)
        read |= 1 << x
        live = list(reached.values())
    pmask = min((q for q, _ in live), key=phase_tuple)
    phases = PhaseVector(tuple(bool(pmask >> i & 1) for i in range(n)))
    if not is_planar_plot(build_grid_dag(s, order, phases)):
        raise RuntimeError(f"reachability disagrees with the grid DAG at {order}, {phases}")
    return (tuple(order), phases)


# ---------------------------------------------------------------------------
# exhaustive survey


class PlanarSurvey(NamedTuple):
    n: int
    total: int
    planar: int
    nonplanar_witnesses: tuple[int, ...]

    @property
    def all_planar(self) -> bool:
        return self.planar == self.total


def _bridge_free(n: int) -> int:
    """Bitmap of the n-input functions whose plot has no bridge when the
    inputs are read from the most significant down, none inverted: bit f is
    set iff truth table f qualifies.

    The bitmap is a truth table over the 2**n table positions of a
    function, so ``assignment_masks(2**n)[p]`` is the set of functions whose
    bit p is 1.  At depth d the cofactor of the prefix a (the top d inputs)
    is the table's chunk of positions ``a * 2**(n - d)`` upwards, and its
    grid point is the rank ``popcount(a)``.  The plot has no bridge iff at
    every depth 2 <= d < n no two prefixes of equal rank have distinct
    nonzero cofactors: shallower depths have one prefix per rank, and
    at depth n every nonzero cofactor is the same accepting node.
    """
    size = 1 << n
    var = assignment_masks(size)
    free = full_mask(size)
    for d in range(2, n):
        width = 1 << (n - d)  # the table positions of a cofactor at depth d
        chunks = [range(a, a + width) for a in range(0, size, width)]
        nonzero = []
        for chunk in chunks:
            m = 0
            for p in chunk:
                m |= var[p]
            nonzero.append(m)
        for a in range(1 << d):
            for b in range(a + 1, 1 << d):
                if a.bit_count() == b.bit_count():  # one grid point
                    differ = 0
                    for p, q in zip(chunks[a], chunks[b]):
                        differ |= var[p] ^ var[q]
                    free &= ~(nonzero[a] & nonzero[b] & differ)
    return free


def _np_closure(fns: int, n: int) -> int:
    """The bitmap of every image of the bitmap's n-input functions under
    input complementation and permutation.

    Both permute a function's table positions, which are the bitmap's
    inputs, so ``transform_mask`` with that permutation of the positions
    moves every function at once; each permutation used is an involution,
    so its direction does not matter.  Complementing each input in turn
    closes the bitmap under complementation.  The permutations of inputs
    0 .. k are those of inputs 0 .. k - 1 (S_k) and their cosets (j k) S_k
    for j < k, so k = 1 .. n - 1 then closes it under permutation, and it
    stays closed under complementation, which a transposition conjugates
    into another complementation.
    """
    size = 1 << n
    for i in range(n):
        fns |= transform_mask(fns, size, [p ^ 1 << i for p in range(size)])
    for k in range(1, n):
        images = fns
        for j in range(k):
            pair = 1 << j | 1 << k
            swap = [p ^ pair if (p >> j ^ p >> k) & 1 else p for p in range(size)]
            images |= transform_mask(fns, size, swap)
        fns = images
    return fns


def survey_planarity(n: int) -> PlanarSurvey:
    """Classify every function of arity n as planar or not.

    Deterministic; reports the total, the planar count, and up to ten
    non-planar truth tables (as minterm masks, ascending).  A function is
    planar iff it lies in the orbit of a function with no bridge in one
    fixed configuration, so the planar functions are ``_np_closure`` of
    ``_bridge_free``, and only the reported witnesses are decided: each
    must have no planar configuration, or the survey raises RuntimeError.
    """
    if not 0 <= n <= _SURVEY_CAP:
        raise ValueError(f"exhaustive survey capped at {_SURVEY_CAP} inputs")
    planar = _np_closure(_bridge_free(n), n)
    missing = full_mask(1 << n) & ~planar
    nonplanar: list[int] = []
    while missing and len(nonplanar) < _MAX_WITNESSES:
        low = missing & -missing
        f = low.bit_length() - 1
        if is_planar_function(MintermSet(n, f)) is not None:
            raise RuntimeError(f"survey witness {f:#x} has a planar configuration")
        nonplanar.append(f)
        missing ^= low
    return PlanarSurvey(n, 1 << (1 << n), planar.bit_count(), tuple(nonplanar))
