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
one call of the grid level kernel, ``gridplot._split_level``.

The survey classifies every function of a small arity without deciding
any.  A function is planar in one fixed configuration exactly when it is a
link-deletion image of the template, and those images are enumerated
directly, bottom-up over the template's levels.  Planarity is invariant
under input permutation and input complementation, which merely relabel
the configuration space, so the planar functions are the union of the
orbits (the NP classes) of those images.  The survey confirms the first
image of each orbit by walking its levels with ``_split_level`` and the
decision's bridge test, then marks each distinct image of the orbit once.
An orbit is gathered from per-call lookup tables over the byte chunks of a
truth table: each chunk value under every complementation of the inputs
within a chunk (complementing a higher input only moves chunks), and each
chunk value's images under every permutation, ORed chunk by chunk into one
set.  At n = 4 the 4,288 images fall into 287 of the 402 orbits, which hold
42,244 functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from operator import or_
from typing import Iterable

from .cubes import MintermSet, PhaseVector, assignment_masks, full_mask
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


@dataclass(frozen=True)
class TemplateGrid:
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


def is_planar_function(s: MintermSet) -> tuple[tuple[int, ...], PhaseVector] | None:
    """Witness (order, phases) making the plot planar, or None.

    The witness is the first planar configuration in a fixed order (orders
    lexicographic, then phase tuples lexicographic), found without sweeping
    configurations.  Level d of a plot depends only on the state (S, q): the
    set S of the inputs read so far and their phases q.  A state is good when
    its level has no bridge and some successor, reading one more input in
    either phase, is good (or S holds every input), so a witness is a path
    of good states.  Whether a state is good depends only on S and its level
    up to a uniform rank shift, which is the memo key.  The order is fixed
    input by input, as the smallest input with a good successor from some
    state reached so far; the phases are then the smallest tuple among the
    states reached with every input read.
    """
    n = s.n
    if n > _EXHAUSTIVE_WITNESS_CAP:
        raise ValueError(f"planarity decision capped at {_EXHAUSTIVE_WITNESS_CAP} inputs")
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
                    if nxt is not None:
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


@dataclass(frozen=True)
class PlanarSurvey:
    n: int
    total: int
    planar: int
    nonplanar_witnesses: tuple[int, ...]

    @property
    def all_planar(self) -> bool:
        return self.planar == self.total


def _image_tables(n: int) -> list[list[tuple[int, ...]]]:
    """Per byte chunk of an n-input truth table, per value of the chunk, its
    images under the n! input permutations.

    The image of a truth table under ``transform_mask(bits, n, perm)`` is the
    OR of its chunks' images.  A chunk value's images are those of the value
    without its lowest set bit, plus that minterm's.
    """
    size = 1 << n
    width = min(8, size)
    moves = [  # per permutation, the image of each minterm
        [sum((v >> p & 1) << j for j, p in enumerate(perm)) for v in range(size)]
        for perm in permutations(range(n))
    ]
    tables = []
    for base in range(0, size, width):
        table = [(0,) * len(moves)]
        for value in range(1, 1 << width):
            low = value & -value
            v = base + low.bit_length() - 1  # the minterm of the lowest set bit
            prev = table[value ^ low]
            table.append(tuple(image | 1 << move[v] for image, move in zip(prev, moves)))
        tables.append(table)
    return tables


def _chunk_flips(n: int) -> list[list[int]]:
    """Per complementation of the low ``min(3, n)`` inputs (a mask), the
    complemented value of every value of a byte chunk of an n-input truth table.

    Those inputs index the bits within a chunk, so complementing them
    permutes each chunk's bits alike.  A value's complement is that of the
    value without its lowest set bit, plus that minterm's.
    """
    inputs = min(3, n)
    width = 1 << inputs  # the bits of a chunk
    tables = []
    for low in range(1 << inputs):
        table = [0]
        for value in range(1, 1 << width):
            bit = value & -value
            table.append(table[value ^ bit] | 1 << ((bit.bit_length() - 1) ^ low))
        tables.append(table)
    return tables


def _orbit(
    f: int, n: int, tables: list[list[tuple[int, ...]]], flips: list[list[int]]
) -> set[int]:
    """The images of the n-input function f under input complementation and
    permutation, given ``_image_tables(n)`` and ``_chunk_flips(n)``.

    A complementation of the low inputs maps each chunk through its flip
    table; complementing the higher inputs ``high`` only moves chunk c to
    chunk c ^ high.  The images of each complementation under the n!
    permutations are the ORs of its chunks' table entries.
    """
    width = min(8, 1 << n)
    byte = (1 << width) - 1
    chunks = [f >> c * width & byte for c in range(len(tables))]
    orbit: set[int] = set()
    for table in flips:  # one complementation of the low inputs
        flipped = [table[value] for value in chunks]
        for high in range(len(tables)):  # and one of the higher inputs
            images = tables[0][flipped[high]]
            for c in range(1, len(tables)):
                images = map(or_, images, tables[c][flipped[c ^ high]])
            orbit.update(images)
    return orbit


def _template_words(n: int) -> list[int]:
    """Every n-input truth table, ascending, whose plot is planar when the
    inputs are read from the most significant down, none inverted.

    In ``MintermSet``'s convention that configuration is the reversed input
    order.  Such a plot is the template with links deleted, so the tables
    are built bottom-up, one tuple of node cofactors per rank at each depth:
    at depth n a node accepts or is absent, and the node at (r, d) is
    ``hi << half | lo`` with ``hi`` either 0 or the node at (r + 1, d + 1),
    and ``lo`` either 0 or the node at (r, d + 1), one choice per kept or
    deleted link.  Each depth is a set, so equal tuples merge.  The root
    reads one rank, so each depth-1 tuple ``(lo, hi)`` gives the roots
    ``{0, lo, hi << half, hi << half | lo}`` directly.
    """
    if n == 0:  # the root is a diagonal node
        return [0, 1]
    level = set(product((0, 1), repeat=n + 1))
    for d in range(n - 1, 0, -1):
        half = 1 << (n - 1 - d)  # the width of a cofactor at depth d + 1
        nxt = set()
        for nodes in level:
            choices = (
                {0, nodes[r], nodes[r + 1] << half, nodes[r + 1] << half | nodes[r]}
                for r in range(d + 1)
            )
            nxt.update(product(*choices))
        level = nxt
    half = 1 << (n - 1)
    roots = {0}
    for lo, hi in level:
        hi <<= half
        roots.update((lo, hi, hi | lo))
    return sorted(roots)


def _planar_marks(n: int) -> bytearray:
    """One byte per n-input function, indexed by truth table: 1 iff planar.

    The first template word of each orbit is confirmed by walking its levels
    with ``_split_level`` in the configuration it was built in, the most
    significant input first, and ``_planar_level`` must find no bridge on
    any of them; then each distinct image in its orbit is marked once.
    """
    tables = _image_tables(n)
    flips = _chunk_flips(n)
    marks = bytearray(1 << (1 << n))
    for f in _template_words(n):
        if marks[f]:
            continue
        level = {f: 1}
        for d in range(n):
            half = 1 << (n - 1 - d)  # completions left after this input
            level, _ = _split_level(level, (1 << half) - 1, half, 0)
            if not _planar_level(level):
                raise RuntimeError(f"template word {f:#x} is not planar read from its top input")
        for g in _orbit(f, n, tables, flips):
            marks[g] = 1
    return marks


def survey_planarity(n: int) -> PlanarSurvey:
    """Classify every function of arity n as planar or not.

    Deterministic; reports the total, the planar count, and up to ten
    non-planar truth tables (as minterm masks, ascending).  A function is
    planar iff it lies in the orbit of a template word (``_template_words``),
    so no function needs a planarity decision.
    """
    if not 0 <= n <= _SURVEY_CAP:
        raise ValueError(f"exhaustive survey capped at {_SURVEY_CAP} inputs")
    marks = _planar_marks(n)
    nonplanar: list[int] = []
    f = marks.find(0)
    while f != -1 and len(nonplanar) < _MAX_WITNESSES:
        nonplanar.append(f)
        f = marks.find(0, f + 1)
    return PlanarSurvey(n, len(marks), marks.count(1), tuple(nonplanar))
