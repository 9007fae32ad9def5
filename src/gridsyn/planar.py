"""Planar functions: grid plots that need no bridges.

A function is planar when some input order and phase assignment gives it a
grid plot with at most one node per grid point.  Every totally symmetric
function is planar (its plot depends only on grid points), and deleting
links from the full symmetric grid template always yields a planar
function, so the template acts as a programmable cell: the full template of
arity n carries exactly n(n+1) links.

The survey sweeps every function of a small arity.  Planarity is invariant
under input permutation and input complementation, which merely relabel
the configuration space, so the survey partitions the functions into
orbits under that group (the NP classes) and decides each orbit once, with
``is_planar_function`` on its first member.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable

from .cubes import MintermSet, PhaseVector, assignment_masks, full_mask, transform_mask
from .gridplot import _LevelTable, _class_links, _phasings, build_grid_dag, is_planar_plot

_EXHAUSTIVE_WITNESS_CAP = 6
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


def is_planar_function(s: MintermSet) -> tuple[tuple[int, ...], PhaseVector] | None:
    """Witness (order, phases) making the plot planar, or None.

    Configurations are tried in a fixed order (orders lexicographic, then
    phase tuples lexicographic) and the first witness is returned.
    """
    n = s.n
    if n > _EXHAUSTIVE_WITNESS_CAP:
        raise ValueError(
            f"exhaustive planarity search capped at {_EXHAUSTIVE_WITNESS_CAP} inputs"
        )
    table = _LevelTable(s)
    phasings = _phasings(n)
    for order in permutations(range(n)):
        for ph, pmask in phasings:
            if table.planar(order, pmask):
                phases = PhaseVector(ph)
                if not is_planar_plot(build_grid_dag(s, order, phases)):
                    raise RuntimeError(
                        f"level table disagrees with the grid DAG at {order}, {phases}"
                    )
                return (order, phases)
    return None


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


def survey_planarity(n: int) -> PlanarSurvey:
    """Classify every function of arity n as planar or not.

    Deterministic; reports the total, the planar count, and up to ten
    non-planar truth tables (as minterm masks, ascending).
    """
    if not 0 <= n <= _SURVEY_CAP:
        raise ValueError(f"exhaustive survey capped at {_SURVEY_CAP} inputs")
    total = 1 << (1 << n)
    group = [(perm, flips) for perm in permutations(range(n)) for flips in range(1 << n)]
    seen = bytearray(total)
    nonplanar: list[int] = []
    planar_count = 0
    for f in range(total):
        if seen[f]:
            continue
        orbit = {transform_mask(f, n, perm, flips) for perm, flips in group}
        for g in orbit:
            seen[g] = 1
        if is_planar_function(MintermSet(n, f)) is not None:
            planar_count += len(orbit)
        else:
            nonplanar.extend(orbit)
    nonplanar.sort()
    return PlanarSurvey(n, total, planar_count, tuple(nonplanar[:_MAX_WITNESSES]))
