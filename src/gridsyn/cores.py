"""Symmetric cores: cube subsets invariant under input permutations.

A core is a sub-list of a cover's cubes that, after an optional polarity
flip on some of the inputs, is closed under every permutation of a chosen
input subset Z.  Membership is syntactic on cubes: a cube belongs iff its
image under the permutation (applied to cube columns) is itself a cube of
the list.  Syntactic closure implies that the minterm set of the selected
cubes is genuinely symmetric over Z, since permuting inputs maps cubes to
cubes.

Search proceeds the way a cover is actually mined for structure: all input
pairs are scored with both effective polarities, the best pair seeds a
greedy widening that may trade cubes for inputs, and candidates compete on
``count * width**2`` so that wide cores beat deep ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cubes import Cover, cover_to_minterms

_FLIP = {"0": "1", "1": "0", "-": "-"}

#: How candidate cores are sized: by cube count (default) or by the number
#: of distinct minterms the selected cubes cover.
SIZE_METRICS = ("cubes", "minterms")


@dataclass(frozen=True)
class Core:
    """A phased, permutation-closed cube subset of a cover."""

    base: Cover
    cube_indices: tuple[int, ...]
    sym_inputs: tuple[int, ...]
    inverted: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "cube_indices", tuple(self.cube_indices))
        object.__setattr__(self, "sym_inputs", tuple(sorted(self.sym_inputs)))
        object.__setattr__(self, "inverted", frozenset(self.inverted))
        if not self.inverted.issubset(self.sym_inputs):
            raise ValueError("inverted inputs must lie inside the symmetric set")

    @property
    def width(self) -> int:
        return len(self.sym_inputs)

    @property
    def cube_count(self) -> int:
        return len(self.cube_indices)

    def phased_cubes(self) -> tuple[str, ...]:
        """The selected cubes with inverted columns flipped."""
        return tuple(
            _phase_cube(self.base.cubes[i], self.inverted) for i in self.cube_indices
        )


@dataclass(frozen=True)
class CoreScore:
    cube_count: int
    width: int
    score: int

    @classmethod
    def compute(cls, count: int, width: int) -> "CoreScore":
        return cls(count, width, count * width * width)


def _phase_cube(cube: str, inverted: frozenset[int]) -> str:
    if not inverted:
        return cube
    return "".join(_FLIP[ch] if j in inverted else ch for j, ch in enumerate(cube))


def _swap_cols(cube: str, i: int, j: int) -> str:
    if cube[i] == cube[j]:
        return cube
    chars = list(cube)
    chars[i], chars[j] = chars[j], chars[i]
    return "".join(chars)


def _core_size(cover: Cover, indices: Sequence[int], metric: str) -> int:
    if metric == "cubes":
        return len(indices)
    if metric == "minterms":
        sub = Cover(cover.input_names, tuple(cover.cubes[i] for i in indices))
        return len(cover_to_minterms(sub))
    raise ValueError(f"unknown core size metric {metric!r}")


def pair_core(cover: Cover, a: int, b: int, invert_a: bool = False) -> Core:
    """Largest cube sub-list closed under swapping columns a and b.

    With ``invert_a`` the test runs on the cover with column ``a``
    complemented; flipping both columns is equivalent to flipping neither,
    and flipping ``b`` mirrors flipping ``a``, so these two polarities are
    the only distinct options.
    """
    if a == b:
        raise ValueError("pair inputs must differ")
    inverted = frozenset((a,)) if invert_a else frozenset()
    phased = [_phase_cube(cube, inverted) for cube in cover.cubes]
    present = set(phased)
    indices = tuple(
        i for i, cube in enumerate(phased) if _swap_cols(cube, a, b) in present
    )
    return Core(cover, indices, (a, b), inverted)


def best_pair_cores(
    cover: Cover, size_metric: str = "cubes"
) -> dict[tuple[int, int], tuple[bool, Core]]:
    """Best polarity choice per unordered input pair; ties keep the plain phase."""
    if cover.n < 2:
        raise ValueError("pair cores need at least two inputs")
    out: dict[tuple[int, int], tuple[bool, Core]] = {}
    for a in range(cover.n):
        for b in range(a + 1, cover.n):
            plain = pair_core(cover, a, b, invert_a=False)
            flipped = pair_core(cover, a, b, invert_a=True)
            if _core_size(cover, flipped.cube_indices, size_metric) > _core_size(
                cover, plain.cube_indices, size_metric
            ):
                out[(a, b)] = (True, flipped)
            else:
                out[(a, b)] = (False, plain)
    return out


def _orbit(cube: str, gens: Sequence[tuple[int, int]]) -> set[str]:
    seen = {cube}
    frontier = [cube]
    while frontier:
        cur = frontier.pop()
        for i, j in gens:
            img = _swap_cols(cur, i, j)
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return seen


def _closed_subset(cubes: set[str], gens: Sequence[tuple[int, int]]) -> set[str]:
    """Largest subset closed under the given transpositions (union of full orbits)."""
    keep: set[str] = set()
    rejected: set[str] = set()
    for cube in cubes:
        if cube in keep or cube in rejected:
            continue
        orbit = _orbit(cube, gens)
        if orbit <= cubes:
            keep |= orbit
        else:
            rejected |= orbit & cubes
    return keep


def expand_core(
    seed: Core, cover: Cover, size_metric: str = "cubes"
) -> tuple[Core, CoreScore]:
    """Greedily widen a core one input at a time while the score improves.

    Each step tries every remaining input in both polarities, keeps the
    largest cube sub-list closed under all permutations of the widened input
    set, and accepts the candidate only if ``count * width**2`` strictly
    increases.  Polarities fixed in earlier steps are not revisited.
    """
    z = list(seed.sym_inputs)
    inverted = set(seed.inverted)
    indices = list(seed.cube_indices)
    size = _core_size(cover, indices, size_metric)
    score = size * len(z) * len(z)

    while True:
        best = None  # (score, size, x, invert_x, indices)
        width = len(z) + 1
        for x in range(cover.n):
            if x in z:
                continue
            for invert_x in (False, True):
                phases = frozenset(inverted | ({x} if invert_x else set()))
                phased = {
                    _phase_cube(cover.cubes[i], phases): None for i in indices
                }.keys()
                members = sorted(z + [x])
                gens = list(zip(members, members[1:]))
                closed = _closed_subset(set(phased), gens)
                cand = [
                    i for i in indices if _phase_cube(cover.cubes[i], phases) in closed
                ]
                cand_size = _core_size(cover, cand, size_metric)
                cand_score = cand_size * width * width
                if best is None or cand_score > best[0]:
                    best = (cand_score, cand_size, x, invert_x, cand)
        if best is None or best[0] <= score:
            break
        score, size = best[0], best[1]
        z.append(best[2])
        if best[3]:
            inverted.add(best[2])
        indices = best[4]

    core = Core(cover, tuple(indices), tuple(sorted(z)), frozenset(inverted))
    return core, CoreScore.compute(size, core.width)


def select_best_core(candidates: Sequence[tuple[Core, CoreScore]]) -> Core:
    """Highest score; ties prefer wider cores, fewer inversions, smallest Z."""
    if not candidates:
        raise ValueError("no core candidates")
    return min(
        candidates,
        key=lambda cs: (-cs[1].score, -cs[1].width, len(cs[0].inverted), cs[0].sym_inputs),
    )[0]


def best_core(cover: Cover, size_metric: str = "cubes") -> Core | None:
    """Full pipeline: pair cores, widening, selection.  None if all pairs are empty.

    Only the maximal pair cores (largest size over all pairs) seed the
    widening step; smaller pair cores are subsets of weaker symmetries and
    expanding them tends to splinter a clean disjoint factorization.
    """
    if cover.n < 2:
        return None
    seeds = []
    for _, (_, core) in sorted(best_pair_cores(cover, size_metric).items()):
        if core.cube_indices:
            seeds.append((core, _core_size(cover, core.cube_indices, size_metric)))
    if not seeds:
        return None
    top = max(size for _, size in seeds)
    candidates = [
        expand_core(core, cover, size_metric) for core, size in seeds if size == top
    ]
    return select_best_core(candidates)


def dc_partition(cover: Cover) -> list[Cover]:
    """Split a cover into sub-covers of equal don't-care count.

    Parts appear in order of first occurrence and preserve cube order; their
    concatenation is a permutation of the original cube list, so the parts
    OR back to the original function.
    """
    groups: dict[int, list[str]] = {}
    for cube in cover.cubes:
        groups.setdefault(cube.count("-"), []).append(cube)
    return [Cover(cover.input_names, tuple(cubes)) for cubes in groups.values()]
