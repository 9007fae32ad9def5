"""Symmetric cores: cube subsets invariant under input permutations.

A core is a sub-list of a cover's cubes that, after an optional polarity
flip on some of the inputs, is closed under every permutation of a chosen
input subset Z.  Membership is syntactic on cubes and decided by counting:
the orbit of a cube under the permutations of Z is every cube with the same
part outside Z and the same counts of ``0``, ``1`` and ``-`` on Z, so a cube
belongs iff its class holds all ``C(w, c1) * C(w - c1, c0)`` of those cubes
(``w = |Z|``).  Syntactic closure implies that the minterm set of the
selected cubes is genuinely symmetric over Z, since permuting inputs maps
cubes to cubes.  The search runs on integer cubes: each cube is a pair of
input bit masks (its ``1`` columns, its ``0`` columns), and a phase flip is
a masked exchange of the two.

Search proceeds the way a cover is actually mined for structure: all input
pairs are scored with both effective polarities, the best pair seeds a
greedy widening that may trade cubes for inputs, and candidates compete on
``count * width**2`` so that wide cores beat deep ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
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


_ONES = str.maketrans("10-", "100")
_ZEROS = str.maketrans("10-", "010")

IntCube = tuple[int, int]


def _int_cubes(cover: Cover) -> list[IntCube]:
    """Each cube as ``(ones, zeros)`` bit masks; bit j is input j."""
    return [
        (int(rev.translate(_ONES) or "0", 2), int(rev.translate(_ZEROS) or "0", 2))
        for rev in (cube[::-1] for cube in cover.cubes)
    ]


def _closed(cubes: Sequence[IntCube], indices: Sequence[int], z: int, flips: int) -> list[int]:
    """The indices whose cube lies in a class closed under every permutation of Z.

    ``z`` and ``flips`` are input bit masks.  A cube's class key is its part
    outside Z and its counts of 1 and 0 on Z after the flips (a flip outside
    Z maps every class onto another, so it cannot change the result).  A
    class is closed when it holds all ``C(w, c1) * C(w - c1, c0)`` distinct
    cubes of its key.  The result keeps the order of ``indices``.
    """
    w = z.bit_count()
    out, keep, swap = ~z, z & ~flips, z & flips
    key_of: dict[IntCube, tuple[int, int, int, int]] = {}
    count: dict[tuple[int, int, int, int], int] = {}
    for i in indices:
        cube = cubes[i]
        if cube not in key_of:
            ones, zeros = cube
            c1 = (ones & keep | zeros & swap).bit_count()
            c0 = (zeros & keep | ones & swap).bit_count()
            key = key_of[cube] = (ones & out, zeros & out, c1, c0)
            count[key] = count.get(key, 0) + 1
    closed = {
        key for key, c in count.items() if c == comb(w, key[2]) * comb(w - key[2], key[3])
    }
    return [i for i in indices if key_of[cubes[i]] in closed]


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
    return _pair_core(cover, _int_cubes(cover), a, b, invert_a)


def _pair_core(cover: Cover, cubes: Sequence[IntCube], a: int, b: int, invert_a: bool) -> Core:
    indices = _closed(cubes, range(len(cubes)), 1 << a | 1 << b, invert_a << a)
    return Core(cover, indices, (a, b), {a} if invert_a else ())


def best_pair_cores(
    cover: Cover, size_metric: str = "cubes"
) -> dict[tuple[int, int], tuple[bool, Core]]:
    """Best polarity choice per unordered input pair; ties keep the plain phase."""
    if cover.n < 2:
        raise ValueError("pair cores need at least two inputs")
    cubes = _int_cubes(cover)
    out: dict[tuple[int, int], tuple[bool, Core]] = {}
    for a in range(cover.n):
        for b in range(a + 1, cover.n):
            plain = _pair_core(cover, cubes, a, b, invert_a=False)
            flipped = _pair_core(cover, cubes, a, b, invert_a=True)
            flip = _core_size(cover, flipped.cube_indices, size_metric) > _core_size(
                cover, plain.cube_indices, size_metric
            )
            out[(a, b)] = (True, flipped) if flip else (False, plain)
    return out


def expand_core(
    seed: Core, cover: Cover, size_metric: str = "cubes"
) -> tuple[Core, CoreScore]:
    """Greedily widen a core one input at a time while the score improves.

    Each step tries every remaining input in both polarities, keeps the
    largest cube sub-list closed under all permutations of the widened input
    set, and accepts the candidate only if ``count * width**2`` strictly
    increases.  Polarities fixed in earlier steps are not revisited.
    """
    cubes = _int_cubes(cover)
    z = sum(1 << i for i in seed.sym_inputs)
    flips = sum(1 << i for i in seed.inverted)
    indices = list(seed.cube_indices)
    size = _core_size(cover, indices, size_metric)
    score = size * z.bit_count() ** 2

    while True:
        best = None  # (score, size, z, flips, indices)
        width = z.bit_count() + 1
        for x in range(cover.n):
            bit = 1 << x
            if z & bit:
                continue
            for cand_flips in (flips, flips | bit):
                cand = _closed(cubes, indices, z | bit, cand_flips)
                cand_size = _core_size(cover, cand, size_metric)
                cand_score = cand_size * width * width
                if best is None or cand_score > best[0]:
                    best = (cand_score, cand_size, z | bit, cand_flips, cand)
        if best is None or best[0] <= score:
            break
        score, size, z, flips, indices = best

    inputs = [i for i in range(cover.n) if z >> i & 1]
    core = Core(cover, indices, inputs, {i for i in inputs if flips >> i & 1})
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
