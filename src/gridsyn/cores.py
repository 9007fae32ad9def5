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

All pair cores come from one pass over the cover.  For a pair (a, b) a cube
whose symbols at a and b are equal (or, with a flipped, complementary) is
closed by itself; any other cube needs its swap partner, the cube that
differs from it in exactly a and b, with the two symbols exchanged (or
exchanged and complemented).  So per-input masks of cube positions holding
``1``, ``0`` and ``-``, plus one scan of the cube pairs for partners, give
every pair core as a few mask operations.  A widening step tries candidates
that are all subsets of the current core, so none can be larger than it: the
step stops at the first candidate that keeps the whole core, as no later one
could strictly beat it.

The widening rests on one fact.  Take Z inside Z' and flips f' that agree
with f on Z: every Sym(Z') class, in phased coordinates, is a union of
Sym(Z) classes, so the closure under (Z', f') of any cube list lies inside
its closure under (Z, f), and closing that smaller list again gives the same
cubes as closing the whole cover.  Two consequences make the search cheap.
First, every core met while widening a pair core is the closure of all
cubes under its (Z, flips), and inverting all of Z changes no class, so the
core depends only on (Z, flips up to inverting all of Z).  Second, the
closure of Z + {x} lies inside the pair core of (a, x) for every a in Z,
with polarity f'(a) xor f'(x); the AND of those pair cores and the current
core bounds a candidate's size, and a candidate whose bound cannot beat the
best score so far, nor keep the whole core, is never closed.  One
``best_core`` call shares one pair scan, the closures it has computed and
the final widening of every state it has passed through across all its
seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .cubes import Cover, cover_to_minterms

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


@dataclass(frozen=True)
class CoreScore:
    cube_count: int
    width: int
    score: int

    @classmethod
    def compute(cls, count: int, width: int) -> "CoreScore":
        return cls(count, width, count * width * width)


_ONES = str.maketrans("10-", "100")
_ZEROS = str.maketrans("10-", "010")

IntCube = tuple[int, int]


def _int_cube(cube: str) -> IntCube:
    """A cube as ``(ones, zeros)`` bit masks; bit j is input j."""
    rev = cube[::-1]
    return int(rev.translate(_ONES) or "0", 2), int(rev.translate(_ZEROS) or "0", 2)


def _int_cubes(cover: Cover) -> list[IntCube]:
    return [_int_cube(cube) for cube in cover.cubes]


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


def _positions(mask: int) -> list[int]:
    """The set bits of a cube-position mask, in increasing order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _pair_masks(cubes: Sequence[IntCube], n: int) -> dict[tuple[int, int], tuple[int, int]]:
    """The plain and the flipped pair core of every pair a < b, as position masks.

    Bit i of a mask is cube position i.  The plain core of (a, b) equals
    ``_closed(cubes, range(len(cubes)), 1 << a | 1 << b, 0)`` and the
    flipped one the same with ``flips = 1 << a``.  Partners are found in one
    pass over the pairs of distinct cubes: two cubes that differ in exactly
    inputs a < b are plain partners when their symbols there are exchanged,
    and flip partners when they are exchanged and complemented.
    """
    at: dict[IntCube, int] = {}
    for i, cube in enumerate(cubes):
        at[cube] = at.get(cube, 0) | 1 << i
    one, zero = [0] * n, [0] * n
    for (ones, zeros), bits in at.items():
        for j in range(n):
            if ones >> j & 1:
                one[j] |= bits
            elif zeros >> j & 1:
                zero[j] |= bits
    every = (1 << len(cubes)) - 1
    dash = [every & ~(one[j] | zero[j]) for j in range(n)]

    plain: dict[tuple[int, int], int] = {}
    flipped: dict[tuple[int, int], int] = {}
    distinct = list(at.items())
    for k, ((o1, z1), bits1) in enumerate(distinct):
        for (o2, z2), bits2 in distinct[k + 1 :]:
            diff = o1 ^ o2 | z1 ^ z2
            if diff.bit_count() != 2:
                continue
            a = (diff & -diff).bit_length() - 1
            b = diff.bit_length() - 1
            # symbols as 1 -> +1, 0 -> -1, - -> 0, so complementing negates
            s1a = (o1 >> a & 1) - (z1 >> a & 1)
            s1b = (o1 >> b & 1) - (z1 >> b & 1)
            s2a = (o2 >> a & 1) - (z2 >> a & 1)
            s2b = (o2 >> b & 1) - (z2 >> b & 1)
            if s2a == s1b and s2b == s1a:
                plain[a, b] = plain.get((a, b), 0) | bits1 | bits2
            elif s2a == -s1b and s2b == -s1a:
                flipped[a, b] = flipped.get((a, b), 0) | bits1 | bits2

    masks = {}
    for a in range(n):
        for b in range(a + 1, n):
            both_dash = dash[a] & dash[b]
            masks[a, b] = (
                one[a] & one[b] | zero[a] & zero[b] | both_dash | plain.get((a, b), 0),
                one[a] & zero[b] | zero[a] & one[b] | both_dash | flipped.get((a, b), 0),
            )
    return masks


class _Search:
    """What the widenings of pair cores of one cover can share.

    ``pairs`` is the pair scan, ``cores`` maps ``(z, flips)``, with flips
    normalised against inverting all of Z, to the closure of all cubes and
    its size, and ``widened`` maps a widening state ``(z, flips)`` to the
    state its widening ends in.  Both memos hold only for seeds that are the
    closure of all cubes, as pair cores are.
    """

    def __init__(self, cover: Cover, size_metric: str):
        self.cover = cover
        self.size_metric = size_metric
        self.cubes = _int_cubes(cover)
        self.pairs = _pair_masks(self.cubes, cover.n)
        self.cores: dict[tuple[int, int], tuple[list[int], int]] = {}
        self.widened: dict[tuple[int, int], tuple[int, int, list[int], int]] = {}

    def size(self, indices: Sequence[int]) -> int:
        return _core_size(self.cover, indices, self.size_metric)

    def mask_size(self, mask: int) -> int:
        if self.size_metric == "cubes":
            return mask.bit_count()
        return self.size(_positions(mask))

    def upper_size(self, mask: int) -> int:
        """At least the size of any sub-list of the cubes in ``mask``.

        The cube count, or the sum of the cubes' own minterm counts: an exact
        minterm count would cost a truth table per candidate.
        """
        if self.size_metric == "cubes":
            return mask.bit_count()
        return sum(1 << self.cover.cubes[i].count("-") for i in _positions(mask))

    def trials(self, z: int, flips: int, core: int):
        """``(cand_z, cand_flips, bound)`` per candidate of one widening step.

        Candidates come in input order, the plain phase of the new input x
        first.  ``bound`` is a position mask holding the candidate's closure:
        the current core ANDed with the pair core of (a, x) for each a in Z.
        """
        members = [(a, flips >> a & 1) for a in range(self.cover.n) if z >> a & 1]
        for x in range(self.cover.n):
            if z >> x & 1:
                continue
            same = other = core  # x plain, x inverted
            for a, flipped_a in members:
                plain, flipped = self.pairs[(a, x) if a < x else (x, a)]
                if flipped_a:
                    same, other = same & flipped, other & plain
                else:
                    same, other = same & plain, other & flipped
            yield z | 1 << x, flips, same
            yield z | 1 << x, flips | 1 << x, other


def _scored_pairs(search: _Search) -> list[tuple[tuple[int, int], bool, int, int]]:
    """``(pair, flip, mask, size)`` per pair in pair order; ties keep the plain phase."""
    out = []
    for pair, (plain, flipped) in search.pairs.items():
        plain_size, flipped_size = search.mask_size(plain), search.mask_size(flipped)
        if flipped_size > plain_size:
            out.append((pair, True, flipped, flipped_size))
        else:
            out.append((pair, False, plain, plain_size))
    return out


def _pair_seed(cover: Cover, pair: tuple[int, int], flip: bool, mask: int) -> Core:
    return Core(cover, _positions(mask), pair, {pair[0]} if flip else ())


def pair_core(cover: Cover, a: int, b: int, invert_a: bool = False) -> Core:
    """Largest cube sub-list closed under swapping columns a and b.

    With ``invert_a`` the test runs on the cover with column ``a``
    complemented; flipping both columns is equivalent to flipping neither,
    and flipping ``b`` mirrors flipping ``a``, so these two polarities are
    the only distinct options.
    """
    if a == b:
        raise ValueError("pair inputs must differ")
    cubes = _int_cubes(cover)
    indices = _closed(cubes, range(len(cubes)), 1 << a | 1 << b, invert_a << a)
    return Core(cover, indices, (a, b), {a} if invert_a else ())


def best_pair_cores(
    cover: Cover, size_metric: str = "cubes"
) -> dict[tuple[int, int], tuple[bool, Core]]:
    """Best polarity choice per unordered input pair; ties keep the plain phase."""
    if cover.n < 2:
        raise ValueError("pair cores need at least two inputs")
    return _best_pair_cores(_Search(cover, size_metric))


def _best_pair_cores(search: _Search) -> dict[tuple[int, int], tuple[bool, Core]]:
    return {
        pair: (flip, _pair_seed(search.cover, pair, flip, mask))
        for pair, flip, mask, _ in _scored_pairs(search)
    }


def expand_core(
    seed: Core, cover: Cover, size_metric: str = "cubes", search: _Search | None = None
) -> tuple[Core, CoreScore]:
    """Greedily widen a core one input at a time while the score improves.

    Each step tries every remaining input in both polarities, keeps the
    largest cube sub-list closed under all permutations of the widened input
    set, and accepts the candidate only if ``count * width**2`` strictly
    increases.  Polarities fixed in earlier steps are not revisited.

    A candidate whose pair-core bound (see the module docstring) times
    ``width**2`` is no more than the current score and the best score of
    the step so far is skipped unclosed: it could neither be accepted (ties
    go to the first) nor keep the whole core.  ``search`` is what the
    caller's other widenings of pair cores of the same cover and metric
    have computed; by default the call builds its own.
    """
    if search is None:
        search = _Search(cover, size_metric)
    z = sum(1 << i for i in seed.sym_inputs)
    flips = sum(1 << i for i in seed.inverted)
    indices = list(seed.cube_indices)
    size = search.size(indices)
    passed = []

    while (z, flips) not in search.widened:
        passed.append((z, flips))
        score = size * z.bit_count() ** 2
        best = None  # (score, size, z, flips, indices)
        width = z.bit_count() + 1
        core = sum(1 << i for i in indices)
        floor = score  # what a candidate must beat to matter
        for cand_z, cand_flips, bound in search.trials(z, flips, core):
            if search.upper_size(bound) * width * width <= floor:
                continue
            key = (cand_z, min(cand_flips, cand_flips ^ cand_z))
            known = search.cores.get(key)
            if known is None:
                cand = _closed(search.cubes, indices, cand_z, cand_flips)
                known = search.cores[key] = cand, search.size(cand)
            cand, cand_size = known
            cand_score = cand_size * width * width
            if best is None or cand_score > best[0]:
                best = (cand_score, cand_size, cand_z, cand_flips, cand)
                floor = max(floor, cand_score)
            if cand_size == size:
                break  # a subset of the core cannot be larger, so none later wins
        if best is None or best[0] <= score:
            search.widened[z, flips] = (z, flips, indices, size)
        else:
            _, size, z, flips, indices = best

    end = z, flips, indices, size = search.widened[z, flips]
    for state in passed:
        search.widened[state] = end
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
    expanding them tends to splinter a clean disjoint factorization.  The
    seeds' widenings share one pair scan, every closure computed so far
    (keyed by Z and its flips) and the end of every widening state already
    passed through, so a seed that reaches another seed's state stops there.
    """
    if cover.n < 2:
        return None
    return _best_core(_Search(cover, size_metric))


def _best_core(search: _Search) -> Core | None:
    """``best_core`` on the search's cover and metric, sharing what the search holds."""
    seeds = [seed for seed in _scored_pairs(search) if seed[2]]
    if not seeds:
        return None
    top = max(size for *_, size in seeds)
    cover = search.cover
    candidates = [
        expand_core(_pair_seed(cover, pair, flip, mask), cover, search.size_metric, search)
        for pair, flip, mask, size in seeds
        if size == top
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
