"""Symmetric cores: cube subsets invariant under input permutations.

A core is a sub-list of a cover's cubes that, after an optional polarity
flip on some of the inputs, is closed under every permutation of a chosen
input subset Z.  Membership is syntactic on cubes: a cube belongs iff its
orbit under the permutations of Z, in phased coordinates, lies in the
sub-list.  Syntactic closure implies that the minterm set of the selected
cubes is genuinely symmetric over Z, since permuting inputs maps cubes to
cubes.

The search runs on integers.  A cube is a ``cubes.Cube`` from
``Cover.bit_cubes`` (its ``1`` and ``0`` columns as input bit masks), and a
phase flip is a masked exchange of the two.  Z and its flips are input bit
masks too, and a set of cubes is a position mask: bit i is the cover's cube
i.  A set's size is its cube count, the popcount of its mask.  A ``Core``
is these three masks over its cover: its cube positions, Z and the flips,
which lie inside Z; the search builds and reads cores as masks.

Search proceeds the way a cover is actually mined for structure: all input
pairs are scored with both effective polarities, the best pairs seed a
greedy widening that may trade cubes for inputs, and candidates compete on
``count * width**2`` so that wide cores beat deep ones.

All pair cores come from one pass over the cover.  For a pair (a, b) a cube
whose symbols at a and b are equal (or, with a flipped, complementary) is
closed by itself; any other cube needs its swap partner, the cube that
differs from it in exactly a and b, with the two symbols exchanged (or
exchanged and complemented).  So per-input masks of cube positions holding
``1``, ``0`` and ``-``, plus one scan of the cube pairs for partners, give
every pair core as a few mask operations, and the scan keeps the partners
it found.

Wider closures are built from that relation.  The closure of a cube set
under (Z, flips), its largest closed subset, is the union of the orbits
that lie in it.  With a the lowest input of Z, the transpositions (a, b)
for every other b in Z generate all permutations of Z, and in phased
coordinates each is a pair swap: plain when a and b have equal flips,
exchanged and complemented when they differ.  So the closure is a
fixpoint: drop every cube whose image under a generator is missing, until
no generator drops one.  A cube of an orbit inside the set is never
dropped, and what is left is closed under every generator, hence under Z.

One function, ``expand_core``, does every widening, and two facts make it
cheap.  First, take Z inside Z' and flips f' that agree with f on Z: every
Sym(Z') orbit, in phased coordinates, is a union of Sym(Z) orbits, so the
closure under (Z', f') of any cube list lies inside its closure under
(Z, f).  So the closure of Z + {x} lies inside the pair core of (a, x) for
every a in Z, with polarity f'(a) xor f'(x).  The widening keeps, for each
input x outside Z and each phase of x, the AND of those pair cores, and
updates it with one AND per input when an input joins Z; that AND with the
current core bounds a candidate's size, a candidate whose bound cannot
beat the best score so far is never closed, and the fixpoint of any other
starts from the bound.  Second, every candidate of a step is a subset of
the current core, so once one candidate keeps the whole core no later
bound can beat it, and the step closes nothing more.

A ``CoreSearch`` holds what the ``best_pair_cores``, ``expand_core`` and
``best_core`` calls on one cover share: the pair scan, and the end of
every widening state ``(Z, flips, core)`` passed through, so a seed that
reaches a state another widening passed through stops there and closes
no more candidates.  Top seeds converge so on covers built of threshold
blocks: decomposing the 40 threshold-block covers of the benchmark's
``decompose-sym`` workload, seed 1, closes 1,806 cube sets with this memo
and 2,654 without it.  The memo key holds the core itself, since a seed
that is not a pair core, such as part of one, closes other cubes under
the same Z and flips.

A cover of two cube positions needs none of this: ``two_cube_core`` reads
the core ``best_core`` would choose straight off the two cubes' symbols,
with no pair scan and no widening (its docstring has the argument).  The
decomposer calls it for every two-cube cover; covers of three or more
cubes, and the ``gridsyn cores`` report, run the search.
"""

from __future__ import annotations

from operator import and_
from typing import Iterable, NamedTuple, Sequence

from .cubes import Cover, Cube, set_bits, subcover


class _CoreFields(NamedTuple):
    base: Cover
    cubes: int
    z: int
    flips: int


class Core(_CoreFields):
    """A phased, permutation-closed cube subset of a cover, as three bit masks.

    ``cubes`` holds its cube positions in ``base``, ``z`` its symmetric
    inputs and ``flips`` its inverted inputs, which lie inside Z.  The
    other views, and the score, are read off the masks.
    """

    __slots__ = ()

    def __new__(cls, base: Cover, cubes: int, z: int, flips: int) -> Core:
        if not 0 <= cubes < 1 << base.m:
            raise ValueError(f"cube mask {cubes:#x} outside the cover's {base.m} cubes")
        if not 0 <= z < 1 << base.n:
            raise ValueError(f"input mask {z:#x} outside the cover's {base.n} inputs")
        if flips & ~z:
            raise ValueError("inverted inputs must lie inside the symmetric set")
        return tuple.__new__(cls, (base, cubes, z, flips))

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> Core:
        return cls(*iterable)

    @property
    def cube_indices(self) -> tuple[int, ...]:
        return tuple(set_bits(self.cubes))

    @property
    def sym_inputs(self) -> tuple[int, ...]:
        return tuple(set_bits(self.z))

    @property
    def inverted(self) -> frozenset[int]:
        return frozenset(set_bits(self.flips))

    @property
    def cube_count(self) -> int:
        return self.cubes.bit_count()

    @property
    def width(self) -> int:
        return self.z.bit_count()

    @property
    def score(self) -> int:
        """``count * width**2``, the quantity the widening raises."""
        return self.cube_count * self.width**2


def _pair_masks(cubes: Sequence[Cube], n: int) -> tuple[list[tuple[list[int], list[int]]], dict]:
    """The pair cores of every pair, and the swap partners that put cubes in them.

    Returns ``(partner, links)``.  Row ``a`` of ``partner`` holds, at index
    x, the plain and the flipped pair core of (a, x) in either order, as
    position masks; the entry at x = a is 0.  ``links`` maps ``(a, b, f)``,
    for a < b and f 0 for the plain swap or 1 for the flipped one, to its
    partner pairs ``(p, q)``: the position masks of two distinct cubes, each
    the other's image.  A pair core is the OR of the cubes the swap fixes,
    whose symbols at a and b are equal (plain) or complementary (flipped),
    and of its partner pairs.  An image that is not the cube itself differs
    from it in exactly a and b, so partners are found in one pass over the
    pairs of distinct cubes.
    """
    at: dict[Cube, int] = {}
    for i, cube in enumerate(cubes):
        at[cube] = at.get(cube, 0) | 1 << i
    one, zero = [0] * n, [0] * n
    for (ones, zeros), bits in at.items():
        for j in set_bits(ones):
            one[j] |= bits
        for j in set_bits(zeros):
            zero[j] |= bits
    every = (1 << len(cubes)) - 1
    dash = [every & ~(one[j] | zero[j]) for j in range(n)]

    links: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    distinct = list(at.items())
    for k, ((o1, z1), bits1) in enumerate(distinct):
        for (o2, z2), bits2 in distinct[k + 1 :]:
            diff = o1 ^ o2 | z1 ^ z2
            if diff.bit_count() != 2:
                continue
            a, b = set_bits(diff)
            # symbols as 1 -> +1, 0 -> -1, - -> 0, so complementing negates
            s1a = (o1 >> a & 1) - (z1 >> a & 1)
            s1b = (o1 >> b & 1) - (z1 >> b & 1)
            s2a = (o2 >> a & 1) - (z2 >> a & 1)
            s2b = (o2 >> b & 1) - (z2 >> b & 1)
            if s2a == s1b and s2b == s1a:
                links.setdefault((a, b, 0), []).append((bits1, bits2))
            elif s2a == -s1b and s2b == -s1a:
                links.setdefault((a, b, 1), []).append((bits1, bits2))

    partner = [([0] * n, [0] * n) for _ in range(n)]
    for a in range(n):
        plain_a, flipped_a = partner[a]
        for b in range(a + 1, n):
            plain_b, flipped_b = partner[b]
            both_dash = dash[a] & dash[b]
            plain_a[b] = plain_b[a] = one[a] & one[b] | zero[a] & zero[b] | both_dash
            flipped_a[b] = flipped_b[a] = one[a] & zero[b] | zero[a] & one[b] | both_dash
    for (a, b, f), pairs in links.items():
        for p, q in pairs:
            partner[a][f][b] |= p | q
        partner[b][f][a] = partner[a][f][b]
    return partner, links


class CoreSearch:
    """The core search on one cover.

    ``best_pair_cores``, ``expand_core`` and ``best_core`` take one, and
    every call on the same search shares what it holds.  ``partner`` and
    ``links`` are the pair scan (see ``_pair_masks``): ``partner[a][f][x]``
    is the pair core of (a, x) in either order, plain for ``f = 0`` and
    flipped for ``f = 1``, and ``links`` the swap partners that put cubes in
    it, the relation every wider closure is a fixpoint of.  ``widened`` maps
    a widening state ``(z, flips, core)`` to the state its widening ends in.
    """

    def __init__(self, cover: Cover):
        self.cover = cover
        self.partner, self.links = _pair_masks(cover.bit_cubes, cover.n)
        self.widened: dict[tuple[int, int, int], tuple[int, int, int]] = {}

    def _close(self, start: int, z: int, flips: int) -> int:
        """The largest subset of ``start`` closed under every permutation of Z, phased by ``flips``.

        The fixpoint of the module docstring.  Each generator (a, b), a the
        lowest input of Z, keeps the cubes of its pair core, and then the
        partner pairs it links are checked until a round drops no cube: a
        pair not wholly kept loses both cubes.
        """
        a = (z & -z).bit_length() - 1
        fa = flips >> a & 1
        rows, links = self.partner[a], self.links
        kept, gens = start, []
        for b in set_bits(z & z - 1):
            f = fa ^ flips >> b & 1
            kept &= rows[f][b]
            pairs = links.get((a, b, f))
            if pairs:
                gens.append(pairs)
        while True:
            before = kept
            for pairs in gens:
                for p, q in pairs:
                    if not (p & kept and q & kept):
                        kept &= ~(p | q)
            if kept == before:
                return kept


def _scored_pairs(search: CoreSearch) -> list[tuple[int, int, int, int]]:
    """``(z, flips, cubes, size)`` of each pair a < b in pair order; ties keep the plain phase."""
    out = []
    for a, (plain_a, flipped_a) in enumerate(search.partner):
        for b in range(a + 1, len(plain_a)):
            plain, flipped = plain_a[b], flipped_a[b]
            plain_size, flipped_size = plain.bit_count(), flipped.bit_count()
            if flipped_size > plain_size:
                out.append((1 << a | 1 << b, 1 << a, flipped, flipped_size))
            else:
                out.append((1 << a | 1 << b, 0, plain, plain_size))
    return out


def best_pair_cores(search: CoreSearch) -> dict[tuple[int, int], Core]:
    """The core of each unordered input pair in its better polarity; ties keep the plain phase.

    A pair's core is the largest cube sub-list closed under swapping its two
    columns, with the first column complemented when the core's ``flips``
    is set (flipping both is flipping neither, and flipping the second
    mirrors flipping the first).  A cover with fewer than two inputs has
    none.
    """
    return {
        tuple(set_bits(z)): Core(search.cover, cubes, z, flips)
        for z, flips, cubes, _ in _scored_pairs(search)
    }


def expand_core(seed: Core, search: CoreSearch) -> Core:
    """Greedily widen a core one input at a time while its score improves.

    Each step tries every input x outside Z in input order, the plain phase
    of x first, and keeps the candidate whose closure scores highest on
    ``count * width**2``, the first on ties; the widening ends when no
    candidate strictly beats the current score.  Polarities fixed in
    earlier steps are not revisited.  A candidate whose pair-core bound (see
    the module docstring) times ``width**2`` is no more than the current
    score and the step's best so far is skipped unclosed: it could not be
    accepted.  So is every candidate after one that keeps the whole core,
    as each bound lies inside the core.  The widening stops at any state
    ``search.widened`` holds, and records there the end of every state it
    passed through.  A seed of a cover other than the search's is a
    ``ValueError``.
    """
    cover = search.cover
    if seed.base != cover:
        raise ValueError("the seed core belongs to another cover")
    n, partner, close, widened = cover.n, search.partner, search._close, search.widened
    core, z, flips = seed.cubes, seed.z, seed.flips
    size = core.bit_count()
    # per input x outside Z: the AND of the pair cores of x and every a
    # in Z, with x plain (same) and with x inverted (other)
    same = other = [(1 << cover.m) - 1] * n
    for a in set_bits(z):
        fa = flips >> a & 1
        same = list(map(and_, same, partner[a][fa]))
        other = list(map(and_, other, partner[a][fa ^ 1]))

    passed = []
    while (z, flips, core) not in widened:
        passed.append((z, flips, core))
        width = z.bit_count() + 1
        w2 = width * width
        floor = size * (width - 1) ** 2  # what a candidate must beat
        best = None  # (size, x, flips, core)
        for x in range(n):
            if z >> x & 1:
                continue
            cand_z = z | 1 << x
            for cand_flips, bound in ((flips, same[x]), (flips | 1 << x, other[x])):
                bound &= core
                if bound.bit_count() * w2 <= floor:
                    continue
                cand = close(bound, cand_z, cand_flips)
                cand_size = cand.bit_count()
                if cand_size * w2 > floor:
                    best = (cand_size, x, cand_flips, cand)
                    floor = cand_size * w2
        if best is None:
            widened[z, flips, core] = (z, flips, core)
            break
        size, x, flips, core = best
        z |= 1 << x
        fx = flips >> x & 1
        same = list(map(and_, same, partner[x][fx]))
        other = list(map(and_, other, partner[x][fx ^ 1]))

    end = widened[z, flips, core]
    for state in passed:
        widened[state] = end
    z, flips, core = end
    return Core(cover, core, z, flips)


def _selection_key(score: int, width: int, inversions: int, sym_inputs: tuple[int, ...]):
    """Highest score first, then wider, fewer inversions, smallest Z."""
    return -score, -width, inversions, sym_inputs


def best_core(search: CoreSearch) -> Core | None:
    """Full pipeline: pair cores, widening, selection.  None if all pairs are empty.

    Only the maximal pair cores (largest size over all pairs) seed the
    widening step; smaller pair cores are subsets of weaker symmetries and
    expanding them tends to splinter a clean disjoint factorization.  Each
    top seed, in pair order, is widened once by ``expand_core``, and the
    widened core with the smallest ``_selection_key`` wins, the first on
    ties.
    """
    seeds = _scored_pairs(search)
    top = max((size for *_, size in seeds), default=0)
    if not top:
        return None
    cover = search.cover
    return min(
        (
            expand_core(Core(cover, cubes, z, flips), search)
            for z, flips, cubes, size in seeds
            if size == top
        ),
        key=lambda core: _selection_key(
            core.score, core.width, core.flips.bit_count(), core.sym_inputs
        ),
    )


def _symbol(cube: Cube, x: int) -> int:
    """Input x's symbol in a cube: +1 for ``1``, -1 for ``0``, 0 for ``-``."""
    ones, zeros = cube
    return (ones >> x & 1) - (zeros >> x & 1)


def two_cube_core(cover: Cover) -> Core | None:
    """``best_core(CoreSearch(cover))`` for a cover of two cube positions, in closed form.

    Cube A is position 0 and cube B position 1.  Read a symbol as +1 for
    ``1``, -1 for ``0`` and 0 for ``-``, so complementing negates it.  Give
    each input x the vector ``v(x) = (s_A(x), s_B(x))`` of its two symbols,
    and put x and y in one class when ``v(x) = +-v(y)``: nine vectors, five
    classes.

    *Pair cores.*  A cube lies in the plain core of (a, b) iff its symbols
    there are equal, and in the flipped core iff they are complementary.
    Swap partners add both cubes to at most one pair, the two inputs where
    the cubes differ, and then neither cube lies in that phase's core by
    itself.  So a pair core holds both cubes iff a and b share a class or
    the cubes are partners across (a, b).  A pair in a class takes the
    phase that holds both (plain when ``v(a) = v(b)``), except the plain
    partners with ``v(b) = -v(a)``: both phases hold both cubes, and plain
    wins the tie.

    *A seed holding both cubes as partners* ends at once: they share a class
    under every wider Z, a class of w >= 3 inputs needs
    ``C(w, c1) * C(w - c1, c0)`` cubes, never 2, and neither cube is closed
    alone.  Its end is the pair itself, score 8.

    *A seed (a, b) holding both cubes, each uniform on the pair.*  Their
    phased symbols are ``v(b)``, as b is never flipped.  Under a wider Z a
    cube is closed iff it is uniform on Z, since a class of two cubes never
    closes and a class of one closes only when it is uniform.

    - A step keeps both cubes at x iff x lies in the pair's class: plain
      when ``v(x) = v(b)``, else inverted.  The plain phase is tried first.
      At width 3 or more a single cube never beats two, as
      ``(w + 1)**2 <= 2 * w**2``, so Z grows to the whole class K and
      inverts the inputs of vector ``-v(b)``.  Every pair of K is a seed, so
      the fewest inversions invert the smaller half of K; on a tie the first
      seed, the two lowest inputs of K, picks the half not holding its b.
    - If K is the pair itself, the step from width 2 to 3 takes one cube,
      as 9 > 8: the first x in ascending order where the plain phase keeps
      a cube, else the flipped one, and the cube that phase keeps.  The
      single-cube rule below continues.  With no such x the end is the
      pair, score 8.

    *A seed holding one cube c with phased symbol s.*  Each step keeps c
    iff c is uniform on the wider Z, and any such step raises the score.
    If s is ``-``, Z gains every dash input of c, and the only inversion is
    the seed's own.
    Otherwise Z gains every literal of c, and an input is inverted iff its
    symbol is -s.  One-cube seeds are top seeds only when no pair holds
    both cubes, so when every class holds at most one input: at most five
    inputs, and the pairs are scanned one by one.

    *Selection.*  Each end is kept with its ``_selection_key`` and its
    seed, and the least wins: the smallest key, the first seed in pair
    order on ties.  Ends of two-cube seeds never tie any other (``2 * k**2``
    is no square), so Z tuples are compared only when score, width and
    inversions tie.  Two equal cubes act as one cube on both positions:
    every input's vector is in the class of ``(0, 0)`` or ``(1, 1)``, and
    no single-cube step exists.
    """
    cubes = cover.bit_cubes
    every = (1 << cover.n) - 1
    # at[c][s]: the inputs where cube c has symbol s
    at = [{1: ones, -1: zeros, 0: every & ~(ones | zeros)} for ones, zeros in cubes]
    ends = []  # (selection key, seed, z, flips, core)

    def add(z: int, flips: int, core: int, seed: tuple[int, int]) -> None:
        width = z.bit_count()
        score = core.bit_count() * width * width
        key = _selection_key(score, width, flips.bit_count(), tuple(set_bits(z)))
        ends.append((key, seed, z, flips, core))

    def add_one(c: int, a: int, b: int, flip: int) -> None:
        """The end of seed (a, b), a flipped when ``flip``, widened on cube c alone."""
        sigma = _symbol(cubes[c], b)
        if sigma:
            add(at[c][1] | at[c][-1], at[c][-sigma], 1 << c, (a, b))
        else:
            add(at[c][0], flip << a, 1 << c, (a, b))

    # swap partners seed their pair, unless the pair's plain core holds both as uniform
    partner = None
    diff = cubes[0][0] ^ cubes[1][0] | cubes[0][1] ^ cubes[1][1]
    if diff.bit_count() == 2:
        p, q = set_bits(diff)
        (ap, bp), (aq, bq) = [(_symbol(cubes[0], x), _symbol(cubes[1], x)) for x in (p, q)]
        if (bp, bq) == (aq, ap):
            partner = (p, q)
            add(diff, 0, 3, partner)
        elif (bp, bq) == (-aq, -ap) and (ap, bp) != (aq, bq):
            partner = (p, q)
            add(diff, 1 << p, 3, partner)

    # the five classes: every pair inside one seeds both cubes, each uniform
    for va, vb in ((0, 0), (1, 1), (1, -1), (1, 0), (0, 1)):
        pos = at[0][va] & at[1][vb]
        neg = at[0][-va] & at[1][-vb] if va or vb else 0
        k = pos | neg
        size = k.bit_count()
        if size < 2:
            continue
        low = k & -k
        a = low.bit_length() - 1
        if size >= 3:
            # both cubes widen to all of K; the half holding b stays plain
            second = (k ^ low) & -(k ^ low)
            n_pos, n_neg = pos.bit_count(), neg.bit_count()
            half = pos if n_pos > n_neg or (n_pos == n_neg and second & pos) else neg
            b = ((half & ~low) & -(half & ~low)).bit_length() - 1
            add(k, k ^ half, 3, (a, b))
            continue
        # K is the pair (a, b) alone: at most a step to one cube
        b = (k ^ low).bit_length() - 1
        if partner == (a, b):
            continue
        flip = int(bool(pos and neg))
        sa, sb = (va, vb) if pos >> b & 1 else (-va, -vb)
        plain, flipped = at[0][sa] | at[1][sb], at[0][-sa] | at[1][-sb]
        rest = (plain | flipped) & ~k
        if not rest:
            add(k, flip << a, 3, (a, b))
            continue
        x = rest & -rest
        kept_a = at[0][sa] if x & plain else at[0][-sa]
        add_one(0 if x & kept_a else 1, a, b, flip)

    if not ends:  # no pair holds both cubes: the top seeds hold one
        for a in range(cover.n):
            for b in range(a + 1, cover.n):
                held = [
                    (c, sign)
                    for sign in (1, -1)
                    for c in (0, 1)
                    if _symbol(cubes[c], a) == sign * _symbol(cubes[c], b)
                ]
                if held:
                    c, sign = held[0]
                    add_one(c, a, b, int(sign < 0))
        if not ends:
            return None

    _, _, z, flips, core = min(ends)
    return Core(cover, core, z, flips)


def dc_partition(cover: Cover) -> list[Cover]:
    """Split a cover into sub-covers of equal don't-care count.

    Parts appear in order of first occurrence and preserve cube order; their
    concatenation is a permutation of the original cube list, so the parts
    OR back to the original function.
    """
    groups: dict[int, list[int]] = {}
    for i, (ones, zeros) in enumerate(cover.bit_cubes):
        groups.setdefault((ones | zeros).bit_count(), []).append(i)
    return [subcover(cover, group) for group in groups.values()]
