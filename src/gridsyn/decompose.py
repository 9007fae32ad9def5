"""Decomposition of a cover into a network of symmetric components.

The engine first splits every cover it is given, the whole cover and each
cofactor, by don't-care count (``cores.dc_partition``) when its cubes have
more than one count: each part holds the cubes with one count of ``-``
symbols and is decomposed on its own, and its terms join the cover's.  The
parts partition the cubes, so the OR of their terms is the cover's function.
A phased permutation of a core's Z keeps each cube's ``-`` count, so every
orbit, and every core, lies inside one part; the split only forbids cores
that join orbits of different counts.  The test sits at the engine's entry
alone: a remainder is a subset of a cover of one count, and ``restrict``
drops only columns that are ``-`` in every cube, which shifts every count
by the same amount.  A split drops no input, so each part recurses at the
cover's own depth.  The terms are exact, as ``factor_core`` asserts every
rank cut and every leaf is exact, so the whole network is not verified
again.

One pass of the engine on a cover F of one don't-care count over inputs X:

1. score every input pair in both polarities (pair cores),
2. widen the best-scoring cores greedily and pick the overall best core,
   a phased cube subset symmetric over some Z subset of X,
3. split the core along the rank cut: Core = sum over the distinct
   cofactors H of G(Z) * H(Y), where H is the cofactor of the core under
   any rank-r assignment to the phased Z (they all agree because the core
   is symmetric over Z) and G the full symmetric function of every rank r
   with that cofactor,
4. recurse on each cofactor H, and add one term G * H per cofactor (when G
   holds every rank it is constant 1, and the term is H's own terms),
5. take the remainder (the cubes left out of the core) to the next pass.

A pass stops at a leaf: a constant, a product of literals, or a cover whose
minterm set is already a union of full ranks (one SYM node, or a literal
when one input is live).  The terms of all passes and the leaf are ORed once.
A sub-cover keeps the names of the inputs it reads (``cubes.restrict``,
``factor_core``), and the engine looks each input's ref up by name.

A product (a cover of one distinct cube, however often repeated) is read
straight off the cube as the one SYM node the engine would build for it.
Every live input is a literal of the cube.  The node is ``SYM[n]`` with
the 0-inputs inverted when the cube has more 1s than 0s, and ``SYM[0]``
with the 1-inputs inverted when it has fewer; on a tie it takes the phase
of local input 1, ``SYM[n]`` if that input reads 1.  Inverters are built in
ascending input order.  The leaf builds no truth table, so a product of
more than ``DEFAULT_EXPANSION_CAP`` live inputs decomposes too, where any
other cover that wide is refused by ``cover_to_minterms``.  This is the
engine's result because:

- every pair core holds the cube, plain when its two symbols are equal and
  flipped when they differ, so every pair is a top seed;
- every widening step keeps the cube and raises the width, so each widening
  ends with Z = all live inputs, inverting the inputs whose symbol differs
  from the seed's second input;
- the selection key then prefers fewer inversions, and ties go to the first
  seed, the pair (0, 1);
- ``factor_core`` gives one term, the one rank whose phased assignment is
  the cube, with a tautology cofactor that ``and_disjoint`` drops;
- that path also interns a ``CONST 1`` node for the cofactor, which
  nothing reaches and ``finish`` drops, so node indices do not change.

A single input, or a cube of one symbol, gives the literal, inverter or SYM
node of a full-rank cover.

A cover of two distinct cubes that is not full-rank takes its core from
``cores.two_cube_core``, the search's choice read off the two cubes in
closed form, instead of building a ``CoreSearch``; the rank cut and the
recursion below it are the same.  Other non-leaf covers run the search.

Every cover that is not a leaf has at least two live inputs, and then some
pair core holds a cube.  Among any three live inputs of a cube two carry equal,
complementary or two don't-care symbols, so the cube lies in that pair's
plain or flipped core.  With exactly two live inputs a cube with both
symbols set lies in one of them the same way, and in a cover of mixed cubes
only (``1-``, ``0-``, ``-1``, ``-0``) each cube has a plain or flipped swap
partner.  So a pass stops at a leaf or peels a core of at least one cube, or
raises.  A cofactor drops the two or more inputs of its Z, so the recursion
is at most n // 2 deep on n live inputs; a depth guard backs both arguments.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence

from . import cores as cores_mod
from .cubes import (
    Cover,
    Cube,
    DEFAULT_EXPANSION_CAP,
    assignment_masks,
    cover_mask,
    cover_to_minterms,
    full_mask,
    popcount_class_masks,
    project,
    restrict,
    set_bits,
    subcover,
)
from .netlist import Netlist, NetlistBuilder, Ref, netlist_mask
from .spectra import FullRankSet, fullrank_set_if_symmetric

__all__ = [
    "DecompositionError",
    "VerifyResult",
    "decompose",
    "factor_core",
    "verify",
]


class DecompositionError(RuntimeError):
    """Internal invariant violation or exceeded recursion guard."""


_DEPTH_LIMIT = 400  # recursion guard; each cofactor drops two or more inputs


class VerifyResult(NamedTuple):
    """Outcome of ``verify``: ``checked`` assignments were compared, all of
    them when ``exhaustive``, else a fixed sample."""

    equivalent: bool
    witness: tuple[int, ...] | None = None
    exhaustive: bool = True
    checked: int = 0

    def __bool__(self) -> bool:
        return self.equivalent


# ---------------------------------------------------------------------------
# factoring a symmetric core


def _prune_contained(cubes: Sequence[tuple[int, int, int]]) -> tuple[tuple[int, int, int], ...]:
    """Drop cubes contained in another cube (single-cube containment only).

    Cubes are ``(ones, zeros, position)``; a cube contains another when its
    ``1`` and ``0`` columns are subsets of the other's.  The first of equal
    cubes is kept, and a cube that contains kept ones replaces them at the end.
    """
    kept: list[tuple[int, int, int]] = []
    for cube in cubes:
        ones, zeros, _ = cube
        if any(k1 & ones == k1 and k0 & zeros == k0 for k1, k0, _ in kept):
            continue
        kept = [k for k in kept if not (ones & k[0] == ones and zeros & k[1] == zeros)]
        kept.append(cube)
    return tuple(kept)


def factor_core(core: cores_mod.Core) -> list[tuple[FullRankSet, Cover]]:
    """Rank-cut factorization of a symmetric core: one term per distinct cofactor.

    Each term pairs the full symmetric function over Z of the ranks sharing
    a cofactor with that cofactor over Y = X - Z, in order of lowest rank.
    The rank-r cofactor is read from the core's own cubes where the first r
    inputs of Z are phased 1 (raw ``0`` on an inverted input): a cube
    belongs when it has no ``1`` where the assignment is 0 and no ``0`` where
    it is 1.  Each cofactor is projected onto the inputs of Y that its kept
    cubes read, so it reads every one of its inputs (a tautology cofactor
    reads none and is the one empty cube).  The reconstruction Core = sum of
    G * H is asserted exactly; the sum is symmetric over the phased Z, so
    this also proves the core symmetric.
    """
    cover = core.base
    masks = assignment_masks(cover.n)  # refuses a core over the cap before any work
    full = full_mask(cover.n)
    z, z_mask, flips = core.sym_inputs, core.z, core.flips
    y_mask = (1 << cover.n) - 1 ^ z_mask
    indices = core.cube_indices
    cubes = [cover.bit_cubes[i] for i in indices]

    # each distinct cofactor, as (ones, zeros) over Y: its kept cubes and its ranks
    groups: dict[tuple, tuple[tuple, list[int]]] = {}
    phased_one = 0  # the inputs of Z phased 1 at rank r
    for r in range(len(z) + 1):
        if r:
            phased_one |= 1 << z[r - 1]
        raw_one = phased_one ^ flips
        raw_zero = z_mask ^ raw_one
        residual = [
            (ones & y_mask, zeros & y_mask, i)
            for i, (ones, zeros) in zip(indices, cubes)
            if not (ones & raw_zero or zeros & raw_one)
        ]
        if residual:
            kept = _prune_contained(residual)
            groups.setdefault(tuple(k[:2] for k in kept), (kept, []))[1].append(r)

    z_masks = [masks[j] ^ full if flips >> j & 1 else masks[j] for j in z]
    z_classes = popcount_class_masks(z_masks, full)
    terms = []
    acc = 0
    for kept, ranks in groups.values():
        read = 0
        for ones, zeros, _ in kept:
            read |= ones | zeros
        y = set_bits(read)
        h = project(cover, [i for _, _, i in kept], y)
        terms.append((FullRankSet(len(z), frozenset(ranks)), h))
        g_mask = sum(z_classes[r] for r in ranks)  # rank classes are disjoint
        acc |= g_mask & cover_mask(h.bit_cubes, [masks[j] for j in y], full)
    if acc != cover_mask(cubes, masks, full):
        raise DecompositionError(
            f"core cube set is not symmetric over inputs {tuple(z)}: "
            "rank-cut factors do not reconstruct it"
        )
    return terms


# ---------------------------------------------------------------------------
# the recursive engine


def decompose(cover: Cover) -> Netlist:
    """Decompose a cover into an equivalent symmetric network.

    1. decompose the cover into terms with the engine, which splits it, and
       every cofactor below it, into parts of equal don't-care count,
    2. OR the terms once.

    An empty cover is the one node ``CONST 0`` and never reaches the engine;
    a cover holding a cube of don't-cares only is the one node ``CONST 1``.
    """
    builder = NetlistBuilder(cover.input_names)
    refs = {name: builder.input(j) for j, name in enumerate(cover.input_names)}
    terms = _decompose_rec(builder, cover, refs, 0) if cover.m else []
    return builder.finish(builder.or_(terms))


def _product_leaf(builder: NetlistBuilder, cube: Cube, ops: list[Ref]) -> Ref:
    """The one SYM node of a cube that reads every input, given as ``ops``: the
    node the core search and rank cut build for it (see the module docstring)."""
    ones, zeros = cube
    n1, n0 = ones.bit_count(), zeros.bit_count()
    high = n1 > n0 or (n1 == n0 and ones >> 1 & 1)  # a tie keeps the phase of local input 1
    flipped = zeros if high else ones
    phased = [builder.inv(ref) if flipped >> j & 1 else ref for j, ref in enumerate(ops)]
    return builder.sym((len(ops) if high else 0,), phased)


def _decompose_rec(
    builder: NetlistBuilder, cover: Cover, refs: dict[str, Ref], depth: int
) -> list[Ref]:
    """Decompose a cover pass by pass into the terms of every pass and the leaf,
    whose OR is its function; ``refs`` maps every input name to its input ref.

    The cover is never empty: ``decompose`` maps the empty cover to const 0
    itself, ``dc_partition`` yields only non-empty parts, a cofactor holds at
    least one kept cube, and a pass returns before an empty remainder."""
    if depth > _DEPTH_LIMIT:
        raise DecompositionError(f"recursion guard exceeded ({_DEPTH_LIMIT})")
    if (0, 0) in cover.bit_cubes:  # a cube of don't-cares only
        return [builder.const(1)]
    if len({(ones | zeros).bit_count() for ones, zeros in cover.bit_cubes}) > 1:
        parts = cores_mod.dc_partition(cover)
        return [t for part in parts for t in _decompose_rec(builder, part, refs, depth)]

    terms: list[Ref] = []  # no remainder holds a cube of don't-cares only
    while True:
        cover = restrict(cover)
        ops = [refs[name] for name in cover.input_names]

        if len(set(cover.bit_cubes)) == 1:
            return [*terms, _product_leaf(builder, cover.bit_cubes[0], ops)]

        # every function of one input is symmetric: sym() returns the input,
        # its inverter or const(1)
        ranks = fullrank_set_if_symmetric(cover_to_minterms(cover))
        if ranks is not None:
            return [*terms, builder.sym(ranks.ranks, ops)]

        # cover.n >= 2 here, so some pair core holds a cube (see the module docstring)
        if cover.m == 2:
            core = cores_mod.two_cube_core(cover)
        else:
            core = cores_mod.best_core(cores_mod.CoreSearch(cover))
        if core is None or not core.cubes:
            raise DecompositionError("no pair core holds a cube of this cover")

        z_ops = [builder.inv(ops[j]) if core.flips >> j & 1 else ops[j] for j in core.sym_inputs]

        # one G*H term per distinct cofactor; a G of every rank is constant 1,
        # so its term is the cofactor's own terms, and a tautology cofactor
        # decomposes to const(1), which and_disjoint drops
        for g, h in factor_core(core):
            if len(g.ranks) == g.n + 1:
                terms += _decompose_rec(builder, h, refs, depth + 1)
                continue
            g_ref = builder.sym(g.ranks, z_ops)  # G before H: the pinned netlists fix that order
            h_ref = builder.or_(_decompose_rec(builder, h, refs, depth + 1))
            terms.append(builder.and_disjoint([g_ref, h_ref]))

        remainder = [i for i in range(cover.m) if not core.cubes >> i & 1]
        if not remainder:
            return terms
        cover = subcover(cover, remainder)


# ---------------------------------------------------------------------------
# equivalence checking


_BLOCK = 16  # free inputs per block
_SAMPLE_BLOCKS = 16  # distinct blocks drawn beyond the expansion cap


def verify(nl: Netlist, cover: Cover) -> VerifyResult:
    """Compare a netlist against a cover on every assignment up to the expansion cap.

    The inputs past the first 16 are frozen block by block, and each
    subspace of the first ``min(n, 16)`` inputs is compared as one truth
    table, so up to 16 inputs there is a single block with no input fixed.
    Up to ``DEFAULT_EXPANSION_CAP`` inputs all ``2**(n - 16)`` blocks run in
    ascending order of the fixed inputs, so a mismatch returns the lowest
    assignment on which the two sides differ as the witness, and
    ``checked`` counts the assignments of the blocks compared.  Beyond the
    cap a fixed sample of 16 distinct blocks is compared, drawn by
    ``random.Random(0)`` (2**20 assignments, not exhaustive, the same for
    every call).
    """
    if nl.input_names != cover.input_names:
        raise ValueError(
            f"netlist inputs ({', '.join(nl.input_names)}) differ from"
            f" the cover's ({', '.join(cover.input_names)})"
        )
    n = cover.n
    free = min(n, _BLOCK)
    high = n - free
    exhaustive = n <= DEFAULT_EXPANSION_CAP
    if exhaustive:
        blocks: Sequence[int] = range(1 << high)
    else:
        rng = random.Random(0)
        drawn: dict[int, None] = {}
        while len(drawn) < _SAMPLE_BLOCKS:
            drawn[rng.getrandbits(high)] = None
        blocks = list(drawn)
    base_masks = assignment_masks(free)
    full = full_mask(free)
    for k, block in enumerate(blocks, 1):
        fixed = tuple((block >> i) & 1 for i in range(high))
        in_masks = list(base_masks) + [full if b else 0 for b in fixed]
        diff = cover_mask(cover.bit_cubes, in_masks, full) ^ netlist_mask(nl, in_masks, full)
        if diff:
            idx = (diff & -diff).bit_length() - 1
            witness = tuple((idx >> i) & 1 for i in range(free)) + fixed
            return VerifyResult(False, witness, exhaustive, k << free)
    return VerifyResult(True, None, exhaustive, len(blocks) << free)
