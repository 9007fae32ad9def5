"""Recursive decomposition of a cover into a network of symmetric components.

One round of the engine on a cover F over inputs X:

1. score every input pair in both polarities (pair cores),
2. widen the best-scoring cores greedily and pick the overall best core,
   a phased cube subset symmetric over some Z subset of X,
3. split the core along the rank cut: Core = sum over r of G_r(Z) * H_r(Y)
   where G_r is the full rank-r symmetric function of Z and H_r the
   cofactor of the core under any rank-r assignment to Z (they all agree
   because the core is symmetric over Z),
4. recurse on each cofactor H_r,
5. recurse on the remainder (the cubes left out of the core) and OR the
   two networks together.

Recursion bottoms out at constants, single literals, and covers whose
minterm set is already a union of full ranks (emitted as one SYM node).
When no input pair supports even a one-cube core, a Shannon split on the
cheapest input guarantees progress.  Every step strictly reduces either the
cube count or the input count, so the engine terminates; a depth guard
backs that argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from . import cores as cores_mod
from .cubes import (
    CapacityError,
    Cover,
    DEFAULT_EXPANSION_CAP,
    MintermSet,
    assignment_masks,
    cover_mask,
    cover_to_minterms,
    full_mask,
    popcount_class_masks,
    transform_mask,
)
from .netlist import Netlist, NetlistBuilder, Ref, evaluate_netlist, netlist_mask
from .spectra import FullRankSet, fullrank_set_if_symmetric

__all__ = [
    "DecomposeOptions",
    "DecompositionError",
    "VerifyResult",
    "decompose",
    "factor_core",
    "verify",
    "evaluate_netlist",
]


class DecompositionError(RuntimeError):
    """Internal invariant violation or exceeded recursion guard."""


@dataclass(frozen=True)
class DecomposeOptions:
    dc_partition: bool = False
    core_size_metric: str = "cubes"
    max_depth: int = 400


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of ``verify``: ``checked`` assignments were compared, all of
    them when ``exhaustive``, else a seeded sample."""

    equivalent: bool
    witness: tuple[int, ...] | None = None
    exhaustive: bool = True
    checked: int = 0

    def __bool__(self) -> bool:
        return self.equivalent


# ---------------------------------------------------------------------------
# factoring a symmetric core


def _prune_contained(cubes: Sequence[str]) -> tuple[str, ...]:
    """Drop cubes contained in another cube (single-cube containment only)."""

    def contains(big: str, small: str) -> bool:
        return all(b == "-" or b == s for b, s in zip(big, small))

    kept: list[str] = []
    for cube in cubes:
        if any(contains(k, cube) for k in kept):
            continue
        kept = [k for k in kept if not contains(cube, k)] + [cube]
    return tuple(kept)


def _assert_symmetric(phased: MintermSet, z: Sequence[int]) -> None:
    """Exact symmetry check: invariance under each adjacent transposition of Z."""
    n = phased.n
    for i, j in zip(z, z[1:]):
        swap = list(range(n))
        swap[i], swap[j] = j, i
        if transform_mask(phased.bits, n, swap) != phased.bits:
            raise DecompositionError(
                f"core cube set is not symmetric over inputs {tuple(z)}"
            )


def factor_core(core: cores_mod.Core) -> list[tuple[int, FullRankSet, Cover]]:
    """Rank-cut factorization of a symmetric core.

    Returns one term per occupied rank r of Z: the full rank-r symmetric
    function over Z paired with the cofactor cover over Y = X - Z.  The
    reconstruction Core = sum of G_r * H_r is asserted exactly.
    """
    cover = core.base
    z = core.sym_inputs
    y = tuple(j for j in range(cover.n) if j not in set(z))
    phased_cubes = core.phased_cubes()
    phased_cover = Cover(cover.input_names, phased_cubes)
    phased_set = cover_to_minterms(phased_cover)
    _assert_symmetric(phased_set, z)

    terms: list[tuple[int, FullRankSet, Cover]] = []
    y_names = tuple(cover.input_names[j] for j in y)
    for r in range(len(z) + 1):
        rep = {zj: ("1" if t < r else "0") for t, zj in enumerate(z)}
        residual: list[str] = []
        for cube in phased_cubes:
            if any(cube[j] != "-" and cube[j] != rep[j] for j in z):
                continue
            residual.append("".join(cube[j] for j in y))
        if not residual:
            continue
        h = Cover(y_names, _prune_contained(residual))
        terms.append((r, FullRankSet(len(z), frozenset((r,))), h))

    _assert_reconstruction(phased_set, terms, z, y, cover.n)
    return terms


def _assert_reconstruction(
    phased_set: MintermSet,
    terms: Sequence[tuple[int, FullRankSet, Cover]],
    z: Sequence[int],
    y: Sequence[int],
    n: int,
) -> None:
    masks = assignment_masks(n)
    full = full_mask(n)
    z_classes = popcount_class_masks([masks[j] for j in z], full)
    acc = 0
    for r, _, h in terms:
        h_mask = cover_mask(h, [masks[j] for j in y], full)
        acc |= z_classes[r] & h_mask
    if acc != phased_set.bits:
        raise DecompositionError("rank-cut factors do not reconstruct the core")


# ---------------------------------------------------------------------------
# the recursive engine


def decompose(cover: Cover, options: DecomposeOptions | None = None) -> Netlist:
    """Decompose a cover into a verified-equivalent symmetric network."""
    opts = options or DecomposeOptions()
    builder = NetlistBuilder(cover.input_names)
    all_inputs = tuple(range(cover.n))
    if opts.dc_partition:
        parts = cores_mod.dc_partition(cover)
        refs = [
            _decompose_rec(builder, part.cubes, all_inputs, cover, opts, 0)
            for part in parts
        ]
        out = builder.or_(refs) if refs else builder.const(0)
        nl = builder.finish(out)
        check = verify(nl, cover)
        if not check:
            raise DecompositionError(
                f"don't-care partition broke equivalence at {check.witness}"
            )
        return nl
    out = _decompose_rec(builder, cover.cubes, all_inputs, cover, opts, 0)
    return builder.finish(out)


def _decompose_rec(
    builder: NetlistBuilder,
    cubes: Sequence[str],
    inputs: tuple[int, ...],
    root: Cover,
    opts: DecomposeOptions,
    depth: int,
) -> Ref:
    """Decompose a cube list over the given global inputs; returns its output ref."""
    if depth > opts.max_depth:
        raise DecompositionError(f"recursion guard exceeded ({opts.max_depth})")
    if not cubes:
        return builder.const(0)
    if any(set(cube) <= {"-"} for cube in cubes):
        return builder.const(1)

    # restrict to the support
    cols = [j for j in range(len(inputs)) if any(cube[j] != "-" for cube in cubes)]
    if len(cols) != len(inputs):
        inputs = tuple(inputs[j] for j in cols)
        cubes = tuple("".join(cube[j] for j in cols) for cube in cubes)
        seen = set()
        deduped = []
        for cube in cubes:
            if cube not in seen:
                seen.add(cube)
                deduped.append(cube)
        cubes = tuple(deduped)

    k = len(inputs)
    if k == 0:
        return builder.const(1)
    if k == 1:
        has1 = any(cube[0] in "1-" for cube in cubes)
        has0 = any(cube[0] in "0-" for cube in cubes)
        if has1 and has0:
            return builder.const(1)
        ref = builder.input(inputs[0])
        return ref if has1 else builder.inv(ref)
    if k > DEFAULT_EXPANSION_CAP:
        raise CapacityError(f"decomposition capped at {DEFAULT_EXPANSION_CAP} live inputs")

    names = tuple(root.input_names[i] for i in inputs)
    local = Cover(names, tuple(cubes))
    minterms = cover_to_minterms(local)

    ranks = fullrank_set_if_symmetric(minterms)
    if ranks is not None:
        return builder.sym(ranks.ranks, [builder.input(i) for i in inputs])

    core = cores_mod.best_core(local, opts.core_size_metric)
    if core is None or not core.cube_indices:
        return _shannon_split(builder, cubes, inputs, root, opts, depth)

    terms = factor_core(core)
    z_ops = []
    for local_idx in core.sym_inputs:
        ref = builder.input(inputs[local_idx])
        if local_idx in core.inverted:
            ref = builder.inv(ref)
        z_ops.append(ref)

    def is_tautology(h: Cover) -> bool:
        return any(set(cube) <= {"-"} for cube in h.cubes)

    # Ranks sharing a cofactor merge into one symmetric factor:
    # G_r1*H + G_r2*H = SYM[{r1,r2}]*H.
    groups: dict[tuple[str, ...], list[int]] = {}
    group_cover: dict[tuple[str, ...], Cover] = {}
    for r, _, h in terms:
        groups.setdefault(h.cubes, []).append(r)
        group_cover[h.cubes] = h
    term_refs = []
    y_globals = tuple(inputs[j] for j in range(k) if j not in set(core.sym_inputs))
    for key, ranks_group in sorted(groups.items(), key=lambda kv: min(kv[1])):
        g_ref = builder.sym(ranks_group, z_ops)
        h = group_cover[key]
        if is_tautology(h):
            term_refs.append(g_ref)
        else:
            h_ref = _decompose_rec(builder, h.cubes, y_globals, root, opts, depth + 1)
            term_refs.append(builder.and_disjoint([g_ref, h_ref]))
    core_ref = builder.or_(term_refs)

    selected = set(core.cube_indices)
    remainder = tuple(cube for i, cube in enumerate(cubes) if i not in selected)
    if not remainder:
        return core_ref
    rem_ref = _decompose_rec(builder, remainder, inputs, root, opts, depth + 1)
    return builder.or_([core_ref, rem_ref])


def _shannon_split(
    builder: NetlistBuilder,
    cubes: Sequence[str],
    inputs: tuple[int, ...],
    root: Cover,
    opts: DecomposeOptions,
    depth: int,
) -> Ref:
    """Cofactor on the input minimizing total cofactor cube count."""
    k = len(inputs)
    best = None
    for j in range(k):
        c1 = sum(1 for cube in cubes if cube[j] != "0")
        c0 = sum(1 for cube in cubes if cube[j] != "1")
        if best is None or c1 + c0 < best[0]:
            best = (c1 + c0, j)
    j = best[1]
    rest = tuple(i for t, i in enumerate(inputs) if t != j)

    def cofactor(keep_char: str) -> tuple[str, ...]:
        out = []
        for cube in cubes:
            if cube[j] == "-" or cube[j] == keep_char:
                out.append(cube[:j] + cube[j + 1 :])
        return tuple(out)

    x = builder.input(inputs[j])
    hi = _decompose_rec(builder, cofactor("1"), rest, root, opts, depth + 1)
    lo = _decompose_rec(builder, cofactor("0"), rest, root, opts, depth + 1)
    return builder.or_(
        [builder.and_disjoint([x, hi]), builder.and_disjoint([builder.inv(x), lo])]
    )


# ---------------------------------------------------------------------------
# equivalence checking


_EXHAUSTIVE_LIMIT = 20  # one truth table up to 2**20 assignments
_BLOCK = 16  # free inputs per block above that
_SAMPLE_BLOCKS = 16  # distinct seeded blocks beyond the expansion cap


def verify(nl: Netlist, cover: Cover, seed: int = 0) -> VerifyResult:
    """Compare a netlist against a cover on every assignment up to the expansion cap.

    Up to 2**20 assignments both sides are compared as one truth table, a
    single block with no input fixed.  Above that the inputs past the first
    16 are frozen block by block and each 16-input subspace is compared as
    one truth table: all ``2**(n - 16)`` blocks up to
    ``DEFAULT_EXPANSION_CAP`` inputs, and 16 distinct blocks drawn with
    ``seed`` (2**20 sampled assignments, not exhaustive) beyond it.  On a
    mismatch the witness assignment is returned.
    """
    if nl.input_names != cover.input_names:
        raise ValueError("netlist and cover have different input sets")
    n = cover.n
    free = n if n <= _EXHAUSTIVE_LIMIT else _BLOCK
    high = n - free
    exhaustive = n <= DEFAULT_EXPANSION_CAP
    if exhaustive:
        blocks: Sequence[int] = range(1 << high)
    else:
        rng = random.Random(seed)
        drawn: dict[int, None] = {}
        while len(drawn) < _SAMPLE_BLOCKS:
            drawn[rng.getrandbits(high)] = None
        blocks = list(drawn)
    base_masks = assignment_masks(free)
    full = full_mask(free)
    for k, block in enumerate(blocks, 1):
        fixed = tuple((block >> i) & 1 for i in range(high))
        in_masks = list(base_masks) + [full if b else 0 for b in fixed]
        diff = cover_mask(cover, in_masks, full) ^ netlist_mask(nl, in_masks, full)
        if diff:
            idx = (diff & -diff).bit_length() - 1
            witness = tuple((idx >> i) & 1 for i in range(free)) + fixed
            return VerifyResult(False, witness, exhaustive, k << free)
    return VerifyResult(True, None, exhaustive, len(blocks) << free)
