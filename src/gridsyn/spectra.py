"""Rank spectra and fully symmetric functions.

The rank of a minterm is its popcount.  The rank spectrum of a function is
the vector of minterm counts per rank, an order-independent signature: it is
unchanged by any permutation of the inputs.  A function is totally symmetric
exactly when every rank is either full (all ``C(n, r)`` minterms present) or
empty, so a symmetric function is determined by its set of full ranks.
"""

from __future__ import annotations

import functools
from math import comb
from typing import Iterable, NamedTuple

from .cubes import (
    DEFAULT_EXPANSION_CAP,
    MintermSet,
    assignment_masks,
    full_mask,
    popcount_class_masks,
)

RankSpectrum = tuple[int, ...]


class _FullRankSetFields(NamedTuple):
    n: int
    ranks: frozenset[int]


class FullRankSet(_FullRankSetFields):
    """The set of full ranks of a totally symmetric function of ``n`` inputs."""

    __slots__ = ()

    def __new__(cls, n: int, ranks: Iterable[int]) -> FullRankSet:
        ranks = frozenset(ranks)
        if n < 0:
            raise ValueError("negative input count")
        if not ranks.issubset(range(n + 1)):
            raise ValueError(f"ranks must lie in [0, {n}]")
        return tuple.__new__(cls, (n, ranks))

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> FullRankSet:
        return cls(*iterable)


def spectrum_of(s: MintermSet) -> RankSpectrum:
    """Minterm counts per rank, indices 0..n.

    Up to ``DEFAULT_EXPANSION_CAP`` inputs each count is one popcount of the
    set under a rank mask; above it the members are counted one at a time.
    """
    if s.n <= DEFAULT_EXPANSION_CAP:
        return tuple((s.bits & m).bit_count() for m in rank_index_masks(s.n))
    counts = [0] * (s.n + 1)
    for v in s.members():
        counts[v.bit_count()] += 1
    return tuple(counts)


def convolve(g: RankSpectrum, h: RankSpectrum) -> RankSpectrum:
    """Spectrum of a product of functions over disjoint input sets.

    Plain discrete convolution (longhand multiplication without carry); the
    result spans ``(len(g)-1) + (len(h)-1) + 1`` ranks.
    """
    if not g or not h:
        raise ValueError("spectra must have at least one entry")
    out = [0] * (len(g) + len(h) - 1)
    for i, gi in enumerate(g):
        if not gi:
            continue
        for j, hj in enumerate(h):
            out[i + j] += gi * hj
    return tuple(out)


def format_spectrum(sp: Iterable[int]) -> str:
    return "[" + ",".join(str(c) for c in sp) + "]"


def fullrank_set_if_symmetric(s: MintermSet) -> FullRankSet | None:
    """Full-rank set when every rank is full or empty, else None.

    This test is exact: a function is totally symmetric iff its minterm set
    is a union of full ranks.
    """
    sp = spectrum_of(s)
    ranks = set()
    for r, count in enumerate(sp):
        if count == 0:
            continue
        if count != comb(s.n, r):
            return None
        ranks.add(r)
    return FullRankSet(s.n, frozenset(ranks))


@functools.lru_cache(maxsize=None)
def rank_index_masks(n: int) -> tuple[int, ...]:
    """Truth-table mask of each rank class: ``masks[r]`` covers popcount-r indices."""
    return tuple(popcount_class_masks(assignment_masks(n), full_mask(n)))

