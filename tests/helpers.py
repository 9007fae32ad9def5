"""Independent oracles and generators shared by the test suite.

The oracles here deliberately use different machinery from the library
(string prefixes and frozensets instead of big-integer masks) so that
agreement is meaningful.
"""

from __future__ import annotations

import random
from itertools import product
from pathlib import Path

from gridsyn import Cover, MintermSet

DEMO_PLAS = Path(__file__).resolve().parent.parent / "demos" / "pla"


def ms(*strings: str, n: int | None = None) -> MintermSet:
    return MintermSet.from_strings(strings, n=n)


def cover_of(names, *cubes: str) -> Cover:
    return Cover(tuple(names), tuple(cubes))


def minterm_cover(s: MintermSet, names=None) -> Cover:
    from gridsyn import minterms_to_cover

    return minterms_to_cover(s, names)


def random_cover(rng: random.Random, n: int, m: int, dc_bias: float = 0.4) -> Cover:
    cubes = []
    for _ in range(m):
        cube = "".join(
            "-" if rng.random() < dc_bias else rng.choice("01") for _ in range(n)
        )
        cubes.append(cube)
    return Cover(tuple(f"x{i}" for i in range(n)), tuple(cubes))


# ---------------------------------------------------------------------------
# grid DAG oracle: classify prefixes of the word strings directly


def words_of(s: MintermSet, order=None, inverted=()) -> set[str]:
    """Reordered, rephased minterm words as 0/1 strings (first input first)."""
    n = s.n
    order = tuple(order) if order is not None else tuple(range(n))
    flip = set(inverted)
    out = set()
    for v in s.members():
        chars = []
        for t in range(n):
            bit = (v >> order[t]) & 1
            if order[t] in flip:
                bit ^= 1
            chars.append("1" if bit else "0")
        out.add("".join(chars))
    return out


def oracle_metrics(words: set[str], n: int) -> tuple[int, int]:
    """(N, L) from the definition: prefix classes keyed by (depth, rank, suffixes)."""
    if not words:
        return (0, 0)
    classes: dict[tuple[int, int, frozenset[str]], None] = {}
    links = set()

    def key_of(prefix: str) -> tuple[int, int, frozenset[str]]:
        suff = frozenset(w[len(prefix):] for w in words if w.startswith(prefix))
        return (len(prefix), prefix.count("1"), suff)

    prefixes = {w[:d] for w in words for d in range(n + 1)}
    for p in prefixes:
        k = key_of(p)
        classes[k] = None
        for c in "01":
            if any(w.startswith(p + c) for w in words):
                links.add((k, c))
    return (len(classes) - 1, len(links))


def oracle_planar(words: set[str], n: int) -> bool:
    """Planarity from the definition: no two prefix classes share a grid point."""
    classes = {
        (len(p), p.count("1"), frozenset(w[len(p):] for w in words if w.startswith(p)))
        for p in {w[:d] for w in words for d in range(n + 1)}
    }
    return len({key[:2] for key in classes}) == len(classes)


def oracle_accepts(words: set[str], n: int) -> set[str]:
    return set(words)


def all_assignments(n: int):
    return product((0, 1), repeat=n)


def random_cover_with_duplicates(rng: random.Random, n: int, m: int) -> Cover:
    """A random cover in which some cubes repeat at random positions."""
    cubes = list(random_cover(rng, n, m).cubes)
    for _ in range(rng.randint(0, m // 2)):
        cubes.insert(rng.randrange(len(cubes) + 1), rng.choice(cubes))
    return Cover(tuple(f"x{i}" for i in range(n)), tuple(cubes))


# ---------------------------------------------------------------------------
# symmetric-core oracle: closure by breadth-first search over cube strings


def phase_cube(cube: str, inverted) -> str:
    flip = {"0": "1", "1": "0", "-": "-"}
    return "".join(flip[ch] if j in inverted else ch for j, ch in enumerate(cube))


def _swap_cols(cube: str, i: int, j: int) -> str:
    chars = list(cube)
    chars[i], chars[j] = chars[j], chars[i]
    return "".join(chars)


def _orbit(cube: str, gens) -> set[str]:
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


def oracle_closed_subset(cubes: set[str], gens) -> set[str]:
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
