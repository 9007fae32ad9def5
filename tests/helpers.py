"""Independent oracles and generators shared by the test suite.

The oracles here deliberately use different machinery from the library
(string prefixes and frozensets instead of big-integer masks) so that
agreement is meaningful.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product
from math import comb
from pathlib import Path

from gridsyn import (
    Cover,
    MintermSet,
    PhaseVector,
    build_grid_dag,
    metrics,
)
from gridsyn.cores import Core, CoreSearch, _selection_key, best_pair_cores
from gridsyn.gridplot import EXHAUSTIVE_LAYOUT_CAP, LayoutResult, PlotMetrics
from gridsyn.netlist import KIND_AND, KIND_CONST, KIND_INV, KIND_OR, KIND_SYM

DEMO_PLAS = Path(__file__).resolve().parent.parent / "demos" / "pla"


def ms(*strings: str, n: int | None = None) -> MintermSet:
    return MintermSet.from_strings(strings, n=n)


def cover_of(names, *cubes: str) -> Cover:
    return Cover(tuple(names), tuple(cubes))


def word(v: int, n: int) -> str:
    """Assignment ``v`` as a 0/1 string, input 0 first."""
    return "".join("1" if v >> j & 1 else "0" for j in range(n))


def minterms_to_cover(s: MintermSet, names=None) -> Cover:
    """One full cube per minterm, in ascending index order."""
    names = tuple(names) if names is not None else tuple(f"x{i}" for i in range(s.n))
    return Cover(names, tuple(word(v, s.n) for v in range(1 << s.n) if v in s))


def sf_minterms(f) -> MintermSet:
    """All minterms of ``f.n`` inputs whose count of ones lies in ``f.ranks``."""
    words = [word(v, f.n) for v in range(1 << f.n)]
    return MintermSet.from_strings([w for w in words if w.count("1") in f.ranks], n=f.n)


def eval_cover(cover: Cover, assignment) -> int:
    """1 iff some cube matches the assignment (don't-care matches both)."""
    assert len(assignment) == cover.n
    for cube in cover.cubes:
        if all(ch == "-" or (ch == "1") == bool(v) for ch, v in zip(cube, assignment)):
            return 1
    return 0


def phase_cover(cover: Cover, inverted) -> Cover:
    """Swap ``0`` and ``1`` in every column whose input is inverted."""
    return Cover(cover.input_names, tuple(phase_cube(cube, set(inverted)) for cube in cover.cubes))


def permute_cover(cover: Cover, perm) -> Cover:
    """Reorder columns and names so that new column ``j`` is old column ``perm[j]``."""
    names = tuple(cover.input_names[k] for k in perm)
    return Cover(names, tuple("".join(cube[k] for k in perm) for cube in cover.cubes))


# ---------------------------------------------------------------------------
# netlist oracles: one assignment, one node at a time


def evaluate_netlist(nl, assignment) -> int:
    """Bottom-up evaluation on one complete input assignment."""
    assert len(assignment) == nl.n
    values: list[int] = []

    def val(ref) -> int:
        return int(bool(assignment[ref.index])) if ref.kind == "input" else values[ref.index]

    for node in nl.nodes:
        ops = [val(op) for op in node.operands]
        if node.kind == KIND_CONST:
            values.append(node.value)
        elif node.kind == KIND_INV:
            values.append(1 - ops[0])
        elif node.kind == KIND_AND:
            values.append(int(all(ops)))
        elif node.kind == KIND_OR:
            values.append(int(any(ops)))
        else:
            assert node.kind == KIND_SYM
            values.append(int(sum(ops) in node.ranks))
    return val(nl.output)


def supports(nl) -> list[frozenset[int]]:
    """Input support of every node, in node order."""
    out: list[frozenset[int]] = []
    for node in nl.nodes:
        out.append(frozenset().union(
            *({op.index} if op.kind == "input" else out[op.index] for op in node.operands)
        ))
    return out


def phased_inputs(nl) -> frozenset[int]:
    """Inputs that feed an inverter."""
    return frozenset(
        node.operands[0].index
        for node in nl.nodes
        if node.kind == KIND_INV and node.operands[0].kind == "input"
    )


def sf_impl_value(impl, ones: int) -> int:
    """A threshold-pair form on a given input popcount: 1 iff some term's interval holds it."""
    return int(any(
        (lower is None or ones >= lower) and (upper is None or ones < upper)
        for lower, upper in impl.terms
    ))


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


def oracle_classes(words: set[str], n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``GridDag.classes`` from the definition: per depth, the sorted distinct
    (rank, suffix mask) of every prefix, with the origin kept for the empty set."""
    levels = []
    for d in range(n + 1):
        prefixes = {w[:d] for w in words} | ({""} if d == 0 else set())
        levels.append(tuple(sorted({
            (p.count("1"), sum(1 << int(w[d:] or "0", 2) for w in words if w.startswith(p)))
            for p in prefixes
        })))
    return tuple(levels)


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


def random_cube_pair(rng: random.Random, n: int) -> Cover:
    """Two cubes over n inputs, the second a copy of the first with 1 to n
    symbols redrawn, so that near cubes and swap partners are common."""
    dc = rng.random()
    first = ["-" if rng.random() < dc else rng.choice("01") for _ in range(n)]
    second = list(first)
    for j in rng.sample(range(n), rng.randint(1, n)):
        second[j] = rng.choice("01-")
    return Cover(tuple(f"x{i}" for i in range(n)), ("".join(first), "".join(second)))


def threshold_products(rng: random.Random, n: int) -> Cover:
    """An OR of products of two threshold blocks on disjoint, randomly phased inputs.

    The shuffled inputs are dealt out a product at a time while two are
    left: two blocks of two to four inputs each, or fewer when fewer are
    left; an input left over is unused.  A block of k inputs is a
    majority: it holds when t of its literals hold, for t half of k rounded
    up or, for even k, either that or one more.  It is the OR of its
    t-literal products, each input read plain or complemented, and a
    product of two blocks pairs every cube of one with every cube of the
    other.  The cubes are listed in random order.
    """
    inputs = list(range(n))
    rng.shuffle(inputs)

    def block(size: int) -> list[dict[int, str]]:
        members = [inputs.pop() for _ in range(size)]
        symbol = {x: rng.choice("01") for x in members}
        t = rng.choice(((size + 1) // 2, size // 2 + 1))
        return [{x: symbol[x] for x in chosen} for chosen in combinations(members, t)]

    cubes = []
    while len(inputs) >= 2:
        left = block(rng.randint(min(2, len(inputs) - 1), min(4, len(inputs) - 1)))
        right = block(rng.randint(min(2, len(inputs)), min(4, len(inputs))))
        for x in left:
            for y in right:
                literals = {**x, **y}
                cubes.append("".join(literals.get(i, "-") for i in range(n)))
    rng.shuffle(cubes)
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


def swap_image(cube: str, a: int, b: int, flipped: int) -> str:
    """The cube with columns a and b exchanged, and complemented too when ``flipped``."""
    return _swap_cols(phase_cube(cube, {a, b} if flipped else set()), a, b)


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


def pair_seed(cover: Cover, a: int, b: int, invert_a: bool = False) -> Core:
    """The pair core of (a, b): the cubes whose phased swap orbit lies in the cover."""
    phased = [phase_cube(cube, {a} if invert_a else set()) for cube in cover.cubes]
    closed = oracle_closed_subset(set(phased), [(a, b)])
    cubes = sum(1 << i for i, cube in enumerate(phased) if cube in closed)
    return Core(cover, cubes, 1 << a | 1 << b, invert_a << a)


def _closed(cubes, mask: int, z: int, flips: int) -> int:
    """The positions in ``mask`` whose cube lies in a class closed under every permutation of Z.

    The reference closure, by counting.  ``cubes`` are ``Cover.bit_cubes``,
    ``mask`` and the result position masks, ``z`` and ``flips`` input bit
    masks.  The orbit of a cube under the permutations of Z is every cube
    with the same part outside Z and the same counts of 1 and 0 on Z after
    the flips, so a class is keyed by those and is closed when it holds all
    ``C(w, c1) * C(w - c1, c0)`` distinct cubes of its key (``w = |Z|``).
    """
    w = z.bit_count()
    out, keep, swap = ~z, z & ~flips, z & flips
    count: dict[tuple[int, int, int, int], set] = {}
    members: dict[tuple[int, int, int, int], int] = {}
    for i in range(mask.bit_length()):
        if mask >> i & 1:
            ones, zeros = cubes[i]
            c1 = (ones & keep | zeros & swap).bit_count()
            c0 = (zeros & keep | ones & swap).bit_count()
            key = (ones & out, zeros & out, c1, c0)
            count.setdefault(key, set()).add(cubes[i])
            members[key] = members.get(key, 0) | 1 << i
    closed = 0
    for key, distinct in count.items():
        if len(distinct) == comb(w, key[2]) * comb(w - key[2], key[3]):
            closed |= members[key]
    return closed


# ---------------------------------------------------------------------------
# core-search reference: the widening loop without bound or memos


def positions(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def reference_expand_core(seed, cover: Cover):
    """``expand_core`` without the pair-core bound or shared memos: every candidate is closed."""
    cubes = cover.bit_cubes
    z, flips, indices = seed.z, seed.flips, positions(seed.cubes)
    size = len(indices)
    score = size * z.bit_count() ** 2

    while True:
        best = None  # (score, size, z, flips, indices)
        width = z.bit_count() + 1
        trials = (
            (z | 1 << x, cand_flips)
            for x in range(cover.n)
            if not z >> x & 1
            for cand_flips in (flips, flips | 1 << x)
        )
        for cand_z, cand_flips in trials:
            cand = positions(_closed(cubes, sum(1 << i for i in indices), cand_z, cand_flips))
            cand_size = len(cand)
            cand_score = cand_size * width * width
            if best is None or cand_score > best[0]:
                best = (cand_score, cand_size, cand_z, cand_flips, cand)
            if cand_size == size:
                break  # a subset of the core cannot be larger, so none later wins
        if best is None or best[0] <= score:
            break
        score, size, z, flips, indices = best

    return Core(cover, sum(1 << i for i in indices), z, flips)


def reference_best_core(cover: Cover):
    """``best_core`` over ``reference_expand_core``: the largest pair cores, widened."""
    seeds = [core for core in best_pair_cores(CoreSearch(cover)).values() if core.cubes]
    if not seeds:
        return None
    top = max(core.cube_count for core in seeds)
    wide = [reference_expand_core(core, cover) for core in seeds if core.cube_count == top]
    return min(
        wide,
        key=lambda core: _selection_key(
            core.score, core.width, len(core.inverted), core.sym_inputs
        ),
    )


# ---------------------------------------------------------------------------
# layout-search oracle: one full grid DAG per configuration


def oracle_minimize_layout(s, mode="exhaustive", seed=0):
    """``minimize_layout`` as a loop that builds every configuration's grid DAG."""
    n = s.n
    if mode == "exhaustive":
        if n > EXHAUSTIVE_LAYOUT_CAP:
            raise ValueError(f"exhaustive layout search requires n <= {EXHAUSTIVE_LAYOUT_CAP}")
        best = None
        for order in permutations(range(n)):
            for ph in product((False, True), repeat=n):
                m = metrics(build_grid_dag(s, order, PhaseVector(ph)))
                key = (m.node_count, m.link_count, order, ph)
                if best is None or key < best:
                    best = key
        assert best is not None
        return LayoutResult(best[2], PhaseVector(best[3]), PlotMetrics(best[0], best[1]))
    if mode != "greedy":
        raise ValueError(f"unknown search mode {mode!r}")

    rng = random.Random(seed)

    def measure(order: tuple[int, ...], ph: tuple[bool, ...]) -> PlotMetrics:
        return metrics(build_grid_dag(s, order, PhaseVector(ph)))

    def climb(order: tuple[int, ...], ph: tuple[bool, ...]):
        cur_m = measure(order, ph)
        while True:
            best_neighbor = None
            for i in range(n):
                for j in range(i + 1, n):
                    cand = list(order)
                    cand[i], cand[j] = cand[j], cand[i]
                    cand_t = tuple(cand)
                    m = measure(cand_t, ph)
                    k = (m.node_count, m.link_count, cand_t, ph)
                    if best_neighbor is None or k < best_neighbor:
                        best_neighbor = k
            for i in range(n):
                cand_ph = tuple(p ^ (idx == i) for idx, p in enumerate(ph))
                m = measure(order, cand_ph)
                k = (m.node_count, m.link_count, order, cand_ph)
                if best_neighbor is None or k < best_neighbor:
                    best_neighbor = k
            if best_neighbor is None or best_neighbor[:2] >= (cur_m.node_count, cur_m.link_count):
                return (cur_m.node_count, cur_m.link_count, order, ph)
            cur_m = PlotMetrics(best_neighbor[0], best_neighbor[1])
            order, ph = best_neighbor[2], best_neighbor[3]

    starts = [(tuple(range(n)), (False,) * n)]
    for _ in range(n):
        order = list(range(n))
        rng.shuffle(order)
        ph = tuple(bool(rng.getrandbits(1)) for _ in range(n))
        starts.append((tuple(order), ph))
    best = min(climb(order, ph) for order, ph in starts)
    return LayoutResult(best[2], PhaseVector(best[3]), PlotMetrics(best[0], best[1]))


# ---------------------------------------------------------------------------
# template and planarity oracles: walks of assignments and of prefix classes


def oracle_derive_pf(t, deleted) -> MintermSet:
    """``derive_pf`` as a walk of every assignment along the template's links."""
    alive = t.links - frozenset(deleted)
    bits = 0
    for v in range(1 << t.n):
        rank = 0
        ok = True
        for d in range(t.n):
            bit = (v >> d) & 1
            if (rank, d, "one" if bit else "zero") not in alive:
                ok = False
                break
            rank += bit
        if ok:
            bits |= 1 << v
    return MintermSet(t.n, bits)


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


def _bridged(words, read: int) -> bool:
    """True iff two prefix classes of the level that has read the inputs in
    ``read`` share a grid point.  A word is a minterm index with the phases
    applied; its prefix is its bits on ``read`` and its rank their count, and
    a class is a (rank, suffix set) pair."""
    suffixes: dict[int, set[int]] = {}
    for w in words:
        suffixes.setdefault(w & read, set()).add(w & ~read)
    at_rank: dict[int, set[int]] = {}
    for prefix, suffix_set in suffixes.items():
        if at_rank.setdefault(prefix.bit_count(), suffix_set) != suffix_set:
            return True
    return False


def oracle_planar_witness(s, cap=6):
    """``is_planar_function`` as a sweep of every configuration in turn, in
    its order: orders lexicographic, then phase tuples lexicographic.

    Each configuration's levels are walked from the definition, over the
    minterm indices with its phases applied, and it is abandoned at its
    first bridged level.  Levels 0, 1 and n have one class per rank, so only
    levels 2 to n - 1 are walked.
    """
    n = s.n
    if n > cap:
        raise ValueError(f"exhaustive planarity search capped at {cap} inputs")
    members = list(s.members())
    phasings = [(ph, PhaseVector(ph).mask) for ph in product((False, True), repeat=n)]
    for order in permutations(range(n)):
        reads = [sum(1 << x for x in order[:d]) for d in range(2, n)]
        for ph, q in phasings:
            words = [v ^ q for v in members]
            if not any(_bridged(words, read) for read in reads):
                return (order, PhaseVector(ph))
    return None
