import hashlib
import random
from itertools import permutations

import pytest

from gridsyn import (
    FullRankSet,
    MintermSet,
    PhaseVector,
    build_grid_dag,
    bridge_points,
    is_planar_plot,
    links_of,
    metrics,
    minimize_layout,
    parse_pla_outputs,
    render,
)
from gridsyn import cover_to_minterms, gridplot, transform_mask
from gridsyn.cubes import CapacityError, assignment_masks, full_mask
from gridsyn.gridplot import (
    EXHAUSTIVE_LAYOUT_CAP,
    _LevelTable,
    _class_links,
    _cofactor_lows,
    _exact_layout,
    _split_level,
)
from gridsyn.planar import _planar_level

from helpers import (
    DEMO_PLAS,
    ms,
    oracle_classes,
    oracle_metrics,
    oracle_minimize_layout,
    oracle_planar,
    random_cover,
    sf_minterms,
    words_of,
)

XOR_PAIR = ms("1010", "1001", "0110", "0101")


class TestMetrics:
    def test_three_configurations(self):
        assert metrics(build_grid_dag(XOR_PAIR)) == (6, 8)
        assert metrics(build_grid_dag(XOR_PAIR, order=(0, 2, 1, 3))) == (9, 12)
        assert metrics(build_grid_dag(XOR_PAIR, phases=PhaseVector.inverting(4, [1, 2]))) == (11, 12)

    def test_full_two_input_function(self):
        # all prefixes of equal rank merge, so level d holds d+1 nodes
        assert metrics(build_grid_dag(MintermSet(2, full_mask(2)))) == (5, 6)
        assert oracle_metrics(words_of(MintermSet(2, full_mask(2))), 2) == (5, 6)

    def test_single_minterm(self):
        assert metrics(build_grid_dag(ms("1"))) == (1, 1)
        for n in (2, 4, 6):
            s = MintermSet.from_indices(n, [5 % (1 << n)])
            assert metrics(build_grid_dag(s)) == (n, n)

    def test_empty_function(self):
        dag = build_grid_dag(MintermSet(3, 0))
        assert metrics(dag) == (0, 0)
        assert is_planar_plot(dag)

    def test_matches_oracle_on_random_configurations(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 7)
            s = MintermSet(n, rng.getrandbits(1 << n))
            order = tuple(rng.sample(range(n), n))
            inverted = [i for i in range(n) if rng.random() < 0.4]
            dag = build_grid_dag(s, order, PhaseVector.inverting(n, inverted))
            assert metrics(dag) == oracle_metrics(words_of(s, order, inverted), n)

    def test_acceptance_equivalence(self):
        # the DAG accepts exactly the reordered, rephased words
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(1, 12)
            s = MintermSet(n, rng.getrandbits(1 << n) & rng.getrandbits(1 << n))
            order = tuple(rng.sample(range(n), n))
            inverted = [i for i in range(n) if rng.random() < 0.3]
            dag = build_grid_dag(s, order, PhaseVector.inverting(n, inverted))
            words = words_of(s, order, inverted)
            levels = [set(keys) for keys in dag.classes]
            for probe in {format(v, f"0{n}b") for v in range(min(1 << n, 256))} | words:
                # a 1 leads from class (r, mask) to (r + 1, hi), a 0 to (r, lo)
                rank, mask = dag.classes[0][0]
                for d, ch in enumerate(probe):
                    half = 1 << (n - d - 1)
                    if ch == "1":
                        rank, mask = rank + 1, mask >> half
                    else:
                        mask &= (1 << half) - 1
                    if not mask:
                        break
                    assert (rank, mask) in levels[d + 1]
                assert bool(mask) == (probe in words)

    def test_node_out_degree_and_link_bound(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randint(1, 8)
            s = MintermSet(n, rng.getrandbits(1 << n))
            dag = build_grid_dag(s)
            m = metrics(dag)
            assert m.link_count <= 2 * m.node_count
            links = 0
            for d in range(n):
                half = 1 << (n - d - 1)
                for rank, mask in dag.classes[d]:
                    targets = {(rank + 1, mask >> half), (rank, mask & ((1 << half) - 1))}
                    targets = {t for t in targets if t[1]}
                    # every class below the origin has a completion, so a link
                    assert 1 <= len(targets) <= 2 or (d == 0 and not mask)
                    assert targets <= set(dag.classes[d + 1])
                    links += len(targets)
            assert links == m.link_count

    def test_node_count_lower_bound(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randint(1, 8)
            bits = rng.getrandbits(1 << n)
            if not bits:
                continue
            s = MintermSet(n, bits)
            m = metrics(build_grid_dag(s))
            assert m.node_count >= n
            assert (m.node_count == n) == (len(s) == 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_tautology_attains_link_bound(self, n):
        assert metrics(build_grid_dag(MintermSet(n, full_mask(n)))).link_count == n * (n + 1)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            build_grid_dag(MintermSet(30, 0))

    def test_merging_is_scoped_to_grid_points(self):
        # prefixes 11 and 00 of this set share their suffix set {00,11} at
        # depth 2 but sit at different ranks, so they stay distinct nodes
        dag = build_grid_dag(ms("0000", "0011", "1100", "1111"))
        level = dag.classes[2]
        assert [rank for rank, _ in level] == [0, 2]
        assert len({mask for _, mask in level}) == 1
        # within one grid point merging is maximal
        for keys in dag.classes:
            assert len(set(keys)) == len(keys)



class TestLevelPass:
    def test_kernel_words_and_level_pass_match_string_oracle(self):
        rng = random.Random(29)
        for _ in range(120):
            n = rng.randint(0, 8)
            s = MintermSet(n, rng.getrandbits(1 << n) & rng.getrandbits(1 << n))
            order = tuple(rng.sample(range(n), n))
            inverted = [i for i in range(n) if rng.random() < 0.5]
            phases = PhaseVector.inverting(n, inverted)
            word_bits = transform_mask(s.bits, n, order[::-1], phases.mask)
            words = words_of(s, order, inverted)
            # first consumed input is the most significant word bit
            decoded = {
                "".join(str((w >> (n - 1 - t)) & 1) for t in range(n))
                for w in range(1 << n)
                if (word_bits >> w) & 1
            }
            assert decoded == words
            dag = build_grid_dag(s, order, phases)
            assert dag.classes == oracle_classes(words, n)
            assert metrics(dag) == oracle_metrics(words, n)
            assert is_planar_plot(dag) == oracle_planar(words, n)


class TestStructure:
    def test_symmetric_plots_are_planar(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(1, 8)
            ranks = frozenset(r for r in range(n + 1) if rng.random() < 0.5)
            s = sf_minterms(FullRankSet(n, ranks))
            for order in (None, tuple(rng.sample(range(n), n))):
                assert is_planar_plot(build_grid_dag(s, order))

    def test_single_full_rank_has_one_accepting_node(self):
        for n in range(1, 7):
            for r in range(n + 1):
                s = sf_minterms(FullRankSet(n, {r}))
                dag = build_grid_dag(s)
                assert is_planar_plot(dag)
                assert len(dag.classes[n]) == 1

    def test_planarity_of_three_configurations(self):
        assert is_planar_plot(build_grid_dag(XOR_PAIR))
        assert not is_planar_plot(build_grid_dag(XOR_PAIR, order=(0, 2, 1, 3)))
        assert bridge_points(build_grid_dag(XOR_PAIR, order=(0, 2, 1, 3))) == {(1, 2): 2}


class TestMinimize:
    def test_exhaustive_restores_pair_order(self):
        shuffled = ms("1100", "1001", "0110", "0011")  # columns a,c,b,d
        result = minimize_layout(shuffled, mode="exhaustive")
        assert result.metrics == (6, 8)
        assert result.order == (0, 2, 1, 3)
        assert result.phases == PhaseVector.none(4)
        assert is_planar_plot(build_grid_dag(shuffled, result.order, result.phases))

    def test_symmetric_node_count_is_order_invariant(self):
        s = sf_minterms(FullRankSet(3, {1, 3}))
        counts = {
            metrics(build_grid_dag(s, perm)).node_count for perm in permutations(range(3))
        }
        assert len(counts) == 1

    def test_single_minterm_any_order(self):
        s = ms("101")
        result = minimize_layout(s, mode="exhaustive")
        assert result.metrics == (3, 3)

    def test_greedy_finds_the_pair_order(self):
        shuffled = ms("1100", "1001", "0110", "0011")
        result = minimize_layout(shuffled, mode="greedy", seed=0)
        assert result.metrics == (6, 8)

    def test_greedy_is_deterministic(self):
        rng = random.Random(77)
        s = MintermSet(6, rng.getrandbits(64))
        a = minimize_layout(s, mode="greedy", seed=3)
        b = minimize_layout(s, mode="greedy", seed=3)
        assert a == b

    def test_exhaustive_never_worse_than_greedy(self):
        """On seeded 4-input functions, and on seeded 3n-cube covers of every
        arity up to the exhaustive cap."""
        rng = random.Random(31)
        cases = [MintermSet(4, rng.getrandbits(16)) for _ in range(8)]
        rng = random.Random(1990)
        cases += [
            cover_to_minterms(random_cover(rng, n, 3 * n))
            for n in range(1, EXHAUSTIVE_LAYOUT_CAP + 1)
        ]
        for s in cases:
            ex = minimize_layout(s, mode="exhaustive")
            gr = minimize_layout(s, mode="greedy", seed=1)
            assert (ex.metrics.node_count, ex.metrics.link_count) <= (
                gr.metrics.node_count,
                gr.metrics.link_count,
            ), s

    def test_exhaustive_arity_cap(self):
        with pytest.raises(ValueError, match="requires n <= 9"):
            minimize_layout(MintermSet(10, 1), mode="exhaustive")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            minimize_layout(ms("1"), mode="annealing")


def level_table_triples():
    """320 seeded (function, order, phases) triples, eight configurations per
    function through one table with a generation rotation after each, so
    later ones reuse, rebuild or evict the levels of earlier ones.  The table
    lays out its root in a seeded order of its own, so the configurations
    read inputs out of table order.  Yields (s, table, order, pmask, grid
    DAG, first, last), with first <= last a seeded window of levels."""
    rng = random.Random(1990)
    for k in range(40):
        n = k % 8
        if k < 8:
            s = MintermSet(n, 0) if k % 2 else MintermSet(n, full_mask(n))
        else:
            s = MintermSet(n, rng.getrandbits(1 << n) & rng.getrandbits(1 << n))
        table = _LevelTable(s)
        table.start(tuple(rng.sample(range(n), n)))
        for _ in range(8):
            order = tuple(rng.sample(range(n), n))
            pmask = rng.getrandbits(n) if n else 0
            phases = PhaseVector(tuple(bool(pmask >> i & 1) for i in range(n)))
            dag = build_grid_dag(s, order, phases)
            first = rng.randint(0, n)
            last = rng.randint(first, n)
            yield s, table, order, pmask, dag, first, last
            table.rotate()


def dag_level_links(dag) -> list[int]:
    """The links out of each depth 0..n - 1 of a grid DAG."""
    links = [0] * dag.n
    for _, depth, one, zero in _class_links(dag):
        if depth < dag.n:
            links[depth] += one + zero
    return links


def states_of(order, pmask: int) -> list[int]:
    """A configuration's level keys at depths 0..n."""
    n, states = len(order), [0]
    for x in order:
        states.append(states[-1] | 1 << x | (pmask >> x & 1) << (x + n))
    return states


class TestLevelTable:
    def test_matches_the_grid_dag(self):
        """(N, L) and the class count of every level of ``level_table_triples``
        after a window of levels, and the class counts and planarity that
        ``_split_level`` alone gives."""
        triples = 0
        for s, table, order, pmask, dag, first, last in level_table_triples():
            n = s.n
            states = states_of(order, pmask)[: first + 1]
            table.count_window(order, pmask, first, last, states)
            keys, counts, links = table.profile(order, pmask)
            assert keys[: last + 1] == states
            assert counts == [len(level) for level in dag.classes], (s, order, pmask)
            assert (sum(counts) - 1, sum(links)) == tuple(metrics(dag)), (s, order, pmask)
            # the level kernel alone: class counts per level and planarity
            lows = _cofactor_lows(n)
            level, planar = {s.bits: 1}, True
            for d, x in enumerate(order):
                level, _ = _split_level(level, lows[x], 1 << x, pmask >> x & 1)
                assert sum(r.bit_count() for r in level.values()) == len(dag.classes[d + 1])
                planar = planar and _planar_level(level)
            assert planar == is_planar_plot(dag), (s, order, pmask)
            triples += 1
        assert triples == 320

    def test_windows_match_the_grid_dag(self):
        """On ``level_table_triples``, the count window over levels
        first + 1..last and then the link window over levels first..last - 1
        equal the grid DAG's class counts and links there, and over the whole
        configuration they give its (N, L)."""
        triples = 0
        for s, table, order, pmask, dag, first, last in level_table_triples():
            n = s.n
            dag_links = dag_level_links(dag)
            assert sum(dag_links) == dag.link_count
            keys = states_of(order, pmask)[: first + 1]
            c = table.count_window(order, pmask, first, last, keys)
            assert keys == states_of(order, pmask)[: last + 1]
            assert c == sum(map(len, dag.classes[first + 1 : last + 1])), (s, order, pmask)
            l = table.link_window(order, pmask, first, last, keys)
            assert l == sum(dag_links[first:last]), (s, order, pmask, first, last)
            keys = [0]
            c = table.count_window(order, pmask, 0, n, keys)
            assert (c, table.link_window(order, pmask, 0, n, keys)) == tuple(metrics(dag))
            triples += 1
        assert triples == 320

    def test_link_window_fills_a_link_whose_count_is_known(self):
        """After the identity configuration, the state that has read x0 has
        its class count memoised but not its links when x2 is read next: the
        link window counts them, from the stored level or, after two
        rotations have evicted it, from one rebuilt from the root."""
        rng = random.Random(25)
        for n in (3, 5, 7):
            s = cover_to_minterms(random_cover(rng, n, 2 * n))
            pmask = rng.getrandbits(n)
            order = (0, 2, 1, *range(3, n))
            dag = build_grid_dag(s, order, PhaseVector(tuple(bool(pmask >> i & 1) for i in range(n))))
            keys = states_of(order, pmask)
            for rotations in (0, 2):
                table = _LevelTable(s)
                table.profile(tuple(range(n)), pmask)
                for _ in range(rotations):
                    table.rotate()
                assert (keys[1] in table.cur) == (rotations == 0)
                lk = keys[1] | 2 << 2 * n
                assert keys[1] in table.counts and lk not in table.links
                assert table.link_window(order, pmask, 1, 2, keys) == dag_level_links(dag)[1]
                assert lk in table.links
                assert table.link_window(order, pmask, 0, n, keys) == dag.link_count

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            minimize_layout(MintermSet(25, 0), mode="greedy")

    def test_a_greedy_search_caches_one_mask_width(self):
        # every narrower table's masks are cut from the width-n masks
        s = cover_to_minterms(random_cover(random.Random(10), 10, 30))
        assignment_masks.cache_clear()
        minimize_layout(s, mode="greedy")
        assert assignment_masks.cache_info().currsize == 1


def layout_cases():
    """(minterm set, mode, seed) searches in a fixed order: greedy for n 0-9,
    exhaustive for n <= 5, each on the empty function, the tautology, a dense
    random function and a random cover."""
    rng = random.Random(1990)
    for n in range(10):
        sets = [
            MintermSet(n, 0),
            MintermSet(n, full_mask(n)),
            MintermSet(n, rng.getrandbits(1 << n)),
            cover_to_minterms(random_cover(rng, n, rng.randint(1, 2 * n + 1))),
        ]
        for s in sets:
            yield s, "greedy", rng.randrange(100)
            if n <= 5:
                yield s, "exhaustive", 0


def layout_key(result) -> tuple:
    return (result.order, result.phases.inverted, tuple(result.metrics))


#: sha256 of the search results on ``layout_cases``, computed with one full
#: grid DAG per configuration.
PINNED_LAYOUTS = "21f7b84870152fe949e22488d3722aeb4c981b384938e1246915cdcc95c756de"


class TestSearchAgainstOracle:
    def test_results_match_the_per_configuration_loop(self):
        for s, mode, seed in layout_cases():
            got = minimize_layout(s, mode=mode, seed=seed)
            assert got == oracle_minimize_layout(s, mode=mode, seed=seed), (s, mode, seed)

    def test_results_are_pinned(self):
        h = hashlib.sha256()
        for s, mode, seed in layout_cases():
            h.update(repr(layout_key(minimize_layout(s, mode=mode, seed=seed))).encode())
        assert h.hexdigest() == PINNED_LAYOUTS


def exact_cases():
    """Seeded functions of 6 and 7 inputs: two dense random functions and two
    random covers."""
    rng = random.Random(1990)
    yield MintermSet(6, rng.getrandbits(64) & rng.getrandbits(64))
    yield MintermSet(6, rng.getrandbits(64) | rng.getrandbits(64))
    yield cover_to_minterms(random_cover(rng, 6, 9))
    yield cover_to_minterms(random_cover(rng, 7, 12))


#: (order, inverted inputs, (N, L)) of ``exact_cases`` as
#: ``helpers.oracle_minimize_layout`` finds them by building all n! * 2**n
#: grid DAGs, which takes about 2.5 s per 6-input function and 38 s at 7
#: inputs, so the results are written out here.
ORACLE_LAYOUTS = [
    ((0, 1, 3, 4, 5, 2), (1, 3, 5), (31, 41)),
    ((0, 3, 5, 2, 1, 4), (2, 3, 4), (36, 57)),
    ((0, 1, 4, 2, 3, 5), (3, 4), (36, 56)),
    ((0, 2, 5, 3, 4, 6, 1), (2,), (33, 51)),
]


def wide_cases():
    """Seeded 3n-cube covers of 10, 11 and 12 inputs, above the reach of
    ``layout_cases`` and the per-configuration oracle."""
    rng = random.Random(2019)
    for n in (10, 11, 12):
        yield cover_to_minterms(random_cover(rng, n, 3 * n))


#: (order, inverted inputs, (N, L)) of greedy searches (seed n) on
#: ``wide_cases``, computed with full-width levels kept along the last walked
#: configuration only.
WIDE_GREEDY_LAYOUTS = [
    ((0, 7, 8, 2, 9, 6, 1, 5, 3, 4), (4,), (215, 358)),
    ((5, 6, 0, 1, 3, 10, 2, 9, 4, 7, 8), (0, 1, 3, 6, 7, 8, 10), (361, 604)),
    ((3, 9, 11, 6, 7, 4, 8, 5, 1, 10, 0, 2), (0, 3, 4, 5, 6, 7, 8, 9, 10, 11), (538, 920)),
]


def test_greedy_is_pinned_above_the_oracle():
    got = [layout_key(minimize_layout(s, mode="greedy", seed=s.n)) for s in wide_cases()]
    assert got == WIDE_GREEDY_LAYOUTS


class TestExactSearch:
    def test_matches_the_oracle(self):
        got = [layout_key(minimize_layout(s, mode="exhaustive")) for s in exact_cases()]
        assert [s.n for s in exact_cases()] == [6, 6, 6, 7]
        assert got == ORACLE_LAYOUTS

    @pytest.mark.parametrize("n", range(8))
    def test_builds_one_level_per_mirror_pair(self, monkeypatch, n):
        # a state and its mirror, every read input inverted, share one level,
        # so only the states whose lowest read input is not inverted are split
        calls = []

        def counting(*args):
            calls.append(args)
            return _split_level(*args)

        monkeypatch.setattr(gridplot, "_split_level", counting)
        _exact_layout(MintermSet(n, random.Random(n).getrandbits(1 << n)))
        assert len(calls) == (3**n - 1) // 2


class TestRender:
    def test_ascii_is_deterministic_and_annotated(self):
        dag = build_grid_dag(XOR_PAIR)
        art = render(dag, "ascii")
        assert art == render(dag, "ascii")
        assert "N=6 L=8" in art
        canvas = art.split("\n\n")[0]
        assert canvas.count("o") == 6  # seven nodes with the origin, accepting drawn as '*'
        assert canvas.count("*") == 1
        assert "bridges: none" in art

    def test_ascii_flags_bridges(self):
        art = render(build_grid_dag(XOR_PAIR, order=(0, 2, 1, 3)), "ascii")
        assert "=" in art
        assert "bridges: (r=1,d=2)x2" in art

    def test_empty_function_renders_origin_only(self):
        art = render(build_grid_dag(MintermSet(2, 0)), "ascii")
        assert art.split("\n\n")[0].count("o") == 1
        assert "N=0 L=0" in art

    def test_svg_is_self_contained(self):
        svg = render(build_grid_dag(XOR_PAIR), "svg")
        assert svg.startswith("<svg")
        assert svg.count("<circle") == 7
        assert "href" not in svg

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            render(build_grid_dag(XOR_PAIR), "png")


def render_cases():
    """Grid DAGs in a fixed order: every demo PLA output under the identity
    configuration and six seeded (order, phases) pairs, then the empty and
    full functions of 0-2 inputs."""
    rng = random.Random(2001)
    for path in sorted(DEMO_PLAS.glob("*.pla")):
        for _, cover in parse_pla_outputs(path.read_text()):
            s = cover_to_minterms(cover)
            n = s.n
            yield build_grid_dag(s)
            for _ in range(6):
                order = tuple(rng.sample(range(n), n))
                inverted = [i for i in range(n) if rng.random() < 0.5]
                yield build_grid_dag(s, order, PhaseVector.inverting(n, inverted))
    for n in range(3):
        yield build_grid_dag(MintermSet(n, 0))
        yield build_grid_dag(MintermSet(n, full_mask(n)))


#: sha256 of the ASCII and SVG drawings and the sorted template links of
#: ``render_cases``, computed while grid DAGs still carried node objects.
PINNED_RENDERS = "677e228c4eeec79419e65c3e962fbabf8b64653a1f974173e39c98ee5a97499e"


def test_renders_and_links_are_pinned():
    h = hashlib.sha256()
    bridged = 0
    for dag in render_cases():
        h.update(render(dag, "ascii").encode())
        h.update(render(dag, "svg").encode())
        h.update(repr(sorted(links_of(dag))).encode())
        bridged += not is_planar_plot(dag)
    assert bridged == 20
    assert h.hexdigest() == PINNED_RENDERS
