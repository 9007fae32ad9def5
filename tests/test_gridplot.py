import hashlib
import random
from itertools import permutations
from math import comb

import pytest

from gridsyn import (
    FullRankSet,
    MintermSet,
    PhaseVector,
    build_grid_dag,
    bridge_points,
    is_planar_plot,
    metrics,
    minimize_layout,
    pascal_counts,
    phase_minterms,
    planar_factor,
    rank_cut,
    render,
    sf_minterms,
    spectrum_of,
)
from gridsyn import cover_to_minterms, transform_mask
from gridsyn.cubes import CapacityError
from gridsyn.gridplot import _LevelTable, _level_pass, _planar_levels, path_counts

from helpers import (
    ms,
    oracle_metrics,
    oracle_minimize_layout,
    oracle_planar,
    random_cover,
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
        assert metrics(build_grid_dag(MintermSet.universe(2))) == (5, 6)
        assert oracle_metrics(words_of(MintermSet.universe(2)), 2) == (5, 6)

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
            for probe in {format(v, f"0{n}b") for v in range(min(1 << n, 256))} | words:
                node = 0
                ok = True
                for ch in probe:
                    nid = dag.nodes[node].one if ch == "1" else dag.nodes[node].zero
                    if nid is None:
                        ok = False
                        break
                    node = nid
                assert ok == (probe in words)

    def test_node_out_degree_and_link_bound(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randint(1, 8)
            s = MintermSet(n, rng.getrandbits(1 << n))
            dag = build_grid_dag(s)
            m = metrics(dag)
            assert m.link_count <= 2 * m.node_count
            for node in dag.nodes:
                assert (node.one is not None) + (node.zero is not None) <= 2

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
        assert metrics(build_grid_dag(MintermSet.universe(n))).link_count == n * (n + 1)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            build_grid_dag(MintermSet(30, 0))

    def test_merging_is_scoped_to_grid_points(self):
        # prefixes 11 and 00 of this set share their suffix set {00,11} at
        # depth 2 but sit at different ranks, so they stay distinct nodes
        dag = build_grid_dag(ms("0000", "0011", "1100", "1111"))
        level = dag.levels[2]
        assert len(level) == 2
        keys = {dag.nodes[i].suffix_key for i in level}
        assert len(keys) == 1
        # within one grid point merging is maximal
        for lv in dag.levels:
            seen = {(dag.nodes[i].rank, dag.nodes[i].suffix_key) for i in lv}
            assert len(seen) == len(lv)



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
            classes, links = _level_pass(word_bits, n)
            assert (sum(map(len, classes)) - 1, links) == oracle_metrics(words, n)
            assert _planar_levels(classes) == oracle_planar(words, n)
            dag = build_grid_dag(s, order, phases)
            assert (dag.classes, dag.link_count) == (classes, links)
            assert is_planar_plot(dag) == oracle_planar(words, n)

    def test_nodes_are_numbered_by_rank_then_mask_within_levels(self):
        dag = build_grid_dag(ms("0000", "0011", "1100", "1111", "0110"))
        flat = [(node.depth, node.rank, node.suffix_key) for node in dag.nodes]
        assert flat == sorted(flat)
        assert [len(level) for level in dag.levels] == [len(keys) for keys in dag.classes]

class TestStructure:
    def test_path_counts_match_spectrum(self):
        rng = random.Random(6)
        for _ in range(25):
            n = rng.randint(1, 8)
            s = MintermSet(n, rng.getrandbits(1 << n))
            inverted = [i for i in range(n) if rng.random() < 0.4]
            phases = PhaseVector.inverting(n, inverted)
            dag = build_grid_dag(s, phases=phases)
            counts = path_counts(dag)
            sp = spectrum_of(phase_minterms(s, phases))
            by_rank = {dag.nodes[i].rank: counts.get(i, 0) for i in dag.accepting()}
            for r in range(n + 1):
                assert by_rank.get(r, 0) == sp[r]

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
                assert len(dag.accepting()) == 1

    def test_planarity_of_three_configurations(self):
        assert is_planar_plot(build_grid_dag(XOR_PAIR))
        assert not is_planar_plot(build_grid_dag(XOR_PAIR, order=(0, 2, 1, 3)))
        assert bridge_points(build_grid_dag(XOR_PAIR, order=(0, 2, 1, 3))) == {(1, 2): 2}


class TestFactoring:
    def test_single_node_depth_splits_the_function(self):
        g, h = planar_factor(build_grid_dag(XOR_PAIR), 2)
        assert set(g.to_strings()) == {"10", "01"}
        assert set(h.to_strings()) == {"10", "01"}

    def test_multi_node_depth_returns_none(self):
        assert planar_factor(build_grid_dag(XOR_PAIR, order=(0, 2, 1, 3)), 2) is None

    def test_tautology_has_no_single_node_depth(self):
        dag = build_grid_dag(MintermSet.universe(3))
        for depth in (1, 2):
            assert planar_factor(dag, depth) is None

    def test_depth_bounds(self):
        dag = build_grid_dag(XOR_PAIR)
        for depth in (0, 4, 5):
            with pytest.raises(ValueError):
                planar_factor(dag, depth)
            with pytest.raises(ValueError):
                rank_cut(dag, depth)

    def test_factor_reconstructs_product(self):
        rng = random.Random(12)
        for _ in range(40):
            m, k = rng.randint(1, 4), rng.randint(1, 4)
            gb = rng.getrandbits(1 << m) or 1
            hb = rng.getrandbits(1 << k) or 1
            bits = 0
            for gv in MintermSet(m, gb).members():
                for hv in MintermSet(k, hb).members():
                    bits |= 1 << (gv | (hv << m))
            dag = build_grid_dag(MintermSet(m + k, bits))
            got = planar_factor(dag, m)
            if got is None:
                continue  # a planar cut can exist without a single node
            g, h = got
            rebuilt = 0
            for gv in g.members():
                for hv in h.members():
                    rebuilt |= 1 << (gv | (hv << m))
            assert rebuilt == bits

    def test_rank_cut_on_phased_configuration(self):
        dag = build_grid_dag(ms("0000", "0011", "1100", "1111"))
        cut = rank_cut(dag, 2)
        assert [(r, set(g.to_strings()), set(h.to_strings())) for r, g, h in cut] == [
            (0, {"00"}, {"00", "11"}),
            (2, {"11"}, {"00", "11"}),
        ]

    def test_rank_cut_identity_configuration(self):
        cut = rank_cut(build_grid_dag(XOR_PAIR), 2)
        assert len(cut) == 1
        r, g, h = cut[0]
        assert r == 1 and set(g.to_strings()) == {"10", "01"}

    def test_rank_cut_blocked_by_bridged_point(self):
        assert rank_cut(build_grid_dag(XOR_PAIR, order=(0, 2, 1, 3)), 2) is None

    def test_rank_cut_reconstructs_sum_of_products(self):
        rng = random.Random(14)
        for _ in range(30):
            n = rng.randint(2, 8)
            s = MintermSet(n, rng.getrandbits(1 << n))
            if not s:
                continue
            dag = build_grid_dag(s)
            for depth in range(1, n):
                cut = rank_cut(dag, depth)
                if cut is None:
                    continue
                rebuilt = 0
                for r, g, h in cut:
                    for gv in g.members():
                        assert gv.bit_count() == r
                        for hv in h.members():
                            rebuilt |= 1 << (gv | (hv << depth))
                assert rebuilt == s.bits


class TestPascal:
    def test_small_triangles(self):
        assert pascal_counts(0) == [[1]]
        assert pascal_counts(2)[-1] == [1, 2, 1]
        assert pascal_counts(4)[-1] == [1, 4, 6, 4, 1]

    def test_matches_binomials(self):
        rows = pascal_counts(9)
        for d, row in enumerate(rows):
            assert row == [comb(d, r) for r in range(d + 1)]

    def test_matches_tautology_path_counts(self):
        n = 5
        dag = build_grid_dag(MintermSet.universe(n))
        counts = path_counts(dag)
        rows = pascal_counts(n)
        for i, node in enumerate(dag.nodes):
            assert counts[i] == rows[node.depth][node.rank]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pascal_counts(-1)


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
        rng = random.Random(31)
        for _ in range(8):
            s = MintermSet(4, rng.getrandbits(16))
            ex = minimize_layout(s, mode="exhaustive")
            gr = minimize_layout(s, mode="greedy", seed=1)
            assert (ex.metrics.node_count, ex.metrics.link_count) <= (
                gr.metrics.node_count,
                gr.metrics.link_count,
            )

    def test_exhaustive_arity_cap(self):
        with pytest.raises(ValueError):
            minimize_layout(MintermSet(9, 1), mode="exhaustive")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            minimize_layout(ms("1"), mode="annealing")


class TestLevelTable:
    def test_matches_the_grid_dag(self):
        """(N, L) and planarity of 320 seeded (function, order, phases) triples,
        eight configurations per function through one table, so later ones
        reuse the levels and class sets of earlier ones."""
        rng = random.Random(1990)
        triples = 0
        for k in range(40):
            n = k % 8
            if k < 8:
                s = MintermSet(n, 0) if k % 2 else MintermSet.universe(n)
            else:
                s = MintermSet(n, rng.getrandbits(1 << n) & rng.getrandbits(1 << n))
            table = _LevelTable(s, n)
            for _ in range(8):
                order = tuple(rng.sample(range(n), n))
                pmask = rng.getrandbits(n) if n else 0
                phases = PhaseVector(tuple(bool(pmask >> i & 1) for i in range(n)))
                dag = build_grid_dag(s, order, phases)
                assert table.metrics(order, pmask) == tuple(metrics(dag)), (s, order, pmask)
                assert table.planar(order, pmask) == is_planar_plot(dag), (s, order, pmask)
                triples += 1
        assert triples == 320

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            minimize_layout(MintermSet(9, 0), mode="greedy", cap=8)


def layout_cases():
    """(minterm set, mode, seed) searches in a fixed order: greedy for n 0-9,
    exhaustive for n <= 5, each on the empty function, the tautology, a dense
    random function and a random cover."""
    rng = random.Random(1990)
    for n in range(10):
        sets = [
            MintermSet(n, 0),
            MintermSet.universe(n),
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
