import random
import sys
from itertools import combinations

import pytest

from gridsyn import (
    Cover,
    DecompositionError,
    FullRankSet,
    MintermSet,
    decompose,
    factor_core,
    verify,
)
from gridsyn import cores
from gridsyn.cores import Core, CoreSearch, best_core, expand_core
from gridsyn.cubes import restrict
from gridsyn.netlist import (
    KIND_AND,
    KIND_CONST,
    KIND_INV,
    KIND_OR,
    KIND_SYM,
    NetlistBuilder,
    netlist_to_expr,
)

from helpers import (
    all_assignments,
    eval_cover,
    evaluate_netlist,
    minterms_to_cover,
    pair_seed,
    phased_inputs,
    random_cover,
    supports,
    threshold_products,
)

CARRY = Cover(("a", "b", "c"), ("11-", "1-1", "-11"))
SUM3 = Cover(("a", "b", "c"), ("100", "010", "001", "111"))
XOR_PAIR = Cover(("a", "b", "c", "d"), ("1010", "1001", "0110", "0101"))
PARITY4 = Cover(
    ("a", "b", "c", "d"),
    ("1000", "0100", "0010", "0001", "1110", "1101", "1011", "0111"),
)


def slow_equivalent(nl, cover) -> bool:
    """Independent oracle: pointwise evaluation of both sides."""
    return all(
        evaluate_netlist(nl, a) == eval_cover(cover, a) for a in all_assignments(cover.n)
    )


def string_rank_cut(core) -> list[tuple[frozenset, tuple[str, ...]]]:
    """The rank cut read character by character from the core's cube strings."""

    def contains(big: str, small: str) -> bool:
        return all(b == "-" or b == s for b, s in zip(big, small))

    cover, z = core.base, core.sym_inputs
    y = [j for j in range(cover.n) if j not in z]
    groups: dict[tuple[str, ...], set[int]] = {}
    for r in range(len(z) + 1):
        rep = {zj: "01"[(t < r) != (zj in core.inverted)] for t, zj in enumerate(z)}
        kept: list[str] = []
        for i in core.cube_indices:
            cube = cover.cubes[i]
            if all(cube[j] in ("-", rep[j]) for j in z):
                rest = "".join(cube[j] for j in y)
                if not any(contains(k, rest) for k in kept):
                    kept = [k for k in kept if not contains(rest, k)] + [rest]
        if kept:
            groups.setdefault(tuple(kept), set()).add(r)
    return [(frozenset(ranks), h) for h, ranks in groups.items()]


def read_columns(cubes: tuple[str, ...]) -> list[int]:
    """The columns that some cube string reads."""
    return [j for j, col in enumerate(zip(*cubes)) if set(col) != {"-"}]


class TestFactorCore:
    def test_cofactors_match_the_string_reading(self):
        # the reference keeps every column of Y; factor_core keeps the ones its cubes read
        rng = random.Random(15)
        for _ in range(120):
            c = random_cover(rng, rng.randint(2, 8), rng.randint(1, 24))
            a, b = rng.sample(range(c.n), 2)
            seeds = [pair_seed(c, a, b, invert_a=inv) for inv in (False, True)]
            for core in seeds + [expand_core(seed, CoreSearch(c)) for seed in seeds]:
                if core.cube_indices:
                    y = [c.input_names[j] for j in range(c.n) if j not in core.sym_inputs]
                    expected = []
                    for ranks, h in string_rank_cut(core):
                        cols = read_columns(h)
                        cubes = tuple("".join(cube[j] for j in cols) for cube in h)
                        expected.append((ranks, tuple(y[j] for j in cols), cubes))
                    shaped = [(g.ranks, h.input_names, h.cubes) for g, h in factor_core(core)]
                    assert shaped == expected

    def test_every_cofactor_reads_each_of_its_inputs(self):
        rng = random.Random(33)
        seen = set()  # the cofactor widths met, to show unread inputs were dropped
        for _ in range(150):
            c = random_cover(rng, rng.randint(2, 9), rng.randint(1, 24))
            core = best_core(CoreSearch(c))
            if core is None or not core.cube_indices:
                continue
            for _, h in factor_core(core):
                assert read_columns(h.cubes) == list(range(h.n)), h
                seen.add(h.n < c.n - core.width)
        assert seen == {False, True}

    def test_carry_partial_core(self):
        core = pair_seed(CARRY, 0, 1)
        terms = factor_core(core)
        shaped = [(g.ranks, h.cubes) for g, h in terms]
        assert shaped == [(frozenset({1}), ("1",)), (frozenset({2}), ("",))]

    def test_fully_symmetric_core_has_trivial_cofactors(self):
        core = expand_core(pair_seed(CARRY, 0, 1), CoreSearch(CARRY))
        assert core.sym_inputs == (0, 1, 2)
        terms = factor_core(core)
        assert [(g.ranks, h.cubes) for g, h in terms] == [(frozenset({2, 3}), ("",))]

    def test_pair_product_core_factors_to_xor_cofactor(self):
        core = pair_seed(XOR_PAIR, 0, 1)
        terms = factor_core(core)
        assert len(terms) == 1
        g, h = terms[0]
        assert g == FullRankSet(2, frozenset({1}))
        assert set(h.cubes) == {"10", "01"}

    def test_inverted_input_reads_the_opposite_raw_symbol(self):
        # "10" with a inverted is phased "00": rank 0 of Z, tautology cofactor
        core = pair_seed(Cover(("a", "b"), ("10",)), 0, 1, invert_a=True)
        assert [(g.ranks, h.cubes) for g, h in factor_core(core)] == [(frozenset({0}), ("",))]

    def test_ranks_sharing_a_cofactor_are_one_term(self):
        core = best_core(CoreSearch(PARITY4))
        assert core.sym_inputs == (0, 1, 2, 3)
        terms = factor_core(core)
        assert [(g.ranks, h.cubes) for g, h in terms] == [(frozenset({1, 3}), ("",))]

    def test_terms_are_disjoint_ascending_and_distinct(self):
        rng = random.Random(12)
        for _ in range(150):
            c = random_cover(rng, rng.randint(2, 7), rng.randint(1, 20))
            core = best_core(CoreSearch(c))
            if core is None:
                continue
            terms = factor_core(core)
            ranks = [g.ranks for g, _ in terms]
            assert sum(map(len, ranks)) == len(frozenset().union(*ranks))
            lows = [min(r) for r in ranks]
            assert lows == sorted(lows)
            cofactors = [h.cubes for _, h in terms]
            assert len(set(cofactors)) == len(cofactors)

    def test_asymmetric_core_rejected(self):
        bogus = Core(base=XOR_PAIR, cubes=0b111, z=0b101, flips=0)
        with pytest.raises(DecompositionError, match="not symmetric"):
            factor_core(bogus)


class TestWorkedDecompositions:
    def test_carry_is_one_symmetric_node(self):
        nl = decompose(CARRY)
        assert netlist_to_expr(nl) == "SYM[2,3](a, b, c)"
        assert len(nl.nodes) == 1

    def test_sum_is_one_symmetric_node(self):
        assert netlist_to_expr(decompose(SUM3)) == "SYM[1,3](a, b, c)"

    def test_pair_product_is_a_disjoint_product(self):
        nl = decompose(XOR_PAIR)
        out = nl.nodes[nl.output.index]
        assert out.kind == KIND_AND
        parts = sorted(netlist_to_expr(nl)[1:-1].split(" & "))
        assert parts == ["SYM[1](a, b)", "SYM[1](c, d)"]

    def test_empty_and_constant_covers(self):
        empty = Cover(("a", "b"), ())
        nl = decompose(empty)
        assert evaluate_netlist(nl, (0, 0)) == 0 and evaluate_netlist(nl, (1, 1)) == 0
        taut = Cover(("a", "b"), ("--",))
        assert evaluate_netlist(decompose(taut), (0, 1)) == 1

    def test_a_cube_of_dont_cares_only_builds_one_node(self, monkeypatch):
        # the other parts would build nodes that the constant OR leaves dead
        insert = NetlistBuilder._insert
        inserted = []

        def counting(builder, node):
            inserted.append(node)
            return insert(builder, node)

        monkeypatch.setattr(NetlistBuilder, "_insert", counting)
        cover = Cover(("a", "b", "c", "d"), ("1100", "0-11", "----", "11-0"))
        nl = decompose(cover)
        assert [node.kind for node in inserted] == [KIND_CONST]
        assert [(node.kind, node.value) for node in nl.nodes] == [(KIND_CONST, 1)]

    def test_literal_covers(self):
        lit = Cover(("a", "b"), ("1-",))
        nl = decompose(lit)
        assert nl.output.kind == "input" and nl.output.index == 0
        neg = Cover(("a", "b"), ("-0",))
        assert netlist_to_expr(decompose(neg)) == "~b"

    def test_phase_inverters_are_explicit_and_shared(self):
        c = Cover(("a", "b"), ("01",))  # not-a AND b
        nl = decompose(c)
        assert netlist_to_expr(nl) == "SYM[2](~a, b)"
        assert phased_inputs(nl) == {0}

    @pytest.mark.parametrize("cube, expr", [
        ("10", "SYM[0](~a, b)"),
        ("01", "SYM[2](~a, b)"),
        ("101", "SYM[3](a, ~b, c)"),
        ("010", "SYM[0](a, ~b, c)"),
        ("1001", "SYM[0](~a, b, c, ~d)"),
    ])
    def test_a_product_takes_the_phase_of_its_majority_or_of_input_one(self, cube, expr):
        # on a tie (10, 01, 1001) the node is high exactly when input 1 reads 1
        assert netlist_to_expr(decompose(Cover(tuple("abcd"[: len(cube)]), (cube,)))) == expr

    # pinned before two-cube covers took their core in closed form
    @pytest.mark.parametrize("cubes, expr", [
        (("1100", "0011"), "SYM[0,4](a, b, ~c, ~d)"),
        (("110-", "-011"), "(SYM[0](~a, ~b, c) + SYM[3](~b, c, d))"),
        (("10-1", "01-1"), "(SYM[1](a, b) & d)"),
        (("11--", "--00"), "((SYM[0,1](a, b) & SYM[0](c, d)) + SYM[2](a, b))"),
        (("1-0-1", "0-1-0"), "SYM[0,3](a, ~c, e)"),
    ])
    def test_two_cube_covers(self, cubes, expr, monkeypatch):
        # the closed form serves every two-cube cover: no core search is built
        monkeypatch.setattr(cores, "CoreSearch", None)
        names = tuple("abcde"[: len(cubes[0])])
        assert netlist_to_expr(decompose(Cover(names, cubes))) == expr


def product_covers():
    """Seeded one-cube covers of 8-24 live inputs; every other one is a tie
    of 1s and 0s, and some declare more than 24 inputs."""
    rng = random.Random(2024)
    for k, width in enumerate((8, 10, 12, 15, 18, 21, 24)):
        declared = width + rng.choice((0, rng.randint(1, 8)))
        if k % 2:
            symbols = ["1", "0"] * (width // 2) + ["1"] * (width % 2)
            rng.shuffle(symbols)
        else:
            symbols = [rng.choice("01") for _ in range(width)]
        cube = ["-"] * declared
        for j, sym in zip(sorted(rng.sample(range(declared), width)), symbols):
            cube[j] = sym
        names = tuple(f"x{i}" for i in range(declared))
        yield Cover(names, ("".join(cube),) * rng.randint(1, 2))


class TestProductLeaf:
    """A one-cube cover is the SYM node the core search and rank cut give it."""

    @staticmethod
    def phased_operands(nl, node):
        out = []
        for ref in node.operands:
            if ref.kind == "node":
                inv = nl.nodes[ref.index]
                assert inv.kind == KIND_INV
                out.append((inv.operands[0].index, True))
            else:
                out.append((ref.index, False))
        return out

    def test_matches_the_core_search(self):
        for cover in product_covers():
            local = restrict(cover)
            core = best_core(CoreSearch(local))
            assert core.sym_inputs == tuple(range(local.n))
            ((g, h),) = factor_core(core)
            assert h.cubes == ("",)
            nl = decompose(cover)
            out = nl.nodes[nl.output.index]
            assert out.kind == KIND_SYM and out.ranks == g.ranks
            assert self.phased_operands(nl, out) == [
                (cover.input_names.index(local.input_names[j]), j in core.inverted)
                for j in core.sym_inputs
            ]


class TestEquivalence:
    def test_all_functions_up_to_three_inputs(self):
        for n in range(1, 4):
            names = tuple(f"x{i}" for i in range(n))
            for bits in range(1 << (1 << n)):
                cover = minterms_to_cover(MintermSet(n, bits), names)
                nl = decompose(cover)
                assert verify(nl, cover), (n, bits)

    def test_random_covers_fast_and_slow_oracles(self):
        rng = random.Random(42)
        for _ in range(30):
            c = random_cover(rng, rng.randint(2, 7), rng.randint(1, 20))
            nl = decompose(c)
            assert verify(nl, c)
            assert slow_equivalent(nl, c)

    def test_duplicate_and_contained_cubes(self):
        c = Cover(("a", "b", "c"), ("11-", "11-", "111", "---", "000"))
        assert verify(decompose(c), c)

    def test_split_by_dont_care_count_preserves_equivalence(self):
        rng = random.Random(9)
        for _ in range(20):
            c = random_cover(rng, rng.randint(2, 7), rng.randint(1, 16))
            assert verify(decompose(c), c)

    def test_every_searched_cover_has_one_dont_care_count(self, monkeypatch):
        """A core's orbits keep each cube's ``-`` count, so the engine splits
        every sub-cover by that count before it looks for a core."""
        searched = []

        def recording(search):
            def record(cover):
                searched.append(cover)
                return search(cover)

            return record

        monkeypatch.setattr(cores, "CoreSearch", recording(cores.CoreSearch))
        monkeypatch.setattr(cores, "two_cube_core", recording(cores.two_cube_core))
        rng = random.Random(4101)
        covers = [random_cover(rng, n, rng.randint(n, 3 * n)) for n in range(8, 15)]
        covers += [threshold_products(rng, n) for n in range(10, 15)]
        for cover in covers:
            assert verify(decompose(cover), cover)
        assert searched
        for cover in searched:
            counts = {(ones | zeros).bit_count() for ones, zeros in cover.bit_cubes}
            assert len(counts) == 1, cover


class TestNetlistInvariants:
    def sample_netlists(self):
        rng = random.Random(13)
        out = [decompose(CARRY), decompose(XOR_PAIR)]
        for _ in range(20):
            out.append(decompose(random_cover(rng, rng.randint(2, 7), rng.randint(1, 16))))
        return out

    def test_disjoint_products_have_disjoint_supports(self):
        for nl in self.sample_netlists():
            sup = supports(nl)

            def support(ref):
                return frozenset((ref.index,)) if ref.kind == "input" else sup[ref.index]

            for node in nl.nodes:
                if node.kind == KIND_AND:
                    union = set()
                    total = 0
                    for op in node.operands:
                        s = support(op)
                        union |= s
                        total += len(s)
                    assert total == len(union)

    def test_sym_nodes_carry_proper_rank_sets(self):
        for nl in self.sample_netlists():
            for node in nl.nodes:
                if node.kind == KIND_SYM:
                    k = len(node.operands)
                    assert k >= 2
                    assert frozenset() < node.ranks < frozenset(range(k + 1))

    def test_finish_drops_no_or_node(self, monkeypatch):
        # a term whose G holds every rank is its cofactor's own terms, so the
        # engine builds no OR that the caller's OR flattens and leaves dead; a
        # constant output leaves every node dead, so its covers are skipped
        finish = NetlistBuilder.finish
        dropped = []

        def counting(builder, output):
            nl = finish(builder, output)
            if output.kind == "input" or builder._nodes[output.index].kind != KIND_CONST:
                ors = [node.kind == KIND_OR for node in builder._nodes]
                dropped.append(sum(ors) - sum(node.kind == KIND_OR for node in nl.nodes))
            return nl

        monkeypatch.setattr(NetlistBuilder, "finish", counting)
        rng = random.Random(61)
        for _ in range(80):
            n = rng.randint(5, 11)
            decompose(random_cover(rng, n, rng.randint(n, 4 * n)))
        assert len(dropped) > 70 and not any(dropped)

    def test_netlists_are_acyclic_and_pruned(self):
        for nl in self.sample_netlists():
            reachable = set()
            stack = [nl.output] if nl.output.kind == "node" else []
            while stack:
                ref = stack.pop()
                if ref.index in reachable:
                    continue
                reachable.add(ref.index)
                for op in nl.nodes[ref.index].operands:
                    assert op.kind == "input" or op.index < ref.index
                    if op.kind == "node":
                        stack.append(op)
            assert reachable == set(range(len(nl.nodes)))


class TestVerify:
    def test_mismatch_produces_a_witness(self):
        parity = minterms_to_cover(
            MintermSet.from_indices(3, [v for v in range(8) if bin(v).count("1") % 2]),
            ("a", "b", "c"),
        )
        nl = decompose(CARRY)  # wrong function on purpose
        result = verify(nl, parity.__class__(("a", "b", "c"), parity.cubes))
        assert not result
        assert bool(result) is False and result.equivalent is False
        assert bool(verify(nl, CARRY)) is True
        a = result.witness
        assert evaluate_netlist(nl, a) != eval_cover(parity, a)

    def test_input_name_mismatch_rejected(self):
        nl = decompose(CARRY)
        with pytest.raises(ValueError):
            verify(nl, Cover(("x", "y", "z"), ("11-",)))

    def test_the_mismatch_names_both_input_lists(self):
        # the same names in another order are a mismatch too
        nl = decompose(Cover(("b", "a"), ("10",)))
        message = r"^netlist inputs \(b, a\) differ from the cover's \(a, b\)$"
        with pytest.raises(ValueError, match=message):
            verify(nl, Cover(("a", "b"), ("01",)))

    def test_wide_cover_sampling_path(self):
        # 22 inputs takes the block-by-block branch
        n = 22
        names = tuple(f"x{i}" for i in range(n))
        cube = "1" + "-" * (n - 1)
        c = Cover(names, (cube,))
        b = NetlistBuilder(names)
        good = b.finish(b.input(0))
        assert verify(good, c)
        b2 = NetlistBuilder(names)
        bad = b2.finish(b2.inv(b2.input(0)))
        result = verify(bad, c)
        assert not result and result.witness is not None

    def test_every_block_is_checked_up_to_the_cap(self):
        # a sampled check at 21 inputs missed the one differing assignment
        n = 21
        names = tuple(f"x{i}" for i in range(n))
        b = NetlistBuilder(names)
        const0 = b.finish(b.const(0))
        result = verify(const0, Cover(names, ("0" * n,)))
        assert not result
        assert result.witness == (0,) * n
        assert result.exhaustive

    @staticmethod
    def product_netlist(cover: Cover):
        """The cover as an OR of one AND-like SYM node per cube, built independently."""
        b = NetlistBuilder(cover.input_names)
        terms = []
        for cube in cover.cubes:
            ops = [
                b.inv(b.input(j)) if s == "0" else b.input(j)
                for j, s in enumerate(cube)
                if s != "-"
            ]
            terms.append(b.sym((len(ops),), ops))
        return b.finish(b.or_(terms))

    def test_twenty_inputs_are_checked_in_blocks_of_small_tables(self):
        import tracemalloc

        cover = random_cover(random.Random(20), 20, 60)
        nl = self.product_netlist(cover)
        tracemalloc.start()
        try:
            result = verify(nl, cover)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.equivalent and result.exhaustive
        assert result.checked == 1 << 20
        assert peak < 8 << 20, peak

    def test_a_mismatch_over_sixteen_inputs_returns_the_lowest_differing_assignment(self):
        # x0 against x0 + ~x0 x10 x16 ~x17 + ~x0 x2 x17: the sides differ in
        # block x16 x17 = 10 from x10 up, and in blocks 01 and 11 from x2 up;
        # the lowest assignment sets x10 and x16 alone
        n = 18
        names = tuple(f"x{i}" for i in range(n))
        cubes = ("1" + "-" * 17, "0" + "-" * 9 + "1" + "-" * 5 + "10", "0-1" + "-" * 14 + "1")
        cover = Cover(names, cubes)
        b = NetlistBuilder(names)
        result = verify(b.finish(b.input(0)), cover)
        assert not result.equivalent and result.exhaustive
        assert result.witness == tuple(int(j in (10, 16)) for j in range(n))
        assert result.checked == 2 << 16  # two blocks compared, the second differs

    @pytest.mark.parametrize(
        "n, exhaustive, checked",
        [(3, True, 8), (20, True, 1 << 20), (22, True, 1 << 22), (26, False, 1 << 20)],
    )
    def test_result_reports_coverage(self, n, exhaustive, checked):
        names = tuple(f"x{i}" for i in range(n))
        b = NetlistBuilder(names)
        result = verify(b.finish(b.input(0)), Cover(names, ("1" + "-" * (n - 1),)))
        assert result.equivalent
        assert (result.exhaustive, result.checked) == (exhaustive, checked)


def two_input_covers():
    """Every set of non-tautology 2-input cubes that uses both inputs."""
    cubes = [a + b for a in "01-" for b in "01-" if a + b != "--"]
    for m in range(1, len(cubes) + 1):
        for subset in combinations(cubes, m):
            if all(any(c[j] != "-" for c in subset) for j in (0, 1)):
                yield Cover(("a", "b"), subset)


def live_input_covers():
    """Seeded covers of 3-9 inputs, all live, with no all-don't-care cube."""
    rng = random.Random(77)
    while True:
        n = rng.randint(3, 9)
        cubes = [c for c in random_cover(rng, n, rng.randint(1, 3 * n)).cubes if c.strip("-")]
        if all(any(c[j] != "-" for c in cubes) for j in range(n)):
            yield Cover(tuple(f"x{i}" for i in range(n)), tuple(cubes))


class TestGuards:
    def test_depth_guard_raises(self, monkeypatch):
        # the package re-exports the function under the module's name
        monkeypatch.setattr(sys.modules["gridsyn.decompose"], "_DEPTH_LIMIT", -1)
        with pytest.raises(DecompositionError, match="guard"):
            decompose(XOR_PAIR)

    def test_a_core_without_cubes_raises(self, monkeypatch):
        # such a core would leave the remainder unchanged, pass after pass
        monkeypatch.setattr(
            cores, "best_core", lambda search: Core(search.cover, 0, 0b11, 0)
        )
        with pytest.raises(DecompositionError, match="no pair core"):
            decompose(XOR_PAIR)

    @pytest.mark.parametrize("n", [10, 12, 14])
    def test_recursion_depth_follows_the_inputs_not_the_cores(self, monkeypatch, n):
        # only cofactors recurse, and each drops the two or more inputs of
        # its core, so a depth over n // 2 would mean the remainder recursed
        monkeypatch.setattr(sys.modules["gridsyn.decompose"], "_DEPTH_LIMIT", n // 2)
        for s in range(3):
            cover = random_cover(random.Random(100 * n + s), n, 20 * n)
            assert verify(decompose(cover), cover)

    def test_every_cover_with_two_live_inputs_has_a_pair_core(self):
        # the invariant that lets the decomposer recurse without a fallback
        rng_covers = live_input_covers()
        covers = list(two_input_covers()) + [next(rng_covers) for _ in range(150)]
        assert len(covers) == 249 + 150
        for cover in covers:
            core = best_core(CoreSearch(cover))
            assert core is not None and core.cube_indices, cover

    def test_expansion_cap(self):
        """Over the cap a cover that needs a truth table is refused, but a
        product needs none and decomposes to its one SYM node."""
        n = 26
        names = tuple(f"x{i}" for i in range(n))
        cubes = ("10" * (n // 2), "01" * (n // 2))
        from gridsyn import CapacityError

        with pytest.raises(CapacityError, match="of 26 inputs exceeds the 24-input cap"):
            decompose(Cover(names, cubes))
        product = Cover(names, (cubes[0],))
        nl = decompose(product)
        assert len(nl.sym_nodes()) == 1
        assert netlist_to_expr(nl) == "SYM[0](" + ", ".join(
            f"~x{i}" if i % 2 == 0 else f"x{i}" for i in range(n)
        ) + ")"
        check = verify(nl, product)
        assert check and not check.exhaustive

    def test_a_wide_cover_reading_few_inputs_decomposes(self):
        names = tuple(f"x{i}" for i in range(30))
        cube = ["-"] * 30
        for j, sym in zip((3, 9, 14, 20, 27), "10110"):
            cube[j] = sym
        nl = decompose(Cover(names, ("".join(cube),)))
        assert netlist_to_expr(nl) == "SYM[5](x3, ~x9, x14, x20, ~x27)"
