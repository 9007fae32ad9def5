import random

import pytest

from gridsyn import (
    Cover,
    FullRankSet,
    MintermSet,
    ParseError,
    decompose,
    intervals,
    library_from_pitch_table,
    library_inventory,
    map_netlist,
    map_sf,
    scell_count,
    verify,
)
from gridsyn.netlist import KIND_SYM, NetlistBuilder
from gridsyn.tcells import MappingError, TCellLibrary, ThresholdCell

from helpers import (
    all_assignments,
    evaluate_netlist,
    minterms_to_cover,
    random_cover,
    sf_impl_value,
    sf_minterms,
)

CARRY = Cover(("a", "b", "c"), ("11-", "1-1", "-11"))
SUM3 = Cover(("a", "b", "c"), ("100", "010", "001", "111"))


class TestIntervals:
    def test_contiguous_run(self):
        assert intervals(FullRankSet(3, {1, 2, 3})) == [(1, 3)]

    def test_two_unit_intervals(self):
        assert intervals(FullRankSet(3, {1, 3})) == [(1, 1), (3, 3)]

    def test_empty(self):
        assert intervals(FullRankSet(4, frozenset())) == []


class TestMapSf:
    def test_sum_form(self):
        assert map_sf(FullRankSet(3, {1, 3})).terms == ((1, 2), (3, None))

    def test_carry_form(self):
        assert map_sf(FullRankSet(3, {2, 3})).terms == ((2, None),)

    def test_low_interval_drops_lower_threshold(self):
        impl = map_sf(FullRankSet(4, {0, 1}))
        assert impl.terms == ((None, 2),)
        for ones in range(5):
            assert sf_impl_value(impl, ones) == (1 if ones <= 1 else 0)

    def test_tautology_and_empty(self):
        assert map_sf(FullRankSet(2, {0, 1, 2})).terms == ((None, None),)
        assert map_sf(FullRankSet(2, frozenset())).terms == ()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive_equivalence_all_rank_sets(self, n):
        for mask in range(1 << (n + 1)):
            ranks = frozenset(r for r in range(n + 1) if (mask >> r) & 1)
            impl = map_sf(FullRankSet(n, ranks))
            assert len(impl.terms) == len(intervals(FullRankSet(n, ranks)))
            truth = sf_minterms(FullRankSet(n, ranks))
            for v in range(1 << n):
                assert sf_impl_value(impl, bin(v).count("1")) == (v in truth)


class TestLibrary:
    def test_cell_counts(self):
        assert len(library_inventory(4).cells) == 10
        assert len(library_inventory(5).cells) == 15
        assert len(library_inventory(1).cells) == 1

    @pytest.mark.parametrize("n", range(1, 17))
    def test_count_formula(self, n):
        assert len(library_inventory(n).cells) == n * (n + 1) // 2

    def test_scell_counts(self):
        assert scell_count(4) == 26
        assert scell_count(5) == 57
        assert scell_count(2) == 4

    def test_scell_minimum_arity(self):
        with pytest.raises(ValueError):
            scell_count(1)

    def test_default_costs(self):
        lib = library_inventory(5)
        assert lib.cost(5, 3) == 5.0
        assert lib.cost(2, 1) == 2.0
        assert lib.inverter_cost == 1.0

    def test_invalid_cell(self):
        with pytest.raises(ValueError):
            ThresholdCell(3, 4)
        for arity, threshold in ((3, 4), (3, 0), (0, 0)):
            with pytest.raises(ValueError) as exc:
                ThresholdCell(arity, threshold)
            assert str(exc.value) == "threshold must lie in [1, arity]"
        with pytest.raises(ValueError) as exc:
            TCellLibrary(0, {})
        assert str(exc.value) == "library needs max_arity >= 1"
        assert TCellLibrary(1, {(1, 1): 1.0}).inverter_cost == 1.0


class TestMapNetlist:
    def test_carry_maps_to_one_cell(self):
        result = map_netlist(decompose(CARRY), library_inventory(5))
        assert [(u.name, u.count) for u in result.cells] == [("t2of3", 1)]
        assert result.total_pitches == 3.0

    def test_sum_maps_to_pair_product_with_glue(self):
        result = map_netlist(decompose(SUM3), library_inventory(5))
        names = {u.name: u.count for u in result.cells}
        assert names == {
            "inv": 1,
            "t1of2": 1,   # OR glue
            "t2of2": 1,   # AND glue
            "t1of3": 1,
            "t2of3": 1,
            "t3of3": 1,
        }
        assert result.total_pitches == 14.0

    def test_parity4_uses_three_terms(self):
        parity = minterms_to_cover(
            MintermSet.from_indices(4, [v for v in range(16) if bin(v).count("1") % 2]),
            ("a", "b", "c", "d"),
        )
        result = map_netlist(decompose(parity), library_inventory(5))
        wide = [u for u in result.cells if u.arity == 4]
        assert sum(u.count for u in wide) == 4  # t1..t4 of 4
        assert result.total_pitches > 20  # notably expensive without an xor cell

    def test_mapped_netlists_stay_equivalent(self):
        rng = random.Random(21)
        lib = library_inventory(8)
        for _ in range(25):
            c = random_cover(rng, rng.randint(2, 7), rng.randint(1, 14))
            nl = decompose(c)
            result = map_netlist(nl, lib)
            assert verify(result.netlist, c)

    def test_mapped_netlists_use_only_threshold_shapes(self):
        rng = random.Random(22)
        lib = library_inventory(8)
        for _ in range(15):
            c = random_cover(rng, rng.randint(2, 7), rng.randint(1, 12))
            result = map_netlist(decompose(c), lib)
            for node in result.netlist.nodes:
                if node.kind == KIND_SYM:
                    k = len(node.operands)
                    lo = min(node.ranks)
                    assert node.ranks == frozenset(range(lo, k + 1))

    def test_wide_component_rejected(self):
        or6 = Cover(tuple(f"x{i}" for i in range(6)), tuple(
            "-" * i + "1" + "-" * (5 - i) for i in range(6)
        ))
        nl = decompose(or6)
        with pytest.raises(MappingError, match="exceeds library arity"):
            map_netlist(nl, library_inventory(5))

    def test_shared_upper_threshold_counted_once(self):
        # SYM[1,3] and SYM[2,3] of the same operands share the T2 cell
        b = NetlistBuilder(("a", "b", "c"))
        ops = tuple(b.input(i) for i in range(3))
        both = b.or_([
            b.and_disjoint([]),  # const 1, vanishes in or_
            b.sym({1, 3}, ops),
        ])
        nl = b.finish(b.sym({1, 3}, ops))
        result = map_netlist(nl, library_inventory(3))
        t2 = [u for u in result.cells if u.name == "t2of3"]
        assert t2 and t2[0].count == 1


class TestPitchTables:
    TABLE = """\
# custom costs
inv   1 - 0.5
t     2 1 2
t     2 2 2
t     3 1 4
t     3 2 4
t     3 3 4
"""

    def test_load_and_use(self):
        lib = library_from_pitch_table(self.TABLE)
        assert lib.max_arity == 3
        assert lib.inverter_cost == 0.5
        result = map_netlist(decompose(SUM3), lib)
        assert result.total_pitches == 0.5 + 2 + 2 + 4 + 4 + 4

    def test_missing_cost_detected(self):
        lib = library_from_pitch_table("t 2 1 2\nt 2 2 2\n", max_arity=3)
        with pytest.raises(MappingError, match="no pitch cost"):
            map_netlist(decompose(CARRY), lib)

    @pytest.mark.parametrize(
        "text,match",
        [
            ("t 2 1\n", "name arity threshold cost"),
            ("t 2 1 x\n", "bad cost"),
            ("t 2 1 0\n", "positive"),
            ("t 2 3 1\n", "threshold"),
            ("t x 1 1\n", "integers"),
            ("", "no threshold cells"),
        ],
    )
    def test_parse_errors(self, text, match):
        with pytest.raises(ParseError, match=match):
            library_from_pitch_table(text)
