import hashlib
import itertools
import random

import pytest

from gridsyn import (
    Core,
    CoreSearch,
    Cover,
    best_core,
    best_pair_cores,
    cover_to_minterms,
    dc_partition,
    decompose,
    expand_core,
)

from gridsyn.cores import _pair_masks, _selection_key, two_cube_core

from helpers import (
    _closed,
    oracle_closed_subset,
    pair_seed,
    permute_cover,
    phase_cover,
    phase_cube,
    random_cover,
    random_cube_pair,
    positions,
    random_cover_with_duplicates,
    reference_best_core,
    reference_expand_core,
    swap_image,
    threshold_products,
)

CARRY = Cover(("a", "b", "c"), ("11-", "1-1", "-11"))
XOR_PAIR = Cover(("a", "b", "c", "d"), ("1010", "1001", "0110", "0101"))
PARITY4 = Cover(
    ("a", "b", "c", "d"),
    ("1000", "0100", "0010", "0001", "1110", "1101", "1011", "0111"),
)


def core_is_symmetric(core: Core) -> bool:
    """Independent check: the phased minterm set survives adjacent swaps of Z."""
    sub = phase_cover(
        Cover(core.base.input_names, (core.base.cubes[i] for i in core.cube_indices)),
        core.inverted,
    )
    s = set(cover_to_minterms(sub).to_strings())
    n = core.base.n
    for i, j in zip(core.sym_inputs, core.sym_inputs[1:]):
        perm = list(range(n))
        perm[i], perm[j] = perm[j], perm[i]
        if set(cover_to_minterms(permute_cover(sub, perm)).to_strings()) != s:
            return False
    return True


def pair_core(cover: Cover, a: int, b: int, invert_a: bool = False) -> Core:
    """The search's pair core of (a, b), with ``a`` complemented when asked."""
    cubes = CoreSearch(cover).partner[a][invert_a][b]
    return Core(cover, cubes, 1 << a | 1 << b, invert_a << a)


class TestPairCore:
    def test_carry_is_closed_under_any_pair(self):
        core = pair_core(CARRY, 0, 1)
        assert core.cube_indices == (0, 1, 2)

    def test_swap_image_must_be_present(self):
        c = Cover(("a", "b", "c"), ("10-", "0-1"))
        assert pair_core(c, 0, 1).cube_indices == ()
        flipped = pair_core(c, 0, 1, invert_a=True)
        assert flipped.cube_indices == (0,)
        assert flipped.inverted == {0}

    def test_single_product_cube_needs_inversion(self):
        c = Cover(("a", "b"), ("01",))
        assert pair_core(c, 0, 1).cube_indices == ()
        assert pair_core(c, 0, 1, invert_a=True).cube_indices == (0,)

    def test_double_inversion_equals_plain(self):
        rng = random.Random(2)
        for _ in range(30):
            c = random_cover(rng, rng.randint(2, 6), rng.randint(1, 12))
            a, b = rng.sample(range(c.n), 2)
            both = phase_cover(c, [a, b])
            assert pair_core(both, a, b).cube_indices == pair_core(c, a, b).cube_indices

    def test_emitted_cores_are_semantically_symmetric(self):
        rng = random.Random(3)
        for _ in range(40):
            c = random_cover(rng, rng.randint(2, 7), rng.randint(1, 16))
            a, b = rng.sample(range(c.n), 2)
            for invert in (False, True):
                core = pair_core(c, a, b, invert_a=invert)
                assert core == pair_seed(c, a, b, invert_a=invert)
                if core.cube_indices:
                    assert core_is_symmetric(core)


class TestCoreValidation:
    @pytest.mark.parametrize("z", [-1, -0b10, 0b1000, 0b1011])
    def test_sym_inputs_outside_the_cover_rejected(self, z):
        with pytest.raises(ValueError, match="input mask .* outside the cover's 3 inputs"):
            Core(CARRY, 0b1, z, 0)

    @pytest.mark.parametrize("cubes", [-1, -0b100, 0b1000, 0b1001])
    def test_cubes_outside_the_cover_rejected(self, cubes):
        with pytest.raises(ValueError, match="cube mask .* outside the cover's 3 cubes"):
            Core(CARRY, cubes, 0b11, 0)

    @pytest.mark.parametrize("flips", [0b100, 0b111, -1])
    def test_inverted_outside_z_rejected(self, flips):
        with pytest.raises(ValueError, match="inverted"):
            Core(CARRY, 0b1, 0b11, flips)

    def test_messages(self):
        for args, message in (
            ((0b1000, 0b11, 0), "cube mask 0x8 outside the cover's 3 cubes"),
            ((0b1, 0b1000, 0), "input mask 0x8 outside the cover's 3 inputs"),
            ((0b1, 0b11, 0b100), "inverted inputs must lie inside the symmetric set"),
        ):
            with pytest.raises(ValueError) as exc:
                Core(CARRY, *args)
            assert str(exc.value) == message

    def test_valid_core_reads_its_masks(self):
        core = Core(CARRY, 0b101, 0b101, 0b1)
        assert (core.cube_indices, core.sym_inputs, core.inverted) == ((0, 2), (0, 2), {0})
        assert (core.cube_count, core.width, core.score) == (2, 2, 8)


class TestBestPairCores:
    def test_carry_every_pair_full_and_plain(self):
        for core in best_pair_cores(CoreSearch(CARRY)).values():
            assert not core.flips
            assert core.cube_count == 3

    def test_pair_product_favors_the_paired_inputs(self):
        cores = best_pair_cores(CoreSearch(XOR_PAIR))
        sizes = {pair: core.cube_count for pair, core in cores.items()}
        assert sizes[(0, 1)] == 4 and sizes[(2, 3)] == 4
        assert all(size < 4 for pair, size in sizes.items() if pair not in ((0, 1), (2, 3)))

    def test_single_cube_prefers_inverted_when_larger(self):
        c = Cover(("a", "b"), ("10",))
        core = best_pair_cores(CoreSearch(c))[(0, 1)]
        assert core.flips == 0b1 and core.cube_count == 1

    def test_a_pair_core_is_over_its_pair_and_flips_at_most_the_first(self):
        rng = random.Random(2032)
        for _ in range(60):
            c = random_cover_with_duplicates(rng, rng.randint(2, 8), rng.randint(1, 16))
            search = CoreSearch(c)
            for (a, b), core in best_pair_cores(search).items():
                assert a < b and core.z == 1 << a | 1 << b
                assert core.flips in (0, 1 << a)
                assert core.cubes == search.partner[a][bool(core.flips)][b]

    def test_needs_two_inputs(self):
        assert best_pair_cores(CoreSearch(Cover(("a",), ("1",)))) == {}
        assert best_pair_cores(CoreSearch(Cover((), ("",)))) == {}


class TestExpand:
    def test_carry_expands_to_full_width(self):
        seed = pair_core(CARRY, 0, 1)
        core = expand_core(seed, CoreSearch(CARRY))
        assert core.sym_inputs == (0, 1, 2)
        assert (core.cube_count, core.width, core.score) == (3, 3, 27)

    def test_pair_product_does_not_widen(self):
        seed = pair_core(XOR_PAIR, 0, 1)
        core = expand_core(seed, CoreSearch(XOR_PAIR))
        assert core.sym_inputs == (0, 1)
        assert (core.cube_count, core.width, core.score) == (4, 2, 16)

    def test_parity_expands_to_all_inputs(self):
        seed = pair_core(PARITY4, 0, 1)
        core = expand_core(seed, CoreSearch(PARITY4))
        assert core.sym_inputs == (0, 1, 2, 3)
        assert (core.cube_count, core.width, core.score) == (8, 4, 128)

    def test_expansion_never_lowers_the_score(self):
        rng = random.Random(5)
        for _ in range(30):
            c = random_cover(rng, rng.randint(2, 7), rng.randint(1, 16))
            search = CoreSearch(c)
            for core in best_pair_cores(search).values():
                if not core.cubes:
                    continue
                wide = expand_core(core, search)
                assert wide.score == wide.cube_count * wide.width**2
                assert wide.score >= core.cube_count * core.width**2

    def test_expanded_cores_stay_symmetric(self):
        rng = random.Random(6)
        for _ in range(25):
            c = random_cover(rng, rng.randint(3, 7), rng.randint(2, 14))
            core = best_core(CoreSearch(c))
            if core is not None and core.cube_indices:
                assert core_is_symmetric(core)

    def test_zero_input_cover_keeps_the_seed(self):
        c = Cover((), ("",))
        core = expand_core(Core(c, 0, 0, 0), CoreSearch(c))
        assert (core.cube_indices, core.sym_inputs, core.score) == ((), (), 0)

    def test_seed_of_another_cover_rejected(self):
        four = Cover(("a", "b", "c", "d"), ("1-1-", "-11-", "11--"))
        seed = pair_core(four, 2, 3)
        with pytest.raises(ValueError, match="another cover"):
            expand_core(seed, CoreSearch(CARRY))

    def test_search_of_another_cover_rejected(self):
        seed = pair_core(CARRY, 0, 1)
        with pytest.raises(ValueError, match="another cover"):
            expand_core(seed, CoreSearch(PARITY4))
        equal = Cover(CARRY.input_names, CARRY.cubes)
        assert expand_core(seed, CoreSearch(equal)) == expand_core(seed, CoreSearch(CARRY))
        assert expand_core(seed, CoreSearch(CARRY)).cube_count == 3


class TestSelect:
    """``_selection_key``, the rule by which ``best_core`` picks among widened seeds."""

    @staticmethod
    def key(count, width, inverted=(), z=None):
        z = tuple(range(width)) if z is None else z
        return _selection_key(count * width * width, width, len(inverted), z)

    def test_highest_score_wins(self):
        assert self.key(3, 3) < self.key(4, 2)

    def test_tie_prefers_wider(self):
        assert self.key(1, 4) < self.key(4, 2)  # both score 16

    def test_tie_prefers_fewer_inversions_then_smallest_inputs(self):
        a = self.key(2, 2, inverted=(0,), z=(0, 1))
        b = self.key(2, 2, inverted=(), z=(2, 3))
        c = self.key(2, 2, inverted=(), z=(0, 3))
        assert b < a
        assert c < b

    def test_no_candidates_gives_none(self):
        assert best_core(CoreSearch(Cover(("a", "b", "c"), ()))) is None
        assert best_core(CoreSearch(Cover(("a",), ("1",)))) is None


class TestDcPartition:
    def test_groups_by_dont_care_count(self):
        c = Cover(("a", "b", "c"), ("11-", "1-1", "-11", "111"))
        parts = dc_partition(c)
        assert [p.cubes for p in parts] == [("11-", "1-1", "-11"), ("111",)]

    def test_uniform_cover_is_one_part(self):
        assert len(dc_partition(PARITY4)) == 1

    def test_empty_cover(self):
        assert dc_partition(Cover(("a",), ())) == []

    def test_parts_repartition_the_cube_list(self):
        rng = random.Random(7)
        for _ in range(20):
            c = random_cover(rng, rng.randint(1, 6), rng.randint(0, 15))
            parts = dc_partition(c)
            assert sorted(q for p in parts for q in p.cubes) == sorted(c.cubes)
            union = 0
            for p in parts:
                union |= cover_to_minterms(p).bits
            assert union == cover_to_minterms(c).bits


    def test_parts_are_the_cube_strings_grouped_and_parsed(self):
        rng = random.Random(231)
        for _ in range(100):
            c = random_cover_with_duplicates(rng, rng.randint(1, 10), rng.randint(1, 16))
            groups: dict[int, list[str]] = {}
            for cube in c.cubes:
                groups.setdefault(cube.count("-"), []).append(cube)
            parts = dc_partition(c)
            assert parts == [Cover(c.input_names, g) for g in groups.values()]
            for part in parts:
                assert "bit_cubes" in vars(part)  # the parent's masks, not parsed again
                assert part.bit_cubes == Cover(part.input_names, part.cubes).bit_cubes


class TestClosure:
    def test_class_count_matches_orbit_search(self):
        rng = random.Random(2000)
        for _ in range(400):
            n = rng.randint(2, 8)
            cover = random_cover_with_duplicates(rng, n, rng.randint(1, 14))
            z = sorted(rng.sample(range(n), rng.randint(2, n)))
            inverted = {j for j in z if rng.random() < 0.4}
            indices = [i for i in range(cover.m) if rng.random() < 0.8]
            phased = [phase_cube(cube, inverted) for cube in cover.cubes]
            closed = oracle_closed_subset({phased[i] for i in indices}, list(zip(z, z[1:])))
            expected = [i for i in indices if phased[i] in closed]
            z_mask = sum(1 << j for j in z)
            flips = sum(1 << j for j in inverted)
            mask = sum(1 << i for i in indices)
            assert positions(_closed(cover.bit_cubes, mask, z_mask, flips)) == expected


class TestSearchClosure:
    """The search's closure, a fixpoint over the pair scan's swap partners,
    equals the reference closure by class counting."""

    @staticmethod
    def starts(search: CoreSearch, z: int, flips: int, rng: random.Random):
        """The whole cover, a random part of it, a pair core inside Z, and
        ``bound & core`` as the widening forms it."""
        every = (1 << search.cover.m) - 1
        a, b = rng.sample(positions(z), 2)
        yield every
        yield every & rng.getrandbits(search.cover.m)
        yield search.partner[a][(flips >> a ^ flips >> b) & 1][b]
        x, rest = b, z & ~(1 << b)
        core = _closed(search.cover.bit_cubes, every, rest, flips & rest)
        bound = every
        for c in positions(rest):
            bound &= search.partner[c][(flips >> c ^ flips >> x) & 1][x]
        yield bound & core

    def test_matches_the_reference_on_covers_with_repeated_cubes(self):
        rng = random.Random(2035)
        for _ in range(300):
            n = rng.randint(2, 10)
            cover = random_cover_with_duplicates(rng, n, rng.randint(1, 30))
            search = CoreSearch(cover)
            cubes = cover.bit_cubes
            z = sum(1 << j for j in rng.sample(range(n), rng.randint(2, n)))
            flips = z & rng.getrandbits(n)
            for start in self.starts(search, z, flips, rng):
                assert search._close(start, z, flips) == _closed(cubes, start, z, flips)

    def test_matches_the_reference_on_threshold_products(self):
        """Block products have many swap partners, so the fixpoint drops cubes through them."""
        rng = random.Random(2036)
        for _ in range(40):
            cover = threshold_products(rng, rng.randint(4, 10))
            search = CoreSearch(cover)
            for _ in range(10):
                z = sum(1 << j for j in rng.sample(range(cover.n), rng.randint(2, cover.n)))
                flips = z & rng.getrandbits(cover.n)
                for start in self.starts(search, z, flips, rng):
                    want = _closed(cover.bit_cubes, start, z, flips)
                    assert search._close(start, z, flips) == want

    def test_a_drop_under_one_generator_breaks_a_pair_of_another(self):
        """Under (0 1) "100" and "010" are partners, and "010" is fixed by
        (0 2); "100" needs "001" under (0 2), so it goes, and then "010",
        its partner under (0 1), goes on the next pass."""
        cover = Cover(("a", "b", "c"), ("100", "010"))
        assert CoreSearch(cover)._close(0b11, 0b111, 0) == 0
        assert _closed(cover.bit_cubes, 0b11, 0b111, 0) == 0
        assert CoreSearch(cover)._close(0b11, 0b011, 0) == 0b11

    def test_empty_mask(self):
        search = CoreSearch(CARRY)
        assert search._close(0, 0b111, 0) == 0
        assert search._close(0, 0b011, 0b001) == 0

    def test_cube_of_dont_cares_is_closed_under_any_z(self):
        cover = Cover(("a", "b", "c", "d"), ("----", "1-0-", "----", "10--"))
        search = CoreSearch(cover)
        every = (1 << cover.m) - 1
        for z in range(1, 1 << cover.n):
            if z.bit_count() < 2:
                continue
            for flips in range(1 << cover.n):
                flips &= z
                got = search._close(every, z, flips)
                assert got == _closed(cover.bit_cubes, every, z, flips)
                assert got & 0b0101 == 0b0101


class TestPairScan:
    """The one-pass pair masks equal per-pair closure."""

    @staticmethod
    def by_closure(cover: Cover) -> dict[tuple[int, int], tuple[list[int], list[int]]]:
        cubes = cover.bit_cubes
        every = (1 << len(cubes)) - 1
        return {
            (a, b): (
                positions(_closed(cubes, every, 1 << a | 1 << b, 0)),
                positions(_closed(cubes, every, 1 << a | 1 << b, 1 << a)),
            )
            for a in range(cover.n)
            for b in range(a + 1, cover.n)
        }

    @staticmethod
    def by_scan(cover: Cover) -> dict[tuple[int, int], tuple[list[int], list[int]]]:
        partner, _ = _pair_masks(cover.bit_cubes, cover.n)
        return {
            (a, b): (positions(partner[a][0][b]), positions(partner[a][1][b]))
            for a in range(cover.n)
            for b in range(a + 1, cover.n)
        }

    def test_rows_are_the_self_closed_cubes_and_the_partner_pairs(self):
        rng = random.Random(2034)
        covers = [
            random_cover_with_duplicates(rng, rng.randint(2, 9), rng.randint(0, 20))
            for _ in range(100)
        ] + [threshold_products(rng, rng.randint(2, 10)) for _ in range(100)]
        for cover in covers:
            partner, links = _pair_masks(cover.bit_cubes, cover.n)
            assert all(a < b and f in (0, 1) and pairs for (a, b, f), pairs in links.items())
            for a in range(cover.n):
                for b in range(a + 1, cover.n):
                    for f in (0, 1):
                        row = sum(
                            1 << i
                            for i, cube in enumerate(cover.cubes)
                            if swap_image(cube, a, b, f) == cube
                        )
                        for p, q in links.get((a, b, f), ()):
                            [cube_p] = {cover.cubes[i] for i in positions(p)}
                            [cube_q] = {cover.cubes[i] for i in positions(q)}
                            assert cube_p != cube_q and swap_image(cube_p, a, b, f) == cube_q
                            assert positions(p) == [
                                i for i, cube in enumerate(cover.cubes) if cube == cube_p
                            ]
                            row |= p | q
                        assert partner[a][f][b] == partner[b][f][a] == row

    def test_matches_closure_on_random_covers(self):
        rng = random.Random(2003)
        for _ in range(300):
            cover = random_cover_with_duplicates(rng, rng.randint(2, 9), rng.randint(0, 20))
            assert self.by_scan(cover) == self.by_closure(cover)

    def test_empty_cover(self):
        cover = Cover(("a", "b", "c"), ())
        assert self.by_scan(cover) == self.by_closure(cover)
        assert _pair_masks([], 3) == ([([0] * 3, [0] * 3)] * 3, {})

    def test_one_cube(self):
        cover = Cover(("a", "b", "c"), ("10-",))
        assert self.by_scan(cover) == self.by_closure(cover)
        assert self.by_scan(cover) == {(0, 1): ([], [0]), (0, 2): ([], []), (1, 2): ([], [])}

    def test_plain_partners(self):
        cover = Cover(("a", "b", "c"), ("1-0", "-10"))
        assert self.by_scan(cover) == self.by_closure(cover)
        assert self.by_scan(cover)[0, 1] == ([0, 1], [])

    def test_flip_partners(self):
        cover = Cover(("a", "b", "c"), ("1-0", "-00"))
        assert self.by_scan(cover) == self.by_closure(cover)
        assert self.by_scan(cover)[0, 1] == ([], [0, 1])


class TestPairCoreBound:
    """The fact the widening rests on, checked on seeded covers.

    For x outside Z and flips f, the closure under (Z + {x}, f) lies inside
    the pair core of (a, x) with polarity f(a) xor f(x) for every a in Z, and
    closing the closure under (Z, f) again gives the same cubes.
    """

    def test_widened_closure_lies_in_the_pair_cores_and_recloses(self):
        rng = random.Random(2017)
        for _ in range(400):
            n = rng.randint(3, 10)
            cover = random_cover_with_duplicates(rng, n, rng.randint(1, 30))
            cubes = cover.bit_cubes
            every = (1 << len(cubes)) - 1
            x, *rest = rng.sample(range(n), rng.randint(2, n))
            z = sum(1 << a for a in rest)
            f = sum(1 << a for a in [x, *rest] if rng.random() < 0.4)
            wide = _closed(cubes, every, z | 1 << x, f)
            partner, _ = _pair_masks(cubes, n)
            bound = (1 << len(cubes)) - 1
            for a in rest:
                bound &= partner[a][(f >> a ^ f >> x) & 1][x]
            assert wide & ~bound == 0
            assert _closed(cubes, _closed(cubes, every, z, f & z), z | 1 << x, f) == wide

    def test_inverting_all_of_z_keeps_the_closure(self):
        rng = random.Random(2018)
        for _ in range(300):
            n = rng.randint(2, 9)
            cover = random_cover_with_duplicates(rng, n, rng.randint(1, 20))
            cubes = cover.bit_cubes
            z = sum(1 << a for a in rng.sample(range(n), rng.randint(2, n)))
            f = z & rng.getrandbits(n)
            every = (1 << len(cubes)) - 1
            assert _closed(cubes, every, z, f) == _closed(cubes, every, z, f ^ z)


class TestPrunedSearch:
    """The pruned, shared search returns what the unpruned widening returns.

    ``TestSearchIsPinned`` stops at 8 inputs; here the covers have 8-14,
    where the pair-core bound skips most closures.
    """

    @staticmethod
    def threshold_covers() -> list[Cover]:
        """ORs of threshold-block products, on which top seeds converge."""
        rng = random.Random(2013)
        return [threshold_products(rng, n) for n in range(8, 15)]

    @staticmethod
    def covers() -> list[Cover]:
        rng = random.Random(2013)
        unstructured = [
            random_cover_with_duplicates(rng, n, rng.randint(2 * n, 4 * n)) for n in range(9, 15)
        ]
        return unstructured + TestPrunedSearch.threshold_covers()

    def test_expand_core_from_every_pair_seed(self):
        for cover in self.covers():
            shared = CoreSearch(cover)
            for a in range(cover.n):
                for b in range(a + 1, cover.n):
                    for invert in (False, True):
                        seed = pair_seed(cover, a, b, invert_a=invert)
                        want = reference_expand_core(seed, cover)
                        assert expand_core(seed, CoreSearch(cover)) == want
                        assert expand_core(seed, shared) == want

    def test_best_core(self):
        for cover in self.covers():
            assert best_core(CoreSearch(cover)) == reference_best_core(cover)

    def test_top_seeds_of_threshold_covers_converge(self):
        """So the widening memo answers in ``test_best_core``: two top seeds
        widen to one end, and the later one stops there."""
        for cover in self.threshold_covers():
            seeds = best_pair_cores(CoreSearch(cover)).values()
            size = max(seed.cube_count for seed in seeds)
            ends = [
                expand_core(seed, CoreSearch(cover)) for seed in seeds if seed.cube_count == size
            ]
            assert len(set(ends)) < len(ends)


    def test_decompose_closes_no_extra_candidate(self, monkeypatch):
        """The bound skip gates every closure of a widening step: a weaker skip,
        or one that another stop rule hides, closes more cube sets.  Counts
        taken when a step also stopped at the first candidate keeping its core;
        the unstructured total was retaken (660 -> 605) when the engine began
        splitting every sub-cover by don't-care count."""
        close = CoreSearch._close
        calls = [0]

        def counting(search, start, z, flips):
            calls[0] += 1
            return close(search, start, z, flips)

        monkeypatch.setattr(CoreSearch, "_close", counting)
        rng = random.Random(3911)
        unstructured = []
        for _ in range(10):
            n = rng.randint(10, 13)
            unstructured.append(random_cover(rng, n, rng.randint(2 * n, 3 * n)))
        structured = [threshold_products(rng, rng.randint(11, 14)) for _ in range(6)]
        for cover in unstructured:
            decompose(cover)
        assert calls[0] == 605
        for cover in structured:
            decompose(cover)
        assert calls[0] == 605 + 153


class TestSharedSearch:
    """One search serves every seed, pair core or not, as a fresh one would."""

    def test_part_of_a_widened_pair_seed_widens_on_its_own(self):
        """A seed that shares Z and flips with one widened before, but not its
        cubes, must not pick up that seed's closures or widening end."""
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(4, 7)
            cover = random_cover(rng, n, rng.randint(n, 3 * n))
            search = CoreSearch(cover)
            for seed in best_pair_cores(search).values():
                if not seed.cubes:
                    continue
                expand_core(seed, search)
                last = 1 << seed.cubes.bit_length() - 1
                part = Core(cover, seed.cubes ^ last, seed.z, seed.flips)
                assert expand_core(part, search) == reference_expand_core(part, cover)


#: sha256 of the search results below.  First computed with the string-based
#: search, on cube counts and minterm counts together; recomputed on cube
#: counts alone when the minterm metric went, by the search the first pin held.
PINNED_BEST_CORE = "6c5ade6263e6d04b38ca17a2677b3f23193d3b866cb47fffd0fd5b26626b2783"


class TestSearchIsPinned:
    """The core search returns what the string-based search returned."""

    @staticmethod
    def best_core_digest(count: int) -> str:
        rng = random.Random(1993)
        h = hashlib.sha256()
        for _ in range(count):
            n = rng.randint(2, 8)
            cover = random_cover_with_duplicates(rng, n, rng.randint(1, 14))
            core = best_core(CoreSearch(cover))
            if core is not None:
                core = (core.cube_indices, core.sym_inputs, sorted(core.inverted))
            h.update(repr(core).encode())
        return h.hexdigest()

    def test_best_core_on_random_covers(self):
        assert self.best_core_digest(600) == PINNED_BEST_CORE


#: sha256 of the ``gridsyn cores`` results below.  First computed before the
#: one-pass pair scan replaced per-pair closure, on both size metrics;
#: recomputed on cube counts alone when the minterm metric went, by the
#: search the first pin held.
PINNED_PAIR_SCAN = "9bcfcaaa41442713b42dc12641d0f7ed3394add0b6b078c57efcc4e906f8d3e7"


class TestCoresCommandIsPinned:
    """Every pair core, and the widening of every non-empty one, stay fixed.

    ``PINNED_BEST_CORE`` sees only the widenings of the top seeds; the
    ``gridsyn cores`` report prints all of them.
    """

    @staticmethod
    def pair_scan_digest(count: int) -> str:
        rng = random.Random(2003)
        h = hashlib.sha256()
        for _ in range(count):
            n = rng.randint(2, 8)
            cover = random_cover_with_duplicates(rng, n, rng.randint(1, 14))
            search = CoreSearch(cover)
            for pair, core in sorted(best_pair_cores(search).items()):
                h.update(repr((pair, bool(core.flips), core.cube_indices)).encode())
                if core.cubes:
                    wide = expand_core(core, search)
                    result = (wide.cube_indices, wide.sym_inputs, sorted(wide.inverted))
                    # the bytes ``repr((result, score))`` had when a CoreScore held the score
                    score = (
                        f"CoreScore(cube_count={wide.cube_count}, "
                        f"width={wide.width}, score={wide.score})"
                    )
                    h.update(f"({result!r}, {score})".encode())
        return h.hexdigest()

    def test_pair_cores_and_widenings_on_random_covers(self):
        assert self.pair_scan_digest(300) == PINNED_PAIR_SCAN


#: (inputs, cubes, expected (cube_indices, sym_inputs, inverted) or None),
#: one per case of the closed form in ``two_cube_core``'s docstring.
TWO_CUBE_CASES = {
    # plain partners across (a, b); the flipped phase holds both too, plain wins the tie
    "plain-partners": ("abcd", ("10-1", "01-1"), ((0, 1), (0, 1), ())),
    "flipped-partners": ("ab", ("1-", "-0"), ((0, 1), (0, 1), (0,))),
    # the class of (a, c, e) holds both cubes; its smaller half (c) is inverted
    "both-uniform-widened": ("abcde", ("1-0-1", "0-1-0"), ((0, 1), (0, 2, 4), (2,))),
    # halves of two inputs each: the first seed (a, b) keeps its half plain
    "both-uniform-halves-tie": ("abcd", ("1100", "0011"), ((0, 1), (0, 1, 2, 3), (2, 3))),
    # the class (b, c) steps to width 3 at a, keeping cube A flipped
    "step-to-one-cube": ("abcd", ("110-", "-011"), ((0,), (0, 1, 2), (0, 1))),
    "one-cube-on-dashes": ("abcd", ("00--", "1---"), ((1,), (1, 2, 3), ())),
    # the seed (a, b) is flipped for cube A; the dash cube B keeps that flip
    "one-cube-on-dashes-keeps-the-seed-flip": ("abc", ("01-", "---"), ((1,), (0, 1, 2), (0,))),
    # two seeds end on cube A with two inversions each; the first, (a, b), wins
    "one-cube-on-literals-tie": ("abcd", ("0011", "00--"), ((0,), (0, 1, 2, 3), (2, 3))),
    # no class holds two inputs: the pairs are scanned one by one
    "one-cube-seeds-only": ("abc", ("01-", "1-0"), ((0,), (0, 1), (0,))),
    "no-pair-core": ("ab", ("1-", "0-"), None),
}


class TestTwoCubeCore:
    """``two_cube_core`` returns ``best_core(CoreSearch(cover))`` on two cubes."""

    @pytest.mark.parametrize("case", sorted(TWO_CUBE_CASES))
    def test_case_of_the_closed_form(self, case):
        names, cubes, want = TWO_CUBE_CASES[case]
        cover = Cover(tuple(names), cubes)
        got = two_cube_core(cover)
        if got is not None:
            got = (got.cube_indices, got.sym_inputs, tuple(sorted(got.inverted)))
        assert got == want
        assert two_cube_core(cover) == best_core(CoreSearch(cover))

    def test_every_pair_of_distinct_cubes_over_two_to_four_inputs(self):
        count = 0
        for n in range(2, 5):
            names = tuple(f"x{i}" for i in range(n))
            words = ["".join(w) for w in itertools.product("01-", repeat=n)]
            for pair in itertools.permutations(words, 2):
                cover = Cover(names, pair)
                assert two_cube_core(cover) == best_core(CoreSearch(cover)), pair
                count += 1
        assert count == 7254

    def test_a_repeated_cube_over_zero_to_four_inputs(self):
        for n in range(5):
            names = tuple(f"x{i}" for i in range(n))
            for w in itertools.product("01-", repeat=n):
                cover = Cover(names, ("".join(w),) * 2)
                assert two_cube_core(cover) == best_core(CoreSearch(cover)), cover.cubes

    def test_seeded_pairs_over_five_to_fourteen_inputs(self):
        rng = random.Random(2024)
        for k in range(3000):
            cover = random_cube_pair(rng, rng.randint(5, 14))
            got = two_cube_core(cover)
            assert got == best_core(CoreSearch(cover)), cover.cubes
            if k % 20 == 0:
                assert got == reference_best_core(cover), cover.cubes
