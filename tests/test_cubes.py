import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsyn import (
    CapacityError,
    Cover,
    MintermSet,
    ParseError,
    PhaseVector,
    cover_to_minterms,
    literal_density,
    minterm_index,
    parse_pla,
    parse_pla_outputs,
    phase_minterms,
    transform_mask,
    write_pla,
)
from gridsyn.cubes import index_to_minterm, project, restrict, subcover

from helpers import (
    all_assignments,
    eval_cover,
    permute_cover,
    phase_cover,
    random_cover,
    random_cover_with_duplicates,
)

XOR_PAIR_PLA = """\
.i 4
.ilb a b c d
.o 1
.p 4
1010 1
1001 1
0110 1
0101 1
.e
"""

CARRY = Cover(("a", "b", "c"), ("11-", "1-1", "-11"))


class TestParse:
    def test_header_dialect(self):
        c = parse_pla(XOR_PAIR_PLA)
        assert c.n == 4 and c.m == 4
        assert c.input_names == ("a", "b", "c", "d")
        assert c.cubes == ("1010", "1001", "0110", "0101")

    def test_bare_dialect_infers_width(self):
        c = parse_pla("11-\n1-1\n-11\n")
        assert c.n == 3 and c.m == 3
        assert c.input_names == ("x0", "x1", "x2")

    def test_single_tautology_cube(self):
        c = parse_pla(".i 1\n-\n")
        assert len(cover_to_minterms(c)) == 2

    def test_comments_and_blank_lines(self):
        c = parse_pla("# heading\n\n.i 2\n10 1  # trailing\n")
        assert c.cubes == ("10",)

    def test_multi_output_split(self):
        text = ".i 2\n.o 2\n.ob f g\n11 10\n00 01\n1- 11\n"
        outs = parse_pla_outputs(text)
        assert [name for name, _ in outs] == ["f", "g"]
        assert outs[0][1].cubes == ("11", "1-")
        assert outs[1][1].cubes == ("00", "1-")

    def test_multi_output_rejected_by_single_parser(self):
        with pytest.raises(ParseError, match="single-output"):
            parse_pla(".i 2\n.o 2\n11 10\n")

    @pytest.mark.parametrize(
        "text,match",
        [
            (".i 2\n1x 1\n", "invalid cube character"),
            (".i 3\n10 1\n", "width"),
            (".i 0\n", "positive"),
            (".i 2\n.ilb a a\n10 1\n", "duplicate"),
            (".i 2\n.p 3\n10 1\n", ".p declares"),
            (".i 2\n10 1\n11\n", "mixed"),
            (".i 2\n10 -\n", "don't-cares"),
            (".i 2\n.bogus\n", "unknown directive"),
            (".i 2\n.e\n10 1\n", "after end"),
            ("", "no inputs"),
            (".i 3\n.i 2\n11\n", "line 2: repeated .i line"),
            (".i 2\n.o 1\n.o 1\n11 1\n", "line 3: repeated .o line"),
            (".i 2\n.ilb a b\n.ilb c d\n11\n", "line 3: repeated .ilb line"),
            (".i 2\n.ob f\n.ob g\n11\n", "line 3: repeated .ob line"),
            (".i 2\n.p 1\n11\n.p 1\n", "line 4: repeated .p line"),
            (".i 2\n.o 2\n.ob f f\n11 11\n", "duplicate output names"),
        ],
    )
    def test_errors(self, text, match):
        with pytest.raises(ParseError, match=match):
            parse_pla_outputs(text)

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_pla(".i 2\n1x 1\n")

    def test_write_round_trip_bit_exact(self):
        text = write_pla(CARRY)
        again = parse_pla(text)
        assert again == CARRY
        assert write_pla(again) == text


class TestSemantics:
    def test_carry_minterms(self):
        s = cover_to_minterms(CARRY)
        assert set(s.to_strings()) == {"110", "101", "011", "111"}

    def test_tautology_cube_covers_everything(self):
        c = Cover(("a", "b", "c", "d"), ("----",))
        assert len(cover_to_minterms(c)) == 16

    def test_overlapping_cubes_deduplicate(self):
        c = Cover(("a", "b"), ("1-", "11"))
        assert len(cover_to_minterms(c)) == 2

    def test_expansion_cap(self):
        wide = Cover(tuple(f"x{i}" for i in range(25)), ())
        with pytest.raises(CapacityError):
            cover_to_minterms(wide)

    def test_eval_examples(self):
        assert minterm_index("110") in cover_to_minterms(CARRY)
        assert minterm_index("100") not in cover_to_minterms(CARRY)
        assert minterm_index("0") not in cover_to_minterms(Cover(("a",), ()))

    def test_minterms_match_eval_exhaustively(self):
        import random

        rng = random.Random(5)
        for _ in range(25):
            c = random_cover(rng, rng.randint(1, 8), rng.randint(0, 12))
            s = cover_to_minterms(c)
            for a in all_assignments(c.n):
                idx = sum(b << i for i, b in enumerate(a))
                assert (idx in s) == bool(eval_cover(c, a))

    def test_size_bound_with_disjoint_equality(self):
        disjoint = Cover(("a", "b", "c"), ("1--", "01-"))
        s = cover_to_minterms(disjoint)
        assert len(s) == sum(1 << q.count("-") for q in disjoint.cubes)
        overlapping = Cover(("a", "b", "c"), ("1--", "1-1"))
        s2 = cover_to_minterms(overlapping)
        assert len(s2) < sum(1 << q.count("-") for q in overlapping.cubes)


def minterms_of(c: Cover) -> int:
    return cover_to_minterms(c).bits


class TestTransforms:
    """``phase_minterms`` and ``transform_mask`` against the string transforms of cubes."""

    def test_phase_single_column(self):
        c = Cover(("a", "b", "c"), ("10-",))
        phased = phase_minterms(cover_to_minterms(c), PhaseVector.inverting(3, [0]))
        assert set(phased.to_strings()) == {"000", "001"}

    def test_phase_of_pair_product(self):
        s = cover_to_minterms(parse_pla(XOR_PAIR_PLA))
        phased = phase_minterms(s, PhaseVector.inverting(4, [1, 2]))
        assert set(phased.to_strings()) == {"0000", "0011", "1100", "1111"}

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_phase_involution(self, n, data):
        import random

        rng = random.Random(data.draw(st.integers(0, 10**6)))
        s = cover_to_minterms(random_cover(rng, n, rng.randint(0, 8)))
        p = PhaseVector(tuple(data.draw(st.booleans()) for _ in range(n)))
        assert phase_minterms(phase_minterms(s, p), p) == s

    def test_permute_identity(self):
        bits = minterms_of(parse_pla(XOR_PAIR_PLA))
        assert transform_mask(bits, 4, (0, 1, 2, 3)) == bits

    def test_permute_reorders_names_and_columns(self):
        c = parse_pla(XOR_PAIR_PLA)
        p = permute_cover(c, (0, 2, 1, 3))
        assert p.input_names == ("a", "c", "b", "d")
        assert set(cover_to_minterms(p).to_strings()) == {"1100", "1001", "0110", "0011"}
        assert transform_mask(minterms_of(c), 4, (0, 2, 1, 3)) == minterms_of(p)

    def test_permute_transposition_involution(self):
        bits = minterms_of(parse_pla(XOR_PAIR_PLA))
        t = (1, 0, 2, 3)
        assert transform_mask(transform_mask(bits, 4, t), 4, t) == bits

    def test_permute_rejects_non_permutation(self):
        with pytest.raises(ValueError, match=r"perm \(0, 0, 1\) is not a permutation"):
            transform_mask(minterms_of(CARRY), 3, (0, 0, 1))

    def test_transforms_commute_with_expansion(self):
        import random

        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(2, 7)
            c = random_cover(rng, n, rng.randint(1, 10))
            perm = tuple(rng.sample(range(n), n))
            p = PhaseVector(tuple(rng.random() < 0.5 for _ in range(n)))
            assert cover_to_minterms(phase_cover(c, p.inverted)) == phase_minterms(
                cover_to_minterms(c), p
            )
            assert minterms_of(permute_cover(c, perm)) == transform_mask(minterms_of(c), n, perm)


class TestTransformMask:
    def test_matches_per_minterm_definition(self):
        import random

        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(0, 8)
            bits = rng.getrandbits(1 << n)
            perm = tuple(rng.sample(range(n), n))
            flips = rng.getrandbits(n) if n else 0
            expected = 0
            for v in range(1 << n):
                if (bits >> v) & 1:
                    u = v ^ flips
                    expected |= 1 << sum(((u >> perm[j]) & 1) << j for j in range(n))
            assert transform_mask(bits, n, perm, flips) == expected

    @pytest.mark.parametrize("perm", [(1,), (0, 2), (1, 1), (0, 1, 2)])
    def test_perm_that_is_not_a_permutation_rejected(self, perm):
        message = re.escape(f"perm {perm!r} is not a permutation of range(2)")
        with pytest.raises(ValueError, match=message):
            transform_mask(6, 2, perm)

    @pytest.mark.parametrize("flips", [4, 7, -1])
    def test_flips_outside_the_inputs_rejected(self, flips):
        with pytest.raises(ValueError, match=f"flips {flips} outside"):
            transform_mask(6, 2, None, flips)


class TestCodec:
    """``Cover.bit_cubes``, ``project`` and ``restrict`` against readings of the cube strings."""

    def test_masks_projection_and_restriction_match_the_strings(self):
        import random

        rng = random.Random(170)
        seen = set()  # (a column dropped, repeats in the cover)
        for _ in range(600):
            n = rng.randint(0, 10)
            drawn = random_cover_with_duplicates(rng, n, rng.randint(0, 12))
            blank = {j for j in range(n) if rng.random() < 0.3}  # no cube reads these
            cover = Cover(
                drawn.input_names,
                ["".join("-" if j in blank else ch for j, ch in enumerate(c)) for c in drawn.cubes],
            )

            assert cover.bit_cubes == tuple(
                (
                    sum(1 << j for j, ch in enumerate(c) if ch == "1"),
                    sum(1 << j for j, ch in enumerate(c) if ch == "0"),
                )
                for c in cover.cubes
            )

            indices = [rng.randrange(cover.m) for _ in range(rng.randint(0, 2 * cover.m))]
            inputs = rng.sample(range(n), rng.randint(0, n))
            projected = project(cover, indices, inputs)
            assert projected.input_names == tuple(cover.input_names[j] for j in inputs)
            assert projected.cubes == tuple("".join(cover.cubes[i][j] for j in inputs) for i in indices)

            # the decomposer's string restriction: repeats go only with a column
            cols = [j for j, col in enumerate(zip(*cover.cubes)) if col.count("-") != len(col)]
            expected = cover.cubes
            if len(cols) != n:
                expected = tuple(dict.fromkeys("".join(c[j] for j in cols) for c in cover.cubes))
            restricted = restrict(cover)
            assert (restricted is cover) == (len(cols) == n)
            assert restricted.input_names == tuple(cover.input_names[j] for j in cols)
            assert restricted.cubes == expected
            seen.add((len(cols) != n, len(set(cover.cubes)) != cover.m))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    def test_subcover_holds_the_masks_a_fresh_parse_gives(self):
        import random

        rng = random.Random(230)
        for _ in range(300):
            cover = random_cover(rng, rng.randint(0, 12), rng.randint(1, 16))
            indices = [rng.randrange(cover.m) for _ in range(rng.randint(0, 2 * cover.m))]
            sub = subcover(cover, iter(indices))
            fresh = Cover(cover.input_names, [cover.cubes[i] for i in indices])
            assert sub == fresh
            assert "bit_cubes" in vars(sub)  # carried over, not parsed on first use
            assert sub.bit_cubes == fresh.bit_cubes


class TestMisc:
    def test_minterm_index_convention(self):
        # leftmost character is input 0, which is the least significant bit
        assert minterm_index("1010") == 0b0101
        assert index_to_minterm(5, 4) == "1010"

    def test_minterm_set_validation(self):
        with pytest.raises(ValueError):
            MintermSet(2, 1 << 4)
        for n, bits, message in (
            (-1, 0, "negative input count"),
            (2, 1 << 4, "minterm index out of range for input count"),
            (2, -1, "minterm index out of range for input count"),
        ):
            with pytest.raises(ValueError) as exc:
                MintermSet(n, bits)
            assert str(exc.value) == message
        assert MintermSet(2, 0b1111).bits == 0b1111

    def test_minterm_set_truth_len_and_in_count_minterms(self):
        # a set is a 2-tuple, yet its truth, len and `in` read the minterms
        assert bool(MintermSet(3, 0)) is False and bool(MintermSet(0)) is False
        assert bool(MintermSet(3, 0b1000)) is True
        assert [len(MintermSet(3, bits)) for bits in (0, 0b10110, 0xFF)] == [0, 3, 8]
        s = MintermSet(3, 0b10110)
        assert [v for v in range(-1, 9) if v in s] == [1, 2, 4]
        assert (3 in MintermSet(2, 0b1000), 2 in MintermSet(2, 0b1000)) == (True, False)

    def test_coercions(self):
        cover = Cover(["a", "b"], iter(["1-", "01"]))
        assert type(cover.input_names) is tuple and type(cover.cubes) is tuple
        assert cover == Cover(("a", "b"), ("1-", "01"))
        phases = PhaseVector([1, 0, 2, ""])
        assert phases.phases == (True, False, True, False)
        assert all(type(p) is bool for p in phases.phases)
        assert phases == PhaseVector((True, False, True, False))

    def test_bit_cubes_are_parsed_once(self):
        cover = Cover(("a", "b", "c"), ("11-", "0-1"))
        assert "bit_cubes" not in vars(cover)
        first = cover.bit_cubes
        assert first == ((0b011, 0), (0b100, 0b001)) and vars(cover)["bit_cubes"] is first
        assert cover.bit_cubes is first
        # a subcover's preset masks are the ones it reads, not a fresh parse
        sub = subcover(cover, [1])
        preset = vars(sub)["bit_cubes"]
        assert preset == ((0b100, 0b001),) and sub.bit_cubes is preset

    def test_density(self):
        assert literal_density(CARRY) == pytest.approx(100.0 * 6 / 9)
        assert literal_density(Cover(("a",), ())) == 0.0

    def test_cover_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            Cover(("a", "a"), ())
        with pytest.raises(ValueError, match="width"):
            Cover(("a", "b"), ("1",))
        with pytest.raises(ValueError, match="invalid cube"):
            Cover(("a",), ("2",))

    def test_cover_validation_names_the_first_offender(self):
        # a cube's width is checked before its characters, cubes in order
        def first_offence(cubes):
            for cube in cubes:
                if len(cube) != 3:
                    return f"cube {cube!r} has width {len(cube)}, expected 3"
                for ch in cube:
                    if ch not in "01-":
                        return f"invalid cube character {ch!r} in {cube!r}"
            return None

        kinds = ("1-0", "", "1-", "1-01", "12x", "-0 ", "x")
        assert Cover(("a", "b", "c"), ()).cubes == ()
        for m in range(4):
            for cubes in itertools.product(kinds, repeat=m):
                expected = first_offence(cubes)
                if expected is None:
                    assert Cover(("a", "b", "c"), cubes).cubes == cubes
                    continue
                with pytest.raises(ValueError) as exc:
                    Cover(("a", "b", "c"), cubes)
                assert str(exc.value) == expected
        assert Cover((), ("", "")).m == 2
        with pytest.raises(ValueError, match="width 1, expected 0"):
            Cover((), ("", "-"))


def _over_the_cap(n):
    """Each entry point that builds a truth table, called at width n."""
    from gridsyn.cores import Core
    from gridsyn.decompose import factor_core
    from gridsyn.gridplot import build_grid_dag, minimize_layout
    from gridsyn.planar import derive_pf, full_template
    from gridsyn.spectra import rank_index_masks

    names = tuple(f"x{i}" for i in range(n))
    wide = Cover(names, ("11" + "-" * (n - 2),))
    return {
        "cover_to_minterms": lambda: cover_to_minterms(wide),
        "rank_index_masks": lambda: rank_index_masks(n),
        "build_grid_dag": lambda: build_grid_dag(MintermSet(n, 0)),
        "minimize_layout": lambda: minimize_layout(MintermSet(n, 0), "greedy"),
        "factor_core": lambda: factor_core(Core(wide, 1, 0b11, 0)),
        "transform_mask": lambda: transform_mask(0, n),
        "derive_pf": lambda: derive_pf(full_template(n), ()),
    }


@pytest.mark.parametrize("n", [25, 60])
def test_truth_tables_refuse_over_the_cap_before_allocating(n):
    """Every truth table over 24 inputs is refused with one message, and
    before any table is built: none of these entry points builds a narrower
    table first, so each peaks far below the 2 MB of a 24-input table."""
    import tracemalloc

    from gridsyn.spectra import spectrum_of

    for name, call in _over_the_cap(n).items():
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError) as exc:
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"truth table of {n} inputs exceeds the 24-input cap", name
        assert peak < 1 << 20, (name, peak)
    # a rank spectrum needs no table: over the cap it counts the members
    sp = spectrum_of(MintermSet.from_indices(n, [0, 0b11, 0b101, (1 << 20) - 1]))
    assert sp == (1, 0, 2) + (0,) * 17 + (1,) + (0,) * (n - 20)
