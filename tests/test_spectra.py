import random
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsyn import (
    FullRankSet,
    MintermSet,
    convolve,
    format_spectrum,
    fullrank_set_if_symmetric,
    spectrum_of,
    transform_mask,
)
from gridsyn.cubes import full_mask

from helpers import ms, sf_minterms


class TestSpectrum:
    def test_pair_product_spectrum(self):
        assert spectrum_of(ms("1010", "1001", "0110", "0101")) == (0, 0, 4, 0, 0)

    def test_full_function_spectrum_is_binomial(self):
        assert spectrum_of(MintermSet(4, full_mask(4))) == (1, 4, 6, 4, 1)

    def test_phased_pair_product_spectrum(self):
        assert spectrum_of(ms("0000", "0011", "1100", "1111")) == (1, 0, 2, 0, 1)

    def test_zero_input_constants(self):
        assert spectrum_of(MintermSet(0, 0)) == (0,)
        assert spectrum_of(MintermSet(0, 1)) == (1,)

    def test_order_independence_all_permutations(self):
        rng = random.Random(3)
        for n in range(1, 7):
            s = MintermSet(n, rng.getrandbits(1 << n))
            sp = spectrum_of(s)
            for perm in permutations(range(n)):
                assert spectrum_of(MintermSet(n, transform_mask(s.bits, n, perm))) == sp

    def test_rank_masks_match_per_minterm_count(self):
        rng = random.Random(1986)
        for n in range(11):
            for _ in range(8):
                s = MintermSet(n, rng.getrandbits(1 << n))
                counts = [0] * (n + 1)
                for v in s.members():
                    counts[bin(v).count("1")] += 1
                assert spectrum_of(s) == tuple(counts)

    def test_above_rank_mask_cap_counts_members(self):
        n = 25
        assert spectrum_of(MintermSet(n, 1 | 1 << ((1 << n) - 1))) == (1,) + (0,) * (n - 1) + (1,)

    def test_format(self):
        assert format_spectrum((0, 0, 4, 0, 0)) == "[0,0,4,0,0]"


class TestConvolve:
    def test_worked_product(self):
        assert convolve((0, 2, 0), (0, 3, 3, 1)) == (0, 0, 6, 6, 2, 0)

    def test_identity_element(self):
        sp = (0, 2, 0)
        assert convolve(sp, (1,)) == sp

    def test_two_single_input_tautologies(self):
        # brute force: the product of two independent 1-input tautologies is
        # the full 2-input function, whose spectrum is the binomial row
        g = MintermSet(1, full_mask(1))
        h = MintermSet(1, full_mask(1))
        product_bits = 0
        for gv in g.members():
            for hv in h.members():
                product_bits |= 1 << (gv | (hv << 1))
        assert spectrum_of(MintermSet(2, product_bits)) == (1, 2, 1)
        assert convolve((1, 1), (1, 1)) == (1, 2, 1)

    def test_empty_spectrum_rejected(self):
        with pytest.raises(ValueError):
            convolve((), (1,))

    @given(st.integers(1, 5), st.integers(1, 5), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_product_rule_on_random_disjoint_products(self, m, k, rng):
        if m + k > 10:
            m, k = min(m, 5), min(k, 10 - min(m, 5))
        g = MintermSet(m, rng.getrandbits(1 << m))
        h = MintermSet(k, rng.getrandbits(1 << k))
        bits = 0
        for gv in g.members():
            for hv in h.members():
                bits |= 1 << (gv | (hv << m))
        assert spectrum_of(MintermSet(m + k, bits)) == convolve(spectrum_of(g), spectrum_of(h))


class TestFullRanks:
    def test_carry_ranks(self):
        assert fullrank_set_if_symmetric(ms("110", "101", "011", "111")).ranks == {2, 3}

    def test_parity_ranks(self):
        parity = MintermSet.from_indices(4, [v for v in range(16) if bin(v).count("1") % 2])
        assert fullrank_set_if_symmetric(parity).ranks == {1, 3}

    def test_partial_rank_is_not_symmetric(self):
        assert fullrank_set_if_symmetric(ms("1010", "1001", "0110", "0101")) is None

    def test_or3_and3(self):
        or3 = sf_minterms(FullRankSet(3, {1, 2, 3}))
        assert len(or3) == 7
        and3 = sf_minterms(FullRankSet(3, {3}))
        assert and3.to_strings() == ("111",)

    def test_empty_rank_set_is_constant_zero(self):
        assert not sf_minterms(FullRankSet(4, frozenset()))

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            FullRankSet(3, {4})
        for n, ranks, message in (
            (-1, (), "negative input count"),
            (3, {4}, "ranks must lie in [0, 3]"),
            (2, [0, -1], "ranks must lie in [0, 2]"),
        ):
            with pytest.raises(ValueError) as exc:
                FullRankSet(n, ranks)
            assert str(exc.value) == message

    def test_ranks_of_any_iterable_become_a_frozenset(self):
        for ranks in ([1, 3, 1], (3, 1), {1, 3}, iter([3, 1]), range(1, 4, 2)):
            f = FullRankSet(3, ranks)
            assert type(f.ranks) is frozenset and f.ranks == {1, 3}
            assert f == FullRankSet(3, frozenset({1, 3}))

    @pytest.mark.parametrize("n", range(0, 5))
    def test_symmetric_function_count(self, n):
        functions = {
            sf_minterms(FullRankSet(n, frozenset(r for r in range(n + 1) if (mask >> r) & 1))).bits
            for mask in range(1 << (n + 1))
        }
        assert len(functions) == 1 << (n + 1)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_round_trip_all_rank_sets(self, n):
        for mask in range(1 << (n + 1)):
            ranks = frozenset(r for r in range(n + 1) if (mask >> r) & 1)
            f = FullRankSet(n, ranks)
            got = fullrank_set_if_symmetric(sf_minterms(f))
            assert got is not None and got.ranks == ranks

    def test_spectrum_counts_bounded_by_binomials(self):
        rng = random.Random(1)
        for n in range(1, 9):
            s = MintermSet(n, rng.getrandbits(1 << n))
            sp = spectrum_of(s)
            assert sum(sp) == len(s)
            assert all(c <= comb(n, r) for r, c in enumerate(sp))
