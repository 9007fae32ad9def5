import functools
import hashlib
import random
from itertools import permutations

import pytest

from gridsyn import (
    FullRankSet,
    MintermSet,
    PhaseVector,
    build_grid_dag,
    cover_to_minterms,
    derive_pf,
    full_template,
    is_planar_function,
    is_planar_plot,
    links_of,
    minimize_layout,
    survey_planarity,
    transform_mask,
)
from gridsyn import planar
from gridsyn.cubes import full_mask
from gridsyn.gridplot import _cofactor_lows, _split_level
from gridsyn.planar import _bridge_free, _bridge_free_pairs, _level_key, _np_closure

from helpers import (
    _template_words,
    ms,
    oracle_derive_pf,
    oracle_planar_witness,
    random_cover,
    sf_minterms,
)


class TestTemplate:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_full_template_link_count(self, n):
        assert len(full_template(n).links) == n * (n + 1)

    def test_no_deletion_gives_the_tautology(self):
        assert derive_pf(full_template(2), ()) == MintermSet(2, full_mask(2))

    def test_cutting_the_origin_gives_constant_zero(self):
        t = full_template(3)
        assert not derive_pf(t, {(0, 0, "one"), (0, 0, "zero")})

    def test_negative_arity_is_refused(self):
        with pytest.raises(ValueError) as exc:
            full_template(-1)
        assert str(exc.value) == "n must be non-negative"

    def test_deletions_must_exist(self):
        with pytest.raises(ValueError):
            derive_pf(full_template(2), {(5, 5, "one")})

    def test_planar_plot_round_trips_through_the_template(self):
        s = ms("1010", "1001", "0110", "0101")
        dag = build_grid_dag(s)
        assert is_planar_plot(dag)
        t = full_template(4)
        assert derive_pf(t, t.links - links_of(dag)) == s

    def test_matches_the_per_assignment_walk(self):
        rng = random.Random(64)
        for k in range(300):
            t = full_template(k % 9)
            p = rng.random()
            deleted = {link for link in sorted(t.links) if rng.random() < p}
            assert derive_pf(t, deleted) == oracle_derive_pf(t, deleted), (t.n, deleted)

    def test_derived_functions_are_planar(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 4)
            t = full_template(n)
            deleted = {link for link in sorted(t.links) if rng.random() < 0.3}
            pf = derive_pf(t, deleted)
            assert is_planar_function(pf) is not None
            # the template's own order is always a witness
            assert is_planar_plot(build_grid_dag(pf))


class TestIsPlanarFunction:
    def test_symmetric_functions_witnessed_by_identity(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 5)
            ranks = frozenset(r for r in range(n + 1) if rng.random() < 0.5)
            s = sf_minterms(FullRankSet(n, ranks))
            witness = is_planar_function(s)
            assert witness == (tuple(range(n)), PhaseVector.none(n))

    def test_pair_product_is_planar_in_identity_order(self):
        s = ms("1010", "1001", "0110", "0101")
        assert is_planar_function(s) == ((0, 1, 2, 3), PhaseVector.none(4))

    def test_witness_actually_works(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randint(1, 4)
            s = MintermSet(n, rng.getrandbits(1 << n))
            witness = is_planar_function(s)
            if witness is not None:
                order, phases = witness
                assert is_planar_plot(build_grid_dag(s, order, phases))

    def test_planarity_invariant_under_input_transforms(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 4)
            s = MintermSet(n, rng.getrandbits(1 << n))
            planar = is_planar_function(s) is not None
            perm = tuple(rng.sample(range(n), n))
            phases = PhaseVector(tuple(rng.random() < 0.5 for _ in range(n)))
            image = MintermSet(n, transform_mask(s.bits, n, perm, phases.mask))
            assert (is_planar_function(image) is not None) == planar

    def test_arity_cap(self):
        with pytest.raises(ValueError):
            is_planar_function(MintermSet(16, 1))

    def test_symmetric_functions_up_to_the_cap(self):
        rng = random.Random(15)
        for n in (9, 12, 15):
            for ranks in (frozenset(range(1, n + 1, 2)), frozenset({n // 2}), frozenset()):
                s = sf_minterms(FullRankSet(n, ranks))
                assert is_planar_function(s) == (tuple(range(n)), PhaseVector.none(n))
            s = disguised(rng, sf_minterms(FullRankSet(n, frozenset({1, n - 1}))))
            order, phases = is_planar_function(s)
            assert is_planar_plot(build_grid_dag(s, order, phases))

    def test_wide_witnesses_work_and_survive_input_transforms(self):
        """Built and near-planar functions of 9-12 inputs: every witness gives a
        planar plot, built functions always have one, and a disguised copy of
        a function is planar exactly when the function is."""
        rng = random.Random(12)
        for n in range(9, 13):
            for s, is_built in ((disguised(rng, built(rng, n)), True), (near_planar(rng, n), False)):
                witness = is_planar_function(s)
                assert witness is not None or not is_built
                if witness is not None:
                    assert is_planar_plot(build_grid_dag(s, *witness))
                assert (is_planar_function(disguised(rng, s)) is None) == (witness is None)


def disguised(rng, s):
    """``s`` under a random input permutation and phase assignment."""
    n = s.n
    perm = tuple(rng.sample(range(n), n))
    phases = PhaseVector(tuple(rng.random() < 0.5 for _ in range(n)))
    return MintermSet(n, transform_mask(s.bits, n, perm, phases.mask))


def built(rng, n):
    """A planar-by-construction function: the template with about 30% of its links cut."""
    t = full_template(n)
    return derive_pf(t, {link for link in sorted(t.links) if rng.random() < 0.3})


def near_planar(rng, n):
    """A planar-by-construction function with one minterm toggled, disguised."""
    pf = built(rng, n)
    return disguised(rng, MintermSet(n, pf.bits ^ 1 << rng.randrange(1 << n)))


def planarity_cases():
    """Functions of n <= 5 inputs in a fixed order: the empty function, the
    tautology, random functions, and planar-by-construction functions under
    a random input permutation and phase assignment."""
    rng = random.Random(1993)
    for n in range(6):
        yield MintermSet(n, 0)
        yield MintermSet(n, full_mask(n))
        for _ in range(3):
            yield MintermSet(n, rng.getrandbits(1 << n))
        for _ in range(3):
            yield disguised(rng, built(rng, n))


def wider_planarity_cases(ns):
    """The same kinds of function for each n in ``ns``, one random one, then
    three near-planar functions per n: on these the decision reaches the
    most planar states before it fails."""
    rng = random.Random(2001)
    for n in ns:
        yield MintermSet(n, 0)
        yield MintermSet(n, full_mask(n))
        yield MintermSet(n, rng.getrandbits(1 << n))
        for _ in range(2):
            yield disguised(rng, built(rng, n))
    for n in ns:
        for _ in range(3):
            yield near_planar(rng, n)


def witness_digest(cases) -> str:
    h = hashlib.sha256()
    for s in cases:
        w = is_planar_function(s)
        h.update(repr(w and (w[0], w[1].inverted)).encode())
    return h.hexdigest()


#: sha256 of the witnesses on ``planarity_cases``, computed with one full grid
#: DAG per configuration.
PINNED_WITNESSES = "3964e9545b5077b3dd32bc74c5dbf260d5327f1c717597b47ebbf4ebfa95d669"

#: sha256 of the witnesses on ``wider_planarity_cases(range(1, 7))`` and on
#: ``wider_planarity_cases([7, 8])``, computed by the sweep that tried every
#: configuration in turn through one level table.
PINNED_WIDER_WITNESSES = "ab07fd7f80a62b7bd724890ef2548c9eb72ba313895c9a7ec1eb52d56dc01b89"
PINNED_WIDEST_WITNESSES = "4ed39403310be011f4b5d8cc0c724fe79801f7481f0d7669068cef95fc0c50b2"


class TestDecisionAgainstOracle:
    def test_witnesses_match_the_per_configuration_loop(self):
        for s in planarity_cases():
            assert is_planar_function(s) == oracle_planar_witness(s), s

    def test_witnesses_are_pinned(self):
        assert witness_digest(planarity_cases()) == PINNED_WITNESSES

    def test_six_input_and_near_planar_witnesses_match_the_loop(self):
        for s in wider_planarity_cases(range(1, 7)):
            assert is_planar_function(s) == oracle_planar_witness(s), s

    def test_six_input_and_near_planar_witnesses_are_pinned(self):
        assert witness_digest(wider_planarity_cases(range(1, 7))) == PINNED_WIDER_WITNESSES

    def test_seven_and_eight_input_witnesses_are_pinned(self):
        assert witness_digest(wider_planarity_cases([7, 8])) == PINNED_WIDEST_WITNESSES


def mirror_cases():
    """``planarity_cases`` and 60 seeded functions of 1-7 inputs: random
    functions, random covers and disguised planar functions in turn."""
    yield from planarity_cases()
    rng = random.Random(1990)
    for i in range(60):
        n = 1 + i % 7
        kind = i // 7 % 3
        if kind == 0:
            yield MintermSet(n, rng.getrandbits(1 << n))
        elif kind == 1:
            yield cover_to_minterms(random_cover(rng, n, rng.randint(1, 3 * n)))
        else:
            yield disguised(rng, built(rng, n))


class TestMirror:
    """A state (S, q) and its mirror (S, q ^ S) have the same cofactors at
    mirrored ranks, so the searches decide only one of each root pair."""

    def test_complementing_every_input_changes_no_witness_or_layout(self):
        # (order, p) on f draws the plot of (order, ~p) on f with every input
        # complemented, each level's ranks mirrored: the planar configurations
        # and the (N, L) of every configuration are closed under the mirror
        for s in mirror_cases():
            mirrored = MintermSet(s.n, transform_mask(s.bits, s.n, flips=(1 << s.n) - 1))
            assert is_planar_function(mirrored) == is_planar_function(s), s
            assert minimize_layout(mirrored, "exhaustive") == minimize_layout(s, "exhaustive"), s

    def test_a_non_planar_decision_never_splits_the_root_at_phase_1(self, monkeypatch, survey4):
        split = planar._split_level
        for f in survey4.nonplanar_witnesses:
            # a non-planar function has every input at 1 in some minterm, so
            # no level below the root is the whole function at rank 0
            root = {f: 1}
            phases = []

            def recording(level, low, shift, inv, *rest):
                if level == root:
                    phases.append(inv)
                return split(level, low, shift, inv, *rest)

            monkeypatch.setattr(planar, "_split_level", recording)
            assert is_planar_function(MintermSet(4, f)) is None
            assert phases == [0] * 4, hex(f)


def pair_table_cases():
    """Every 3-input function, then seeded functions of 4-10 inputs: random,
    disguised planar-by-construction and near-planar in turn."""
    for f in range(1 << 8):
        yield MintermSet(3, f)
    rng = random.Random(40)
    for n in range(4, 11):
        for _ in range(3):
            yield MintermSet(n, rng.getrandbits(1 << n))
            yield disguised(rng, built(rng, n))
            yield near_planar(rng, n)


class TestBridgeFreePairs:
    """Level 2 of reading x then y has a bridge only at rank 1, so one pass
    over the truth table decides every level-2 state of the decision."""

    def test_the_table_is_the_kernel_level_2_verdict(self):
        for s in pair_table_cases():
            n = s.n
            lows = _cofactor_lows(n)
            pairs = _bridge_free_pairs(s)
            for x in range(n):
                assert pairs[x][x] == 0
                for y in range(n):
                    if x == y:
                        continue
                    assert pairs[x][y] == pairs[y][x], (s, x, y)
                    for b in (0, 1):
                        level1, _ = _split_level({s.bits: 1}, lows[x], 1 << x, b)
                        for c in (0, 1):
                            level2, _ = _split_level(level1, lows[y], 1 << y, c)
                            verdict = _level_key(0, level2) is not None
                            assert pairs[x][y] >> (b ^ c) & 1 == verdict, (s, x, y, b, c)

    def test_decisions_match_the_sweep_up_to_four_inputs(self):
        """Every function of 0-3 inputs and 300 seeded 4-input ones: at
        n = 2 level 2 is the last level, and n = 3 is the first width the
        table refutes or prunes at."""
        cases = [MintermSet(n, f) for n in range(4) for f in range(1 << (1 << n))]
        assert len(cases) == 278
        rng = random.Random(404)
        cases += [MintermSet(4, rng.getrandbits(16)) for _ in range(300)]
        for s in cases:
            assert is_planar_function(s) == oracle_planar_witness(s), s

    @pytest.mark.parametrize("n, seed", [(5, 0), (15, 0)])
    def test_a_function_with_no_bridge_free_pair_is_refuted_without_search(
        self, monkeypatch, n, seed
    ):
        s = MintermSet(n, random.Random(seed).getrandbits(1 << n))
        assert not any(map(any, _bridge_free_pairs(s)))
        calls = []
        split, build = planar._split_level, planar.build_grid_dag
        monkeypatch.setattr(planar, "_split_level", lambda *a: calls.append("split") or split(*a))
        monkeypatch.setattr(planar, "build_grid_dag", lambda *a: calls.append("build") or build(*a))
        assert is_planar_function(s) is None
        assert calls == []


@pytest.fixture(scope="module")
def survey4():
    return survey_planarity(4)


@functools.cache
def group_sweep_orbits(n):
    """(smallest member, members) of every orbit, from ``transform_mask`` over the whole group."""
    group = [(perm, flips) for perm in permutations(range(n)) for flips in range(1 << n)]
    seen = set()
    out = []
    for f in range(1 << (1 << n)):
        if f not in seen:
            orbit = {transform_mask(f, n, perm, flips) for perm, flips in group}
            seen |= orbit
            out.append((f, orbit))
    return out


def oracle_survey(n):
    """Total, planar count and first ten non-planar masks, one oracle call per function."""
    total = 1 << (1 << n)
    nonplanar = [f for f in range(total) if oracle_planar_witness(MintermSet(n, f)) is None]
    return (total, total - len(nonplanar), tuple(nonplanar[:10]))


class TestSurvey:
    def test_two_inputs_all_planar(self):
        survey = survey_planarity(2)
        assert (survey.total, survey.planar) == (16, 16)
        assert survey.all_planar and survey.nonplanar_witnesses == ()

    def test_three_inputs_all_planar(self):
        survey = survey_planarity(3)
        assert (survey.total, survey.planar) == (256, 256)

    def test_survey_matches_per_function_oracle(self):
        for n in range(0, 4):
            survey = survey_planarity(n)
            assert (survey.total, survey.planar, survey.nonplanar_witnesses) == oracle_survey(n)

    def test_four_inputs_match_per_function_oracle_on_samples(self, survey4):
        rng = random.Random(11)
        nonplanar = set(survey4.nonplanar_witnesses)
        samples = list(nonplanar)[:4] + [rng.getrandbits(16) for _ in range(25)]
        for mask in samples:
            s = MintermSet(4, mask)
            witness = oracle_planar_witness(s)
            assert (witness is not None) == (is_planar_function(s) is not None)
            if mask in nonplanar:
                assert witness is None

    def test_four_input_witnesses_are_pinned(self, survey4):
        assert (survey4.total, survey4.planar) == (65536, 42244)
        assert survey4.nonplanar_witnesses == (
            0x358, 0x359, 0x35E, 0x35F, 0x364, 0x365, 0x376, 0x377, 0x398, 0x39A,
        )

    def test_survey_is_deterministic(self):
        a = survey_planarity(4)
        b = survey_planarity(4)
        assert a == b

    def test_witness_list_is_bounded_and_sorted(self, survey4):
        w = survey4.nonplanar_witnesses
        assert len(w) <= 10
        assert list(w) == sorted(w)

    @staticmethod
    def words(bitmap):
        """The set bits of a bitmap of functions, ascending: their truth tables."""
        return [f for f, bit in enumerate(reversed(bin(bitmap))) if bit == "1"]

    @staticmethod
    def bitmap(words):
        """The bitmap of a set of truth tables."""
        return sum(1 << f for f in words)

    @pytest.mark.parametrize("n", range(4))
    def test_template_words_are_the_link_deletion_images(self, n):
        """Every deletion set of the template, read in the reversed input
        order of the bridge-free bitmap; at n = 0 there is no link to
        delete, yet the empty function is planar."""
        t = full_template(n)
        links = sorted(t.links)
        images = {0}
        for k in range(1 << len(links)):
            images.add(derive_pf(t, [link for i, link in enumerate(links) if k >> i & 1]).bits)
        reverse = tuple(range(n - 1, -1, -1))
        expected = sorted(transform_mask(f, n, reverse) for f in images)
        assert self.words(_bridge_free(n)) == expected
        assert _template_words(n) == expected

    @pytest.mark.parametrize("n", range(5))
    def test_bridge_free_bitmap_is_the_reference_enumeration(self, n):
        assert self.words(_bridge_free(n)) == _template_words(n)

    def test_four_input_template_words_are_pinned(self):
        """At n = 4 the 2**20 deletion sets are too many to sweep in the
        suite, so the words are pinned: their count and the sha256 of their
        decimal list, which a sweep of every deletion set reproduces."""
        words = self.words(_bridge_free(4))
        assert len(words) == 4288
        digest = hashlib.sha256(",".join(map(str, words)).encode()).hexdigest()
        assert digest == "9a249b4db53d4905a20b2b62206cfc5884996aaf8a0e3e27daa4b4fb335d0f4a"

    @pytest.mark.parametrize("n", range(5))
    def test_closure_of_one_function_is_its_orbit(self, n):
        """Every function up to 3 inputs; at n = 4, the smallest and the
        largest member of each of the 402 orbits."""
        for f, orbit in group_sweep_orbits(n):
            expected = self.bitmap(orbit)
            for g in (f, max(orbit)) if n == 4 else orbit:
                assert _np_closure(1 << g, n) == expected, g

    @pytest.mark.parametrize("n", range(5))
    def test_closure_is_the_union_of_the_orbits(self, n):
        free = _bridge_free(n)
        expected = 0
        for _, orbit in group_sweep_orbits(n):
            if any(free >> g & 1 for g in orbit):
                expected |= self.bitmap(orbit)
        assert _np_closure(free, n) == expected

    def test_four_input_verdicts_match_the_decision_on_every_orbit(self):
        planar_fns = _np_closure(_bridge_free(4), 4)
        orbits = group_sweep_orbits(4)
        assert len(orbits) == 402
        assert sum(planar_fns >> f & 1 for f, _ in orbits) == 287
        for f, orbit in orbits:
            decided = is_planar_function(MintermSet(4, f)) is not None
            assert all(planar_fns >> g & 1 == decided for g in orbit), f

    def test_a_witness_the_decision_finds_planar_is_an_error(self, monkeypatch):
        """The survey decides each non-planar witness it reports; a planar
        verdict on 0x358, the first of them, must stop it."""
        witness = ((0, 1, 2, 3), PhaseVector((False,) * 4))
        monkeypatch.setattr(
            planar, "is_planar_function", lambda s: witness if s.bits == 0x358 else None
        )
        with pytest.raises(RuntimeError, match="0x358"):
            survey_planarity(4)

    def test_the_survey_decides_only_its_witnesses(self, monkeypatch):
        decided = []
        decide = planar.is_planar_function
        monkeypatch.setattr(
            planar, "is_planar_function", lambda s: decided.append(s.bits) or decide(s)
        )
        survey = survey_planarity(4)
        assert tuple(decided) == survey.nonplanar_witnesses
        decided.clear()
        survey_planarity(3)
        assert decided == []

    def test_arity_cap(self):
        with pytest.raises(ValueError):
            survey_planarity(5)
        with pytest.raises(ValueError):
            survey_planarity(-1)
