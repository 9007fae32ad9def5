import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsyn import (
    ParseError,
    netlist_from_text,
    netlist_to_expr,
    netlist_to_json_dict,
    netlist_to_text,
)
from gridsyn.cubes import assignment_masks, full_mask
from gridsyn.netlist import (
    KIND_AND,
    KIND_CONST,
    KIND_INV,
    KIND_OR,
    KIND_SYM,
    Netlist,
    NetlistBuilder,
    NetlistError,
    NetNode,
    Ref,
    input_ref,
    netlist_mask,
    node_ref,
)

from helpers import all_assignments, evaluate_netlist, phased_inputs, supports


def value(nl, assignment) -> int:
    """``netlist_mask`` on the one-assignment space."""
    return netlist_mask(nl, [int(bool(v)) for v in assignment], 1)


def fresh(n=4):
    return NetlistBuilder(tuple("abcd"[:n]))


class TestBuilder:
    def test_constant_folding_through_inverters(self):
        b = fresh()
        ref = b.inv(b.const(0))
        nl = b.finish(ref)
        assert nl.nodes[nl.output.index].kind == KIND_CONST
        assert value(nl, (0, 0, 0, 0)) == 1

    def test_double_inversion_cancels(self):
        b = fresh()
        x = b.input(0)
        assert b.inv(b.inv(x)) == x

    def test_inverters_are_shared_per_input(self):
        b = fresh()
        r1 = b.inv(b.input(2))
        r2 = b.inv(b.input(2))
        assert r1 == r2
        nl = b.finish(b.or_([r1, r2, b.input(0)]))
        assert phased_inputs(nl) == {2}

    def test_or_flattens_dedupes_and_drops_zero(self):
        b = fresh()
        inner = b.or_([b.input(0), b.input(1)])
        outer = b.or_([inner, b.input(1), b.const(0), b.input(2)])
        nl = b.finish(outer)
        node = nl.nodes[nl.output.index]
        assert node.kind == KIND_OR
        assert [op.token for op in node.operands] == ["i0", "i1", "i2"]

    def test_or_shortcuts(self):
        b = fresh()
        assert b.or_([]).kind == "node"  # constant 0 node
        assert value(b.finish(b.or_([])), (0, 0, 0, 0)) == 0
        x = b.input(3)
        assert b.or_([x]) == x
        one = b.or_([x, b.const(1)])
        assert b._nodes[one.index].kind == KIND_CONST

    def test_and_disjoint_support_check(self):
        b = fresh()
        x = b.input(0)
        s = b.sym({1}, (b.input(0), b.input(1)))
        with pytest.raises(NetlistError, match="overlapping"):
            b.and_disjoint([x, s])

    def test_and_disjoint_sees_inputs_shared_through_nested_nodes(self):
        b = NetlistBuilder(tuple("abcdef"))
        i = b.input
        left = b.sym({1}, (b.inv(i(0)), b.sym({2}, (i(1), i(2)))))  # reads a, b, c
        pair = b.and_disjoint([i(3), i(4)])  # flattened into its operands d, e
        for operands in (
            [left, b.or_([b.sym({1}, (i(3), i(4))), b.inv(i(2))])],  # c, two levels down
            [i(5), left, b.inv(i(1))],  # b, the first operand disjoint from both
            [pair, b.sym({1}, (i(4), i(5)))],  # e, through the nested AND
            [b.inv(i(5)), pair, i(5)],  # f, as an inverter and a bare input
        ):
            with pytest.raises(NetlistError, match="overlapping"):
                b.and_disjoint(operands)
        ok = b.and_disjoint([left, pair, b.inv(i(5))])
        assert len(b._nodes[ok.index].operands) == 4
        nl = Netlist(b.input_names, tuple(b._nodes), ok)
        # the builder's support masks are the helper's support sets
        assert b._supports == [sum(1 << j for j in s) for s in supports(nl)]
        assert b._supports[ok.index] == 0b111111

    def test_and_flatten_and_const(self):
        b = fresh()
        inner = b.and_disjoint([b.input(0), b.input(1)])
        outer = b.and_disjoint([inner, b.const(1), b.input(2)])
        node = b._nodes[outer.index]
        assert node.kind == KIND_AND and len(node.operands) == 3
        zero = b.and_disjoint([b.input(3), b.const(0)])
        assert b._nodes[zero.index].kind == KIND_CONST

    def test_sym_degenerate_rank_sets(self):
        b = fresh()
        ops = (b.input(0), b.input(1))
        assert b._nodes[b.sym((), ops).index] == b._nodes[b.const(0).index]
        assert b._nodes[b.sym((0, 1, 2), ops).index].value == 1
        assert b.sym({1}, (b.input(2),)) == b.input(2)
        inv = b.sym({0}, (b.input(2),))
        assert b._nodes[inv.index].kind == "INV"

    def test_sym_rank_range_validated(self):
        b = fresh()
        with pytest.raises(NetlistError):
            b.sym({3}, (b.input(0), b.input(1)))

    def test_finish_prunes_unreachable(self):
        b = fresh()
        b.sym({1}, (b.input(0), b.input(1)))  # never used
        keep = b.sym({2}, (b.input(2), b.input(3)))
        nl = b.finish(keep)
        assert len(nl.nodes) == 1

    def test_finish_handles_deep_chains(self):
        b = fresh()
        ref = b.input(0)
        for k in range(1500):
            ref = b.sym({1}, (ref, b.input(1 + k % 3)))
        nl = b.finish(ref)
        assert len(nl.nodes) == 1500
        assert nl.output.index == 1499
        # the chain XORs in inputs 1, 2, 3 five hundred times each
        assert value(nl, (1, 0, 1, 1)) == 1
        assert netlist_from_text(netlist_to_text(nl)) == nl

    def test_supports(self):
        b = fresh()
        s = b.sym({1, 2}, (b.input(1), b.inv(b.input(3))))
        nl = b.finish(s)
        assert supports(nl)[nl.output.index] == {1, 3}


class TestInternFirst:
    """A repeated request returns the ref of its first answer and adds no node."""

    def test_a_repeated_request_returns_its_ref_and_adds_no_node(self):
        b = fresh()
        i = b.input
        requests = [
            lambda: b.sym({1, 2}, (i(0), b.inv(i(1)))),
            lambda: b.inv(i(2)),
            lambda: b.inv(b.sym({1}, (i(0), i(3)))),
            lambda: b.and_disjoint([b.sym({1}, (i(0), i(1))), i(2), b.inv(i(3))]),
            lambda: b.and_disjoint([b.and_disjoint([i(0), i(1)]), i(2)]),
            lambda: b.or_([i(0), b.inv(i(2)), b.sym({2}, (i(1), i(3)))]),
            lambda: b.or_([b.or_([i(0), i(1)]), i(1), i(2)]),
        ]
        firsts = []
        for request in requests:
            firsts.append(request())
            size = len(b._nodes)
            for _ in range(2):
                assert request() == firsts[-1]
                assert len(b._nodes) == size
        # asked once each, a fresh builder builds the same nodes and refs
        warm, b = b, fresh()
        i = b.input
        assert [request() for request in requests] == firsts
        assert b._nodes == warm._nodes and b._supports == warm._supports

    def test_a_request_in_another_operand_order_is_another_node(self):
        b = fresh()
        i = b.input
        for build in (lambda ops: b.sym({1}, ops), b.and_disjoint, b.or_):
            ab = build([i(0), b.inv(i(1))])
            ba = build([b.inv(i(1)), i(0)])
            assert ab != ba
            assert b._nodes[ab.index].operands == b._nodes[ba.index].operands[::-1]

    @pytest.mark.parametrize(
        "related,request_,message",
        [
            (
                lambda b, i: [b.sym({1}, (i(0), i(1))), b.const(1), b.sym({1}, (i(0), i(2)))],
                lambda b, i: b.sym({1}, (i(0), b.const(1))),
                "SYM operand n1 is a constant",
            ),
            (
                lambda b, i: [b.sym({1}, (i(0), i(1))), b.sym({1}, (i(1), i(0)))],
                lambda b, i: b.sym({1}, (i(0), i(0))),
                "SYM operand i0 repeats",
            ),
            (
                lambda b, i: [b.sym({2}, (i(0), i(1))), b.sym({0, 2}, (i(0), i(1)))],
                lambda b, i: b.sym({3}, (i(0), i(1))),
                "SYM rank set [3] out of range for its arity 2",
            ),
            (
                lambda b, i: [b.and_disjoint([i(0), i(1)]), b.and_disjoint([i(1), i(2)])],
                lambda b, i: b.and_disjoint([b.and_disjoint([i(0), i(1)]), i(1)]),
                "disjoint product with overlapping operand supports",
            ),
            (
                lambda b, i: [b.and_disjoint([i(0), b.inv(i(1))])],
                lambda b, i: b.and_disjoint([i(0), b.inv(i(1)), i(1)]),
                "disjoint product with overlapping operand supports",
            ),
            (
                lambda b, i: [b.and_disjoint([i(0), i(1)])],
                lambda b, i: b.and_disjoint([i(0), i(0)]),
                "disjoint product with overlapping operand supports",
            ),
            (
                lambda b, i: [b.sym({1}, (i(0), i(3)))],
                lambda b, i: i(4),
                "input index 4 out of range",
            ),
            (lambda b, i: [b.const(1)], lambda b, i: b.const(2), "constants must be 0 or 1"),
            (
                lambda b, i: [b.sym({1}, (i(0), i(1)))],
                lambda b, i: b.sym({1}, ()),
                "SYM needs operands",
            ),
        ],
    )
    def test_a_rejected_request_raises_the_same_error_after_related_nodes(
        self, related, request_, message
    ):
        b = fresh()
        related(b, b.input)
        nodes = list(b._nodes)
        for _ in range(2):  # a rejected request is rejected again, and interns nothing
            with pytest.raises(NetlistError) as exc:
                request_(b, b.input)
            assert str(exc.value) == message
            assert b._nodes == nodes

    def test_inv_of_inv_still_cancels(self):
        b = fresh()
        x, s = b.input(1), b.sym({1}, (b.input(0), b.input(2)))
        for ref in (x, s):
            once = b.inv(ref)
            size = len(b._nodes)
            for _ in range(2):
                assert b.inv(once) == ref
                assert b.inv(ref) == once
            assert len(b._nodes) == size
            assert b.sym({0}, (once,)) == ref
        zero = b.const(0)
        assert b.inv(b.inv(zero)) == zero


class TestValueTypes:
    def test_fields_defaults_and_token(self):
        assert Ref._fields == ("kind", "index")
        assert NetNode._fields == ("kind", "operands", "ranks", "value")
        assert NetNode(KIND_INV) == NetNode(KIND_INV, (), None, None)
        assert (node_ref(3).token, input_ref(0).token, input_ref(12).token) == ("n3", "i0", "i12")

    def test_equal_and_hash_equal_exactly_when_the_fields_match(self):
        refs = [Ref(kind, index) for kind in ("input", "node") for index in (0, 1, 2)]
        nodes = [NetNode(KIND_CONST, value=v) for v in (0, 1)]
        nodes += [NetNode(KIND_INV, (ref,)) for ref in refs]
        nodes += [
            NetNode(kind, ops, ranks)
            for kind in (KIND_SYM, KIND_OR)
            for ops in ((refs[0], refs[4]), (refs[4], refs[0]), (refs[1], refs[2], refs[5]))
            for ranks in (None, frozenset({1}), frozenset({0, 2}))
        ]
        for values in (refs, nodes):
            for a in values:
                for b in values:
                    same = tuple(getattr(a, f) for f in a._fields) == tuple(
                        getattr(b, f) for f in b._fields
                    )
                    assert (a == b) is same
                    assert (a != b) is not same
                    if same:
                        assert hash(a) == hash(b)
            assert len(set(values)) == len(values)
        # built again from fresh parts, each value is its own equal twin
        twins = [
            NetNode(n.kind, tuple(Ref(r.kind, r.index) for r in n.operands), n.ranks, n.value)
            for n in nodes
        ]
        assert twins == nodes and set(twins) == set(nodes)

    def test_immutable(self):
        ref = node_ref(1)
        node = NetNode(KIND_SYM, (input_ref(0), ref), frozenset({1}))
        for value, field in ((ref, "index"), (ref, "kind"), (node, "ranks"), (node, "operands")):
            with pytest.raises(AttributeError):
                setattr(value, field, None)
        assert (ref, node) == (node_ref(1), NetNode(KIND_SYM, (input_ref(0), ref), frozenset({1})))

    def test_a_value_is_the_tuple_of_its_fields(self):
        # the interface of a named tuple: equal to the plain tuple, unpacked, sorted
        assert node_ref(3) == ("node", 3) and hash(node_ref(3)) == hash(("node", 3))
        kind, index = input_ref(7)
        assert (kind, index) == ("input", 7)
        refs = [node_ref(2), input_ref(5), node_ref(0), input_ref(1)]
        assert sorted(refs) == [input_ref(1), input_ref(5), node_ref(0), node_ref(2)]
        assert NetNode(KIND_CONST, value=1) == ("CONST", (), None, 1)


class TestEvaluate:
    def test_sym_counts_ones(self):
        b = NetlistBuilder(("a", "b", "c"))
        nl = b.finish(b.sym({1, 3}, tuple(b.input(i) for i in range(3))))
        assert value(nl, (1, 1, 0)) == 0
        assert value(nl, (1, 0, 0)) == 1
        assert value(nl, (1, 1, 1)) == 1

    def test_inverter(self):
        b = NetlistBuilder(("x",))
        nl = b.finish(b.inv(b.input(0)))
        assert value(nl, (1,)) == 0
        assert value(nl, (0,)) == 1

    def test_mask_evaluation_agrees_pointwise(self):
        rng = random.Random(4)
        for _ in range(25):
            n = rng.randint(1, 6)
            b = NetlistBuilder(tuple(f"x{i}" for i in range(n)))
            refs = [b.input(i) for i in range(n)]
            pool = list(refs)
            for _ in range(rng.randint(1, 6)):
                kind = rng.choice("sioa")
                if kind == "s":
                    distinct = list(dict.fromkeys(pool))
                    k = rng.randint(1, min(3, len(distinct)))
                    ops = rng.sample(distinct, k)
                    ranks = {r for r in range(k + 1) if rng.random() < 0.5}
                    pool.append(b.sym(ranks & set(range(k + 1)), tuple(ops)))
                elif kind == "i":
                    pool.append(b.inv(rng.choice(pool)))
                elif kind == "o":
                    pool.append(b.or_([rng.choice(pool), rng.choice(pool)]))
                else:
                    pool.append(rng.choice(pool))
            nl = b.finish(pool[-1])
            full = full_mask(n)
            mask = netlist_mask(nl, assignment_masks(n), full)
            for a in all_assignments(n):
                idx = sum(bit << i for i, bit in enumerate(a))
                assert ((mask >> idx) & 1) == evaluate_netlist(nl, a)


class TestSymEvaluation:
    """SYM[k] evaluates as an AND, SYM[0] as a NOR, every other rank set by popcount."""

    @staticmethod
    def check(n, operands, ranks):
        b = NetlistBuilder(tuple(f"x{i}" for i in range(n)))
        refs = [b.inv(b.input(j)) if inv else b.input(j) for j, inv in operands]
        nodes = tuple(b._nodes) + (NetNode(KIND_SYM, tuple(refs), frozenset(ranks)),)
        nl = Netlist(b.input_names, nodes, node_ref(len(nodes) - 1))
        mask = netlist_mask(nl, assignment_masks(n), full_mask(n))
        for a in all_assignments(n):
            idx = sum(bit << i for i, bit in enumerate(a))
            assert (mask >> idx) & 1 == evaluate_netlist(nl, a)

    def test_every_rank_set_up_to_four_operands(self):
        for k in range(1, 5):
            for subset in range(1 << (k + 1)):
                ranks = {r for r in range(k + 1) if subset >> r & 1}
                self.check(k, [(j, j % 2) for j in range(k)], ranks)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_nodes_of_up_to_eight_operands(self, data):
        n = data.draw(st.integers(1, 8))
        k = data.draw(st.integers(1, n))
        picked = data.draw(st.permutations(range(n)))[:k]
        inverted = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
        ranks = data.draw(
            st.one_of(
                st.just({0}),
                st.just({k}),
                st.sets(st.integers(0, k), max_size=k + 1),
            )
        )
        self.check(n, list(zip(picked, inverted)), ranks)


class TestSerialization:
    def build_sample(self):
        b = NetlistBuilder(("a", "b", "c", "d"))
        left = b.sym({1}, (b.input(0), b.input(1)))
        right = b.sym({1}, (b.input(2), b.inv(b.input(3))))
        return b.finish(b.or_([b.and_disjoint([left, right]), b.const(0)]))

    def test_text_round_trip(self):
        nl = self.build_sample()
        text = netlist_to_text(nl)
        again = netlist_from_text(text)
        assert netlist_to_text(again) == text
        for a in all_assignments(4):
            assert evaluate_netlist(again, a) == evaluate_netlist(nl, a)

    def test_text_shape(self):
        nl = self.build_sample()
        lines = netlist_to_text(nl).splitlines()
        assert lines[0] == "inputs: a b c d"
        assert lines[1] == "0 SYM [1] i0 i1"
        assert lines[-1].startswith("output: n")

    @pytest.mark.parametrize(
        "text,match",
        [
            ("0 SYM [1] i0\n", "before inputs"),
            ("inputs: a\noutput: n0\n", "earlier node"),
            ("inputs: a\n0 SYM i0\noutput: n0\n", "rank"),
            ("inputs: a\n1 INV i0\noutput: n1\n", "out of sequence"),
            ("inputs: a\n0 FOO i0\noutput: n0\n", "node kind"),
            ("inputs: a\n0 INV i4\noutput: n0\n", "out of range"),
            ("inputs: a\n0 CONST 2\noutput: n0\n", "0/1"),
            ("inputs: a b\n0 SYM [3] i0 i1\noutput: n0\n", "out of range for its arity"),
            ("inputs: a\n0 AND_DISJOINT\noutput: n0\n", "AND_DISJOINT needs operands"),
            ("inputs: a\n0 OR\noutput: n0\n", "OR needs operands"),
            ("inputs: a\n0 AND_DISJOINT i0 i0\noutput: n0\n", "overlapping"),
            ("inputs: a b\n0 INV i0\n1 AND_DISJOINT n0 i1 i0\noutput: n1\n", "overlapping"),
            ("inputs: a\n", "missing output"),
            ("inputs: a b c\n0 SYM [1] i0 i2\ninputs: a\noutput: n0\n", "repeated inputs"),
            ("inputs: a b a\n0 INV i0\noutput: n0\n", "duplicate input names"),
            ("inputs: a\n0 INV i0\noutput: n0\noutput: i0\n", "repeated output"),
            ("inputs: a\n0 INV i0\noutput: n0\n1 INV n0\n", "after output"),
            ("inputs: a b\n0 INV i+1\noutput: n0\n", "line 2: bad operand token"),
            ("inputs: a b\n0 INV i0_1\noutput: n0\n", "line 2: bad operand token"),
            ("inputs: a b\n0 INV i\u0661\noutput: n0\n", "line 2: bad operand token"),
            ("inputs: a b\n0 INV i01\noutput: n0\n", "line 2: bad operand token"),
            ("inputs: a\n0 INV i0\noutput: n+0\n", "line 3: bad operand token"),
            ("inputs: a\n+0 INV i0\noutput: n0\n", "line 2: expected node index"),
            ("inputs: a b\n0 SYM [+1] i0 i1\noutput: n0\n", "line 2: bad rank"),
            ("inputs: a\n0 SYM [x] i0\noutput: n0\n", "line 2: bad rank"),
            ("inputs: a b\n0 SYM [0,,2] i0 i1\noutput: n0\n", "line 2: bad rank ''"),
            ("inputs: a b\n0 SYM [2,0] i0 i1\noutput: n0\n", "line 2: SYM ranks must be listed"),
            ("inputs: a b\n0 SYM [1,1] i0 i1\noutput: n0\n", "line 2: SYM ranks must be listed"),
            ("inputs: a\n0 SYM [1] i0\noutput: n0\n", "line 2: SYM node is not canonical"),
            ("inputs: a\n0 OR i0\noutput: n0\n", "line 2: OR node is not canonical"),
            ("inputs: a b c\n0 SYM [0,1,2,3] i0 i1 i2\noutput: n0\n", "line 2: SYM node .* CONST 1"),
            ("inputs: a b\n0 CONST 0\n1 OR n0 i0 i1\noutput: n1\n", "line 3: OR node .* OR i0 i1$"),
            ("inputs: a b c\n0 OR i0 i1\n1 OR n0 i2\noutput: n1\n", "line 3: .* OR i0 i1 i2$"),
            ("inputs: a\n0 INV i0\n1 INV n0\noutput: n1\n", "line 3: INV node .* as i0$"),
            ("inputs: a b\n0 INV i0\n1 INV i0\n2 OR n0 n1 i1\noutput: n2\n", "line 3: .* as n0$"),
            ("inputs: a b\n0 INV i0\n1 INV i1\noutput: n1\n", "line 2: node 0 is unreachable"),
            ("inputs: a b\n0 CONST 1\n1 SYM [1] n0 i1\noutput: n1\n", "line 3: SYM operand n0 is a"),
            ("inputs: a\n0 SYM [0] i0\noutput: n0\n", "line 2: SYM node .* as INV i0$"),
            (
                "inputs: a b\n0 SYM [1] i0 i0\n1 SYM [1] i1 n0\noutput: n1\n",
                "line 2: SYM operand i0 repeats$",
            ),
            ("inputs: a b\n0 INV i0 i1\noutput: n0\n", "^line 2: INV takes exactly one operand$"),
            ("", "^missing inputs line$"),
        ],
    )
    def test_parse_errors(self, text, match):
        with pytest.raises(ParseError, match=match):
            netlist_from_text(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            # a rank spelling parsed once per call is looked up by its spelling
            (
                "inputs: a b\n0 SYM [1] i0 i1\n1 SYM [01] i0 i1\n2 OR n0 n1\noutput: n2\n",
                "line 3: bad rank '01'",
            ),
            (
                "inputs: a b\n0 SYM [1] i0 i1\n1 SYM [+1] i0 i1\n2 OR n0 n1\noutput: n2\n",
                "line 3: bad rank '+1'",
            ),
            (
                "inputs: a b\n0 SYM [1] i0 i1\n1 SYM [1,1] i0 i1\n2 OR n0 n1\noutput: n2\n",
                "line 3: SYM ranks must be listed in increasing order",
            ),
            (
                "inputs: a b\n0 SYM [0,2] i0 i1\n1 SYM [2,0] i0 i1\n2 OR n0 n1\noutput: n2\n",
                "line 3: SYM ranks must be listed in increasing order",
            ),
            # an operand token registered as valid does not let its other spellings through
            (
                "inputs: a b\n0 SYM [1] i0 i1\n1 SYM [2] i01 i0\n2 OR n0 n1\noutput: n2\n",
                "line 3: bad operand token 'i01'",
            ),
            (
                "inputs: a b\n0 SYM [1] i0 i1\n1 SYM [2] i+1 i0\n2 OR n0 n1\noutput: n2\n",
                "line 3: bad operand token 'i+1'",
            ),
            (
                "inputs: a b\n0 INV i0\n1 INV i1\n2 SYM [1] n0 n1\n3 OR n01 n2\noutput: n3\n",
                "line 5: bad operand token 'n01'",
            ),
            (
                "inputs: a b\n0 INV i0\n1 SYM [1] n0 i1\noutput: n+1\n",
                "line 4: bad operand token 'n+1'",
            ),
            (
                "inputs: a b\n0 INV i0\n1 SYM [1] n0 i1\noutput: n01\n",
                "line 4: bad operand token 'n01'",
            ),
            # a node index is the exact spelling of its position
            (
                "inputs: a b\n0 SYM [1] i0 i1\n01 INV n0\noutput: n1\n",
                "line 3: expected node index, got '01'",
            ),
            (
                "inputs: a b\n0 SYM [1] i0 i1\n+1 INV n0\noutput: n1\n",
                "line 3: expected node index, got '+1'",
            ),
            (
                "inputs: a b\n0 SYM [1] i0 i1\n+0 INV n0\noutput: n1\n",
                "line 3: expected node index, got '+0'",
            ),
            (
                "inputs: a b\n0 SYM [1] i0 i1\n0 INV n0\noutput: n1\n",
                "line 3: node index 0 out of sequence",
            ),
        ],
    )
    def test_an_earlier_valid_spelling_lets_no_other_spelling_through(self, text, message):
        with pytest.raises(ParseError) as exc:
            netlist_from_text(text)
        assert str(exc.value) == message

    def test_json_dict(self):
        nl = self.build_sample()
        d = netlist_to_json_dict(nl)
        assert d["inputs"] == ["a", "b", "c", "d"]
        assert d["output"].startswith("n")
        kinds = [node["kind"] for node in d["nodes"]]
        assert "SYM" in kinds and "AND_DISJOINT" in kinds
        assert d["nodes"][0]["ranks"] == [1]

    def test_expr_printer(self):
        nl = self.build_sample()
        assert netlist_to_expr(nl) == "(SYM[1](a, b) & SYM[1](c, ~d))"
