"""Netlists of symmetric components, inverters, disjoint products and sums.

Node kinds:

- ``SYM``: a totally symmetric component; fires iff the popcount of its
  operand values lies in its rank set.
- ``INV``: inverter.
- ``AND_DISJOINT``: product whose operands have pairwise disjoint input
  supports (checked at construction).
- ``OR``: n-ary sum, kept flat rather than as a tree.
- ``CONST``: constant 0 or 1.

Operands are references either to earlier nodes (``n3``) or directly to
circuit inputs (``i0``), so a bare literal needs no node at all.  The
builder interns structurally identical nodes, which in particular shares
one inverter per phased input, and applies local simplifications so that
emitted netlists are canonical: no single-operand gates, no empty or full
rank sets, no constant operands, no nested ORs or ANDs, no double
inverters, and no duplicate or unreachable nodes.  The builder is the one
rulebook: the text reader replays every node through it and accepts only
the form the writer emits.

A node (``NetNode``) and a reference (``Ref``) are named tuples, so
building, hashing and comparing them are tuple operations in C: the
decomposer, the mapper and the reader build, intern and compare hundreds of
thousands of them per run.  They are built through ``tuple.__new__``, not
the named tuple's Python-level constructor.  A node is its own interning
key.  As tuples they also equal plain tuples with the same fields, unpack
and sort.  Each node's input support is kept as an int bit mask, input
``i`` at bit ``i``.

Every stage pays once per distinct value.  A builder makes its input refs
once and one ref per new node.  The reader registers each valid operand token
as it becomes valid and parses only a token it is about to reject; it
parses each rank spelling once, and the writer spells each rank set once.
All memo state is local to one call or one builder, so no run warms the
next.  The evaluator reads a SYM node whose rank set is {k}, k its arity,
as the AND of its operands and one whose rank set is {0} as their NOR: k
big-integer operations instead of the popcount partition's k(k+1)/2.
"""

from __future__ import annotations

from functools import partial, reduce
from operator import and_, attrgetter, or_
from typing import Callable, Iterable, NamedTuple, NoReturn, Sequence

from .cubes import ParseError, popcount_class_masks

KIND_SYM = "SYM"
KIND_INV = "INV"
KIND_AND = "AND_DISJOINT"
KIND_OR = "OR"
KIND_CONST = "CONST"

_KINDS = (KIND_SYM, KIND_INV, KIND_AND, KIND_OR, KIND_CONST)


class NetlistError(ValueError):
    """Structural violation while building or reading a netlist."""


class Ref(NamedTuple):
    """Reference to a node (kind 'node') or a circuit input (kind 'input')."""

    kind: str
    index: int

    @property
    def token(self) -> str:
        return ("n" if self.kind == "node" else "i") + str(self.index)


# a value from the tuple of its fields, built in C
_new_ref = partial(tuple.__new__, Ref)


def node_ref(index: int) -> Ref:
    return _new_ref(("node", index))


def input_ref(index: int) -> Ref:
    return _new_ref(("input", index))


class NetNode(NamedTuple):
    kind: str
    operands: tuple[Ref, ...] = ()
    ranks: frozenset[int] | None = None
    value: int | None = None


_new_node = partial(tuple.__new__, NetNode)
_RANK0 = frozenset({0})


class Netlist(NamedTuple):
    """An immutable DAG; nodes are topologically ordered by index."""

    input_names: tuple[str, ...]
    nodes: tuple[NetNode, ...]
    output: Ref

    @property
    def n(self) -> int:
        return len(self.input_names)

    def sym_nodes(self) -> list[NetNode]:
        return [node for node in self.nodes if node.kind == KIND_SYM]


def _support(operands: Sequence[Ref], supports: Sequence[int]) -> int:
    """Union of the operands' input supports, given the supports of earlier nodes."""
    acc = 0
    for kind, index in operands:
        acc |= 1 << index if kind == "input" else supports[index]
    return acc


def _overlapping(operands: Sequence[Ref], supports: Sequence[int]) -> bool:
    """True iff two operands share an input."""
    acc = 0
    for kind, index in operands:
        part = 1 << index if kind == "input" else supports[index]
        if acc & part:
            return True
        acc |= part
    return False


class NetlistBuilder:
    """Construct a netlist bottom-up with interning and local simplification."""

    def __init__(self, input_names: Sequence[str]):
        self.input_names = tuple(input_names)
        self._inputs = tuple(map(input_ref, range(len(self.input_names))))
        self._nodes: list[NetNode] = []
        self._intern: dict[NetNode, Ref] = {}
        self._supports: list[int] = []

    # -- reference constructors

    def input(self, index: int) -> Ref:
        if not 0 <= index < len(self._inputs):
            raise NetlistError(f"input index {index} out of range")
        return self._inputs[index]

    def const(self, value: int) -> Ref:
        if value not in (0, 1):
            raise NetlistError("constants must be 0 or 1")
        return self._add(_new_node((KIND_CONST, (), None, value)))

    def inv(self, ref: Ref) -> Ref:
        operand = self._resolve(ref)
        if operand is not None:
            if operand.kind == KIND_CONST:
                return self.const(1 - operand.value)
            if operand.kind == KIND_INV:
                return operand.operands[0]
        return self._add(_new_node((KIND_INV, (ref,), None, None)))

    def sym(self, ranks: Iterable[int], operands: Sequence[Ref]) -> Ref:
        operands = tuple(operands)
        ranks = frozenset(ranks)
        if not operands:
            raise NetlistError("SYM needs operands")
        for ref in operands:
            if ref.kind == "node" and self._nodes[ref.index].kind == KIND_CONST:
                raise NetlistError(f"SYM operand {ref.token} is a constant")
        k = len(operands)
        if len(set(operands)) < k:
            dup = next(ref for j, ref in enumerate(operands) if ref in operands[:j])
            raise NetlistError(f"SYM operand {dup.token} repeats")
        if not ranks.issubset(range(k + 1)):
            raise NetlistError(f"SYM rank set {sorted(ranks)} out of range for its arity {k}")
        if not ranks:
            return self.const(0)
        if len(ranks) == k + 1:
            return self.const(1)
        if k == 1:
            return operands[0] if ranks == {1} else self.inv(operands[0])
        return self._add(_new_node((KIND_SYM, operands, ranks, None)))

    def and_disjoint(self, operands: Sequence[Ref]) -> Ref:
        flat: list[Ref] = []
        for ref in operands:
            node = self._resolve(ref)
            if node is not None and node.kind == KIND_CONST:
                if node.value == 0:
                    return self.const(0)
                continue
            if node is not None and node.kind == KIND_AND:
                flat.extend(node.operands)
            else:
                flat.append(ref)
        if not flat:
            return self.const(1)
        if len(flat) == 1:
            return flat[0]
        if _overlapping(flat, self._supports):
            raise NetlistError("disjoint product with overlapping operand supports")
        return self._add(_new_node((KIND_AND, tuple(flat), None, None)))

    def or_(self, operands: Sequence[Ref]) -> Ref:
        flat: list[Ref] = []
        seen: set[Ref] = set()
        for ref in operands:
            node = self._resolve(ref)
            if node is not None and node.kind == KIND_CONST:
                if node.value == 1:
                    return self.const(1)
                continue
            children = node.operands if node is not None and node.kind == KIND_OR else (ref,)
            for child in children:
                if child not in seen:
                    seen.add(child)
                    flat.append(child)
        if not flat:
            return self.const(0)
        if len(flat) == 1:
            return flat[0]
        return self._add(_new_node((KIND_OR, tuple(flat), None, None)))

    # -- assembly

    def finish(self, output: Ref) -> Netlist:
        """Freeze the netlist, dropping nodes unreachable from the output."""
        reachable = _reachable(self._nodes, output)
        if all(reachable):
            return Netlist(self.input_names, tuple(self._nodes), output)
        keep = [i for i, live in enumerate(reachable) if live]
        remap = {("node", old): node_ref(new) for new, old in enumerate(keep)}
        nodes = tuple(
            _new_node((kind, tuple([remap.get(op, op) for op in operands]), ranks, value))
            for kind, operands, ranks, value in map(self._nodes.__getitem__, keep)
        )
        return Netlist(self.input_names, nodes, remap.get(output, output))

    def replay(self, kind: str, operands: tuple[Ref, ...], ranks, value) -> Ref:
        """Build one node given as its fields, the way the text format lists it."""
        if kind == KIND_SYM:
            return self.sym(ranks, operands)
        if kind == KIND_INV:
            return self.inv(operands[0])
        if kind == KIND_AND:
            return self.and_disjoint(operands)
        if kind == KIND_OR:
            return self.or_(operands)
        return self.const(value)

    # -- internals

    def _resolve(self, ref: Ref) -> NetNode | None:
        return self._nodes[ref.index] if ref.kind == "node" else None

    def _add(self, node: NetNode) -> Ref:
        ref = self._intern.get(node)
        return self._insert(node) if ref is None else ref

    def _insert(self, node: NetNode) -> Ref:
        """Append and intern a node known not to be interned yet."""
        ref = self._intern[node] = _new_ref(("node", len(self._nodes)))
        self._nodes.append(node)
        self._supports.append(_support(node.operands, self._supports))
        return ref


def _reachable(nodes: Sequence[NetNode], output: Ref) -> list[bool]:
    """Which nodes the output depends on."""
    # operands point to earlier nodes, so one backward sweep marks them all
    reachable = [False] * len(nodes)
    if output.kind == "node":
        reachable[output.index] = True
    for i in range(len(nodes) - 1, -1, -1):
        if reachable[i]:
            for op in nodes[i].operands:
                if op.kind == "node":
                    reachable[op.index] = True
    return reachable


# ---------------------------------------------------------------------------
# evaluation


def netlist_mask(nl: Netlist, input_masks: Sequence[int], full: int) -> int:
    """Evaluate the netlist on every assignment at once.

    ``input_masks[i]`` is the truth-table mask of input ``i`` over the
    assignment space described by ``full``.  A SYM node of rank set {k}, k
    its arity, is the AND of its operands and one of rank set {0} their
    NOR; other symmetric nodes use a running popcount partition, so the
    whole netlist costs O(nodes * arity**2) big-integer operations.
    """
    # a Ref equals and hashes as the tuple of its fields, so plain tuples key the masks
    masks = {("input", i): mask for i, mask in enumerate(input_masks)}
    val = masks.__getitem__
    for i, (kind, operands, ranks, value) in enumerate(nl.nodes):
        if kind == KIND_SYM:
            if len(ranks) == 1 and len(operands) in ranks:
                acc = reduce(and_, map(val, operands), full)
            elif ranks == _RANK0:
                acc = ~reduce(or_, map(val, operands), 0) & full
            else:
                classes = popcount_class_masks(list(map(val, operands)), full)
                acc = 0
                for r in ranks:
                    acc |= classes[r]
        elif kind == KIND_INV:
            acc = ~val(operands[0]) & full
        elif kind == KIND_AND:
            acc = reduce(and_, map(val, operands), full)
        elif kind == KIND_OR:
            acc = reduce(or_, map(val, operands), 0)
        elif kind == KIND_CONST:
            acc = full if value else 0
        else:  # pragma: no cover
            raise NetlistError(f"unknown node kind {kind!r}")
        masks["node", i] = acc
    return val(nl.output)


# ---------------------------------------------------------------------------
# serialization
#
# Text format, one node per line:
#
#     inputs: a b c
#     0 SYM [1,3] i0 i1 i2
#     1 INV n0
#     output: n1
#
# Tokens iK reference inputs, nK reference earlier nodes.  SYM nodes carry
# their rank set; CONST nodes carry their value.


def _node_text(node: NetNode, token: Callable[[Ref], str], spelled: dict) -> str:
    """A node line without its index; ``token`` spells an operand, ``spelled`` keeps rank sets."""
    kind, operands, ranks, value = node
    if kind == KIND_SYM:
        text = spelled.get(ranks)
        if text is None:
            text = spelled[ranks] = "[" + ",".join(map(str, sorted(ranks))) + "]"
        kind += " " + text
    elif kind == KIND_CONST:
        kind += " " + str(value)
    return " ".join([kind, *map(token, operands)])


def netlist_to_text(nl: Netlist) -> str:
    """The netlist in the text format above; each token and rank set is spelled once."""
    # a Ref equals and hashes as the tuple of its fields, so plain tuples key the tokens
    tokens = {("input", i): f"i{i}" for i in range(nl.n)}
    spelled: dict[frozenset[int], str] = {}
    lines = ["inputs: " + " ".join(nl.input_names)]
    for i, node in enumerate(nl.nodes):
        lines.append(f"{i} {_node_text(node, tokens.__getitem__, spelled)}")
        tokens["node", i] = f"n{i}"
    lines.append("output: " + nl.output.token)
    return "\n".join(lines) + "\n"


def _parse_number(digits: str, message: str, lineno: int) -> int:
    """A number as the writer spells it: ASCII digits, no sign, no leading zero."""
    if not (digits.isascii() and digits.isdigit()) or (digits[0] == "0" and len(digits) > 1):
        raise ParseError(message, lineno)
    return int(digits)


def _reject_ref(token: str, lineno: int) -> NoReturn:
    """Name what is wrong with an operand token that is not registered: every
    input and every earlier node is, so a well-spelled one is out of range."""
    if len(token) < 2 or token[0] not in "ni":
        raise ParseError(f"bad operand token {token!r}", lineno)
    _parse_number(token[1:], f"bad operand token {token!r}", lineno)
    if token[0] == "i":
        raise ParseError(f"input reference {token} out of range", lineno)
    raise ParseError(f"node reference {token} must point to an earlier node", lineno)


def _parse_ranks(spelling: str, lineno: int) -> frozenset[int]:
    """A SYM rank set as the writer spells it: ``[r,...]``, increasing, no repeats."""
    if not (spelling.startswith("[") and spelling.endswith("]")):
        raise ParseError("SYM node needs a [rank,...] set", lineno)
    listed = [
        _parse_number(tok, f"bad rank {tok!r}", lineno) for tok in spelling[1:-1].split(",")
    ]
    if listed != sorted(set(listed)):
        raise ParseError("SYM ranks must be listed in increasing order", lineno)
    return frozenset(listed)


def netlist_from_text(text: str) -> Netlist:
    """Read the text format, accepting only what the writer emits.

    Each node line is replayed through a ``NetlistBuilder``.  A node the
    builder rejects, rewrites, merges with an earlier node, or drops as
    unreachable from the output raises ``ParseError`` naming its line.
    Each valid operand token is registered as it becomes valid, so a token
    is parsed only to be rejected; each rank spelling is parsed once.
    """
    builder: NetlistBuilder | None = None
    nodes: list[NetNode] = []
    linenos: list[int] = []
    refs: dict[str, Ref] = {}
    rank_sets: dict[str, frozenset[int]] = {}
    output: Ref | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("inputs:"):
            if builder is not None:
                raise ParseError("repeated inputs line", lineno)
            input_names = tuple(line[len("inputs:"):].split())
            if len(set(input_names)) != len(input_names):
                raise ParseError("duplicate input names", lineno)
            builder = NetlistBuilder(input_names)
            nodes = builder._nodes
            refs = {ref.token: ref for ref in builder._inputs}
            continue
        if line.startswith("output:"):
            if builder is None:
                raise ParseError("output before inputs", lineno)
            if output is not None:
                raise ParseError("repeated output line", lineno)
            token = line[len("output:"):].strip()
            output = refs[token] if token in refs else _reject_ref(token, lineno)
            continue
        if builder is None:
            raise ParseError("node line before inputs", lineno)
        if output is not None:
            raise ParseError("node line after output", lineno)
        parts = line.split()
        idx = len(nodes)
        if parts[0] != str(idx):
            number = _parse_number(parts[0], f"expected node index, got {parts[0]!r}", lineno)
            raise ParseError(f"node index {number} out of sequence", lineno)
        if len(parts) < 2 or parts[1] not in _KINDS:
            raise ParseError("expected a node kind", lineno)
        kind = parts[1]
        rest = parts[2:]
        ranks = None
        value = None
        if kind == KIND_SYM:
            spelling = rest[0] if rest else ""
            ranks = rank_sets.get(spelling)
            if ranks is None:
                ranks = rank_sets[spelling] = _parse_ranks(spelling, lineno)
            rest = rest[1:]
        if kind == KIND_CONST:
            if len(rest) != 1 or rest[0] not in ("0", "1"):
                raise ParseError("CONST node needs a single 0/1 value", lineno)
            value = int(rest[0])
            rest = []
        for tok in rest:
            if tok not in refs:  # every valid token is registered: this one is rejected
                _reject_ref(tok, lineno)
        operands = tuple(map(refs.__getitem__, rest))
        if kind == KIND_INV and len(operands) != 1:
            raise ParseError("INV takes exactly one operand", lineno)
        if kind in (KIND_SYM, KIND_AND, KIND_OR) and not operands:
            raise ParseError(f"{kind} needs operands", lineno)
        try:
            ref = builder.replay(kind, operands, ranks, value)
        except NetlistError as exc:
            raise ParseError(str(exc), lineno) from None
        fresh = ref.kind == "node" and ref.index == idx
        if not fresh or nodes[idx].kind != kind or nodes[idx].operands != operands:
            made = _node_text(nodes[idx], attrgetter("token"), {}) if fresh else ref.token
            raise ParseError(f"{kind} node is not canonical: it builds as {made}", lineno)
        linenos.append(lineno)
        refs[f"n{idx}"] = ref
    if builder is None:
        raise ParseError("missing inputs line")
    if output is None:
        raise ParseError("missing output line")
    nl = builder.finish(output)
    if len(nl.nodes) != len(nodes):
        dead = _reachable(nodes, output).index(False)
        raise ParseError(f"node {dead} is unreachable from the output", linenos[dead])
    return nl


def netlist_to_json_dict(nl: Netlist) -> dict:
    nodes = []
    for i, node in enumerate(nl.nodes):
        entry: dict = {"id": i, "kind": node.kind}
        if node.ranks is not None:
            entry["ranks"] = sorted(node.ranks)
        if node.value is not None:
            entry["value"] = node.value
        entry["operands"] = [op.token for op in node.operands]
        nodes.append(entry)
    return {"inputs": list(nl.input_names), "nodes": nodes, "output": nl.output.token}


def netlist_to_expr(nl: Netlist) -> str:
    """Human-readable expression for reports."""

    def name(ref: Ref) -> str:
        if ref.kind == "input":
            return nl.input_names[ref.index]
        return rendered[ref.index]

    rendered: list[str] = []
    for node in nl.nodes:
        if node.kind == KIND_CONST:
            rendered.append(str(node.value))
        elif node.kind == KIND_INV:
            rendered.append("~" + name(node.operands[0]))
        elif node.kind == KIND_AND:
            rendered.append("(" + " & ".join(name(op) for op in node.operands) + ")")
        elif node.kind == KIND_OR:
            rendered.append("(" + " + ".join(name(op) for op in node.operands) + ")")
        else:
            ranks = ",".join(map(str, sorted(node.ranks)))
            rendered.append(f"SYM[{ranks}](" + ", ".join(name(op) for op in node.operands) + ")")
    return name(nl.output)
