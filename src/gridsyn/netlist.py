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
thousands of them per run.  A node is its own interning key.  As tuples
they also equal plain tuples with the same fields, unpack and sort.  Each
node's input support is kept as an int bit mask, input ``i`` at bit ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Sequence

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


def node_ref(index: int) -> Ref:
    return Ref("node", index)


def input_ref(index: int) -> Ref:
    return Ref("input", index)


class NetNode(NamedTuple):
    kind: str
    operands: tuple[Ref, ...] = ()
    ranks: frozenset[int] | None = None
    value: int | None = None


@dataclass(frozen=True)
class Netlist:
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
        self._nodes: list[NetNode] = []
        self._intern: dict[NetNode, Ref] = {}
        self._supports: list[int] = []

    # -- reference constructors

    def input(self, index: int) -> Ref:
        if not 0 <= index < len(self.input_names):
            raise NetlistError(f"input index {index} out of range")
        return input_ref(index)

    def const(self, value: int) -> Ref:
        if value not in (0, 1):
            raise NetlistError("constants must be 0 or 1")
        return self._add(NetNode(KIND_CONST, value=value))

    def inv(self, ref: Ref) -> Ref:
        node = self._resolve(ref)
        if node is not None:
            if node.kind == KIND_CONST:
                return self.const(1 - node.value)
            if node.kind == KIND_INV:
                return node.operands[0]
        return self._add(NetNode(KIND_INV, (ref,)))

    def sym(self, ranks: Iterable[int], operands: Sequence[Ref]) -> Ref:
        operands = tuple(operands)
        if not operands:
            raise NetlistError("SYM needs operands")
        for ref in operands:
            if ref.kind == "node" and self._nodes[ref.index].kind == KIND_CONST:
                raise NetlistError(f"SYM operand {ref.token} is a constant")
        k = len(operands)
        if len(set(operands)) < k:
            dup = next(ref for j, ref in enumerate(operands) if ref in operands[:j])
            raise NetlistError(f"SYM operand {dup.token} repeats")
        ranks = frozenset(ranks)
        if not ranks.issubset(range(k + 1)):
            raise NetlistError(f"SYM rank set {sorted(ranks)} out of range for its arity {k}")
        if not ranks:
            return self.const(0)
        if len(ranks) == k + 1:
            return self.const(1)
        if k == 1:
            return operands[0] if ranks == {1} else self.inv(operands[0])
        return self._add(NetNode(KIND_SYM, operands, ranks=ranks))

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
        return self._add(NetNode(KIND_AND, tuple(flat)))

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
        return self._add(NetNode(KIND_OR, tuple(flat)))

    # -- assembly

    def finish(self, output: Ref) -> Netlist:
        """Freeze the netlist, dropping nodes unreachable from the output."""
        reachable = _reachable(self._nodes, output)
        if all(reachable):
            return Netlist(self.input_names, tuple(self._nodes), output)
        keep = [i for i, live in enumerate(reachable) if live]
        remap = {old: new for new, old in enumerate(keep)}

        def remap_ref(ref: Ref) -> Ref:
            return node_ref(remap[ref.index]) if ref.kind == "node" else ref

        nodes = tuple(
            NetNode(
                self._nodes[old].kind,
                tuple(remap_ref(op) for op in self._nodes[old].operands),
                ranks=self._nodes[old].ranks,
                value=self._nodes[old].value,
            )
            for old in keep
        )
        return Netlist(self.input_names, nodes, remap_ref(output))

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
        if ref is None:
            ref = self._intern[node] = node_ref(len(self._nodes))
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
    assignment space described by ``full``.  Symmetric nodes use a running
    popcount partition, so the whole netlist costs O(nodes * arity**2)
    big-integer operations.
    """
    masks: list[int] = []

    def val(ref: Ref) -> int:
        return input_masks[ref.index] if ref.kind == "input" else masks[ref.index]

    for node in nl.nodes:
        if node.kind == KIND_CONST:
            masks.append(full if node.value else 0)
        elif node.kind == KIND_INV:
            masks.append(~val(node.operands[0]) & full)
        elif node.kind == KIND_AND:
            acc = full
            for op in node.operands:
                acc &= val(op)
            masks.append(acc)
        elif node.kind == KIND_OR:
            acc = 0
            for op in node.operands:
                acc |= val(op)
            masks.append(acc)
        elif node.kind == KIND_SYM:
            classes = popcount_class_masks([val(op) for op in node.operands], full)
            acc = 0
            for r in node.ranks:
                acc |= classes[r]
            masks.append(acc)
        else:  # pragma: no cover
            raise NetlistError(f"unknown node kind {node.kind!r}")
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


def _node_text(node: NetNode, token: Callable[[Ref], str]) -> str:
    """A node line without its index; ``token`` spells an operand."""
    parts = [node.kind]
    if node.kind == KIND_SYM:
        parts.append("[" + ",".join(map(str, sorted(node.ranks))) + "]")
    if node.kind == KIND_CONST:
        parts.append(str(node.value))
    parts.extend(map(token, node.operands))
    return " ".join(parts)


def netlist_to_text(nl: Netlist) -> str:
    """The netlist in the text format above; each operand token is spelled once."""
    # a Ref equals and hashes as the tuple of its fields, so plain tuples key the tokens
    tokens = {("input", i): f"i{i}" for i in range(nl.n)}
    lines = ["inputs: " + " ".join(nl.input_names)]
    for i, node in enumerate(nl.nodes):
        lines.append(f"{i} {_node_text(node, tokens.__getitem__)}")
        tokens["node", i] = f"n{i}"
    lines.append("output: " + nl.output.token)
    return "\n".join(lines) + "\n"


def _parse_number(digits: str, message: str, lineno: int) -> int:
    """A number as the writer spells it: ASCII digits, no sign, no leading zero."""
    if not (digits.isascii() and digits.isdigit()) or (digits[0] == "0" and len(digits) > 1):
        raise ParseError(message, lineno)
    return int(digits)


def _parse_ref(token: str, num_nodes: int, num_inputs: int, lineno: int) -> Ref:
    if len(token) < 2 or token[0] not in "ni":
        raise ParseError(f"bad operand token {token!r}", lineno)
    idx = _parse_number(token[1:], f"bad operand token {token!r}", lineno)
    if token[0] == "i":
        if not 0 <= idx < num_inputs:
            raise ParseError(f"input reference {token} out of range", lineno)
        return input_ref(idx)
    if not 0 <= idx < num_nodes:
        raise ParseError(f"node reference {token} must point to an earlier node", lineno)
    return node_ref(idx)


def netlist_from_text(text: str) -> Netlist:
    """Read the text format, accepting only what the writer emits.

    Each node line is replayed through a ``NetlistBuilder``.  A node the
    builder rejects, rewrites, merges with an earlier node, or drops as
    unreachable from the output raises ``ParseError`` naming its line.
    """
    builder: NetlistBuilder | None = None
    nodes: list[NetNode] = []
    linenos: list[int] = []
    refs: dict[str, Ref] = {}
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
            continue
        if line.startswith("output:"):
            if builder is None:
                raise ParseError("output before inputs", lineno)
            if output is not None:
                raise ParseError("repeated output line", lineno)
            token = line[len("output:"):].strip()
            output = _parse_ref(token, len(nodes), len(input_names), lineno)
            continue
        if builder is None:
            raise ParseError("node line before inputs", lineno)
        if output is not None:
            raise ParseError("node line after output", lineno)
        parts = line.split()
        idx = _parse_number(parts[0], f"expected node index, got {parts[0]!r}", lineno)
        if idx != len(nodes):
            raise ParseError(f"node index {idx} out of sequence", lineno)
        if len(parts) < 2 or parts[1] not in _KINDS:
            raise ParseError("expected a node kind", lineno)
        kind = parts[1]
        rest = parts[2:]
        ranks = None
        value = None
        if kind == KIND_SYM:
            if not rest or not (rest[0].startswith("[") and rest[0].endswith("]")):
                raise ParseError("SYM node needs a [rank,...] set", lineno)
            listed = [
                _parse_number(tok, f"bad rank {tok!r}", lineno)
                for tok in rest[0][1:-1].split(",")
            ]
            if listed != sorted(set(listed)):
                raise ParseError("SYM ranks must be listed in increasing order", lineno)
            ranks = listed
            rest = rest[1:]
        if kind == KIND_CONST:
            if len(rest) != 1 or rest[0] not in ("0", "1"):
                raise ParseError("CONST node needs a single 0/1 value", lineno)
            value = int(rest[0])
            rest = []
        for tok in rest:
            if tok not in refs:  # a token once valid stays valid: nodes only grow
                refs[tok] = _parse_ref(tok, idx, len(input_names), lineno)
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
            made = _node_text(nodes[idx], attrgetter("token")) if fresh else ref.token
            raise ParseError(f"{kind} node is not canonical: it builds as {made}", lineno)
        linenos.append(lineno)
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
