"""Independent oracles for the benchmark's correctness checks.

Nothing here imports gridsyn.  Covers are plain lists of cube strings,
netlists are read from their text form, and functions are evaluated on
explicit assignment lists, so a defect in the program cannot hide behind
the same defect in its own checker.
"""

from __future__ import annotations

import random

EXHAUSTIVE_MAX = 12  # check every assignment up to this many inputs
SAMPLE_SIZE = 4096  # seeded assignments checked above that
LAYOUT_MAX = 10  # recompute (N, L) of reported layouts up to this many inputs


class OracleError(Exception):
    """An output disagrees with the benchmark's own reference."""


# ---------------------------------------------------------------------------
# PLA text


def read_pla(text: str) -> tuple[list[str], list[tuple[str, list[str]]]]:
    """Input names and one (output name, cube list) per output."""
    n = outs = None
    names = out_names = None
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == ".i":
            n = int(tok[1])
        elif tok[0] == ".o":
            outs = int(tok[1])
        elif tok[0] == ".ilb":
            names = tok[1:]
        elif tok[0] == ".ob":
            out_names = tok[1:]
        elif tok[0] in (".e", ".end"):
            break
        elif tok[0].startswith("."):
            continue
        else:
            rows.append((tok[0], tok[1] if len(tok) > 1 else "1"))
    n = n if n is not None else len(rows[0][0])
    outs = outs if outs is not None else len(rows[0][1])
    names = names or [f"x{i}" for i in range(n)]
    out_names = out_names or [f"f{k}" for k in range(outs)]
    return names, [(out_names[k], [c for c, o in rows if o[k] == "1"]) for k in range(outs)]


def write_pla(names: list[str], cubes: list[str], out_name: str = "f0") -> str:
    lines = [f".i {len(names)}", ".ilb " + " ".join(names), ".o 1", f".ob {out_name}"]
    lines += [f".p {len(cubes)}"] + [f"{c} 1" for c in cubes] + [".e"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# assignment batches: bit k of input mask i is input i of assignment k


class Batch:
    def __init__(self, n: int, assignments: list[int]):
        self.n = n
        self.assignments = assignments
        self.full = (1 << len(assignments)) - 1
        cols = [0] * n
        for k, v in enumerate(assignments):
            for i in range(n):
                if (v >> i) & 1:
                    cols[i] |= 1 << k
        self.inputs = cols

    @classmethod
    def for_inputs(cls, n: int, seed: str) -> "Batch":
        """Every assignment up to EXHAUSTIVE_MAX inputs, else a seeded sample."""
        if n <= EXHAUSTIVE_MAX:
            return cls(n, list(range(1 << n)))
        rng = random.Random(seed)
        return cls(n, [rng.getrandbits(n) for _ in range(SAMPLE_SIZE)])


def cover_value(cubes: list[str], batch: Batch) -> int:
    """Bit k set iff some cube matches assignment k ('-' matches both)."""
    acc = 0
    for cube in cubes:
        m = batch.full
        for j, ch in enumerate(cube):
            if ch == "1":
                m &= batch.inputs[j]
            elif ch == "0":
                m &= ~batch.inputs[j]
        acc |= m
    return acc & batch.full


# ---------------------------------------------------------------------------
# netlist text


def read_netlist(text: str) -> tuple[list[str], list[tuple], str]:
    """(input names, [(kind, ranks, value, operand tokens)], output token)."""
    names, nodes, output = None, [], None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("inputs:"):
            names = line[len("inputs:"):].split()
            continue
        if line.startswith("output:"):
            output = line[len("output:"):].strip()
            continue
        parts = line.split()
        if int(parts[0]) != len(nodes):
            raise OracleError(f"netlist node {parts[0]} out of sequence")
        kind, rest = parts[1], parts[2:]
        ranks = value = None
        if kind == "SYM":
            ranks = {int(t) for t in rest[0][1:-1].split(",") if t}
            rest = rest[1:]
        elif kind == "CONST":
            value, rest = int(rest[0]), []
        nodes.append((kind, ranks, value, rest))
    if names is None or output is None:
        raise OracleError("netlist text lacks its inputs or output line")
    return names, nodes, output


def _count_planes(values: list[int], full: int) -> list[int]:
    """Binary popcount per assignment, as bit planes (ripple-carry adder)."""
    planes: list[int] = []
    for x in values:
        carry = x
        for j in range(len(planes)):
            planes[j], carry = planes[j] ^ carry, planes[j] & carry
            if not carry:
                break
        if carry:
            planes.append(carry)
    return planes


def netlist_value(text: str, batch: Batch) -> int:
    """Evaluate netlist text on a batch, checking its structural invariants."""
    names, nodes, output = read_netlist(text)
    if len(names) != batch.n:
        raise OracleError("netlist input count differs from the cover's")
    full = batch.full
    vals: list[int] = []
    sups: list[frozenset] = []

    def ref(tok: str) -> tuple[int, frozenset]:
        idx = int(tok[1:])
        if tok[0] == "i":
            return batch.inputs[idx], frozenset((idx,))
        if not 0 <= idx < len(vals):
            raise OracleError(f"operand {tok} is not an earlier node")
        return vals[idx], sups[idx]

    for kind, ranks, value, toks in nodes:
        ops = [ref(t) for t in toks]
        sup = frozenset().union(*(s for _, s in ops))
        if kind == "CONST":
            v = full if value else 0
        elif kind == "INV":
            if len(ops) != 1:
                raise OracleError("INV needs one operand")
            v = ~ops[0][0] & full
        elif kind == "AND_DISJOINT":
            if len(ops) < 2 or sum(len(s) for _, s in ops) != len(sup):
                raise OracleError("AND_DISJOINT operands must be two or more with disjoint supports")
            v = full
            for x, _ in ops:
                v &= x
        elif kind == "OR":
            if len(ops) < 2:
                raise OracleError("OR needs two or more operands")
            v = 0
            for x, _ in ops:
                v |= x
        elif kind == "SYM":
            if not ops or not ranks <= set(range(len(ops) + 1)):
                raise OracleError("SYM rank set out of range")
            planes = _count_planes([x for x, _ in ops], full)
            v = 0
            for r in ranks:
                eq = full
                for j, plane in enumerate(planes):
                    eq &= plane if (r >> j) & 1 else ~plane
                if r >> len(planes):
                    eq = 0
                v |= eq
        else:
            raise OracleError(f"unknown node kind {kind}")
        vals.append(v & full)
        sups.append(sup)
    return ref(output)[0]


def check_netlist(text: str, cubes: list[str], n: int, seed: str) -> None:
    batch = Batch.for_inputs(n, seed)
    diff = netlist_value(text, batch) ^ cover_value(cubes, batch)
    if diff:
        k = (diff & -diff).bit_length() - 1
        raise OracleError(f"netlist and cover differ on assignment {batch.assignments[k]:#x}")


def mapped_area(text: str) -> float:
    """Pitches of a mapped netlist: a k-input threshold cell costs k, INV 1."""
    _, nodes, _ = read_netlist(text)
    total = 0.0
    for kind, ranks, _, toks in nodes:
        if kind == "SYM":
            k = len(toks)
            if ranks != set(range(min(ranks), k + 1)):
                raise OracleError(f"mapped SYM {sorted(ranks)} of arity {k} is not a threshold cell")
            total += k
        elif kind == "INV":
            total += 1
        elif kind != "CONST":
            raise OracleError(f"mapped netlist contains a {kind} node")
    return total


# ---------------------------------------------------------------------------
# grid plots from the definition: prefix classes keyed by (depth, rank, suffix set)


def _words(on: list[int], n: int, order, inverted) -> set[tuple[int, ...]]:
    flip = set(inverted)
    return {tuple(((v >> i) & 1) ^ (i in flip) for i in order) for v in on}


def _classes(words: set[tuple[int, ...]], n: int) -> dict:
    """Prefix -> (depth, rank, suffix set) for every prefix of an accepted word."""
    suffixes: dict[tuple[int, ...], set] = {}
    for w in words:
        for d in range(n + 1):
            suffixes.setdefault(w[:d], set()).add(w[d:])
    return {p: (len(p), sum(p), frozenset(s)) for p, s in suffixes.items()}


def grid_metrics(on: list[int], n: int, order, inverted) -> tuple[int, int]:
    """(N, L) of the grid plot: classes without the origin, distinct class links."""
    cls = _classes(_words(on, n, order, inverted), n)
    if not cls:
        return (0, 0)
    links = {(cls[p[:-1]], p[-1]) for p in cls if p}
    return (len(set(cls.values())) - 1, len(links))


def grid_is_planar(on: list[int], n: int, order, inverted) -> bool:
    """One node per grid point: each (depth, rank) holds a single suffix class."""
    cls = _classes(_words(on, n, order, inverted), n)
    points: dict[tuple[int, int], frozenset] = {}
    for depth, rank, suff in cls.values():
        if points.setdefault((depth, rank), suff) != suff:
            return False
    return True


def minterms_of(cubes: list[str], n: int) -> list[int]:
    batch = Batch(n, list(range(1 << n)))
    bits = cover_value(cubes, batch)
    return [v for v in range(1 << n) if (bits >> v) & 1]


def template_function(n: int, deleted: set) -> list[int]:
    """Minterms whose grid path avoids every deleted (rank, depth, bit) link."""
    out = []
    for v in range(1 << n):
        rank = 0
        for d in range(n):
            bit = (v >> d) & 1
            if (rank, d, bit) in deleted:
                break
            rank += bit
        else:
            out.append(v)
    return out

