"""Cube covers, minterm sets, and the PLA text format.

Conventions used throughout the package:

- At the API and I/O edges (``Cover.cubes``, PLA text) a cube is a string
  over ``{'0', '1', '-'}``, character ``j`` constraining input ``j`` (the
  leftmost is input 0).  Inside the engine it is a ``Cube`` of input bit
  masks, which ``Cover.bit_cubes`` parses once; no other module reads cube text.
- A complete input assignment is encoded as an integer index in which input
  ``i`` maps to bit ``i`` (input 0 is the least significant bit).  The
  minterm string ``"1010"`` over inputs ``a,b,c,d`` therefore has index 5.
- Truth tables over all ``2**n`` assignments are stored as arbitrary-size
  integers: bit ``v`` of the mask is the function value on assignment ``v``.
  All set operations on minterms are plain bitwise arithmetic.
- A truth table is never negative: a complement is taken within the table
  ``full`` of the constant 1, as ``full ^ m``, and ``x & ~m`` is written
  ``x ^ (x & m)`` (Warren, Hacker's Delight).  CPython evaluates
  ``~m`` and any operation on a negative integer through a two's-complement
  copy, which costs several times the operation itself on a wide table.

Every value type here is an immutable named tuple: a ``NamedTuple`` of its
fields, under a subclass whose ``__new__`` coerces and validates them.
The subclass lists ``_Checked`` first among its bases, ahead of the fields
class, whose own ``_make`` would otherwise win the lookup and skip the
checks; ``_Checked._make`` is ``cls(*iterable)``, so ``_make``, and
``_replace`` through it, build through ``__new__`` too.  The checked types
of ``cores``, ``spectra`` and ``tcells`` share the same base.
Operations return new objects.  A value is iterable and indexable like a
tuple, and it equals, hashes and orders as the plain tuple of its fields, so
``MintermSet(2, 5) == (2, 5)``.  Its fields cannot be assigned or deleted.
``MintermSet`` keeps its own ``len``, ``in`` and truth, which count minterms.
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple, Sequence

CUBE_CHARS = frozenset("01-")
_ONES = str.maketrans("10-", "100")
_ZEROS = str.maketrans("10-", "010")

#: A cube inside the engine: ``(ones, zeros)``, its 1 and 0 inputs as bit masks.
Cube = tuple[int, int]

#: Largest input count for which a truth table is built.  A 24-input table is
#: a 16M-bit integer, which is still desk scale.
DEFAULT_EXPANSION_CAP = 24


class ParseError(ValueError):
    """Malformed PLA (or other structured) text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class CapacityError(RuntimeError):
    """A truth table over more than ``DEFAULT_EXPANSION_CAP`` inputs was asked for."""


# ---------------------------------------------------------------------------
# value types


class _Checked:
    """The first base of a checked value type: ``_make`` calls the class."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable[object]):
        return cls(*iterable)


class _CoverFields(NamedTuple):
    input_names: tuple[str, ...]
    cubes: tuple[str, ...]


class Cover(_Checked, _CoverFields):
    """An ordered list of cubes over named inputs (two-level sum of products)."""

    # no __slots__: the instance dict holds the cached ``bit_cubes``

    def __new__(cls, input_names: Iterable[str], cubes: Iterable[str]) -> Cover:
        input_names = tuple(input_names)
        cubes = tuple(cubes)
        if len(set(input_names)) != len(input_names):
            raise ValueError("duplicate input names")
        n = len(input_names)
        for cube in cubes:
            if len(cube) != n:
                raise ValueError(f"cube {cube!r} has width {len(cube)}, expected {n}")
            if not CUBE_CHARS.issuperset(cube):
                bad = next(ch for ch in cube if ch not in CUBE_CHARS)
                raise ValueError(f"invalid cube character {bad!r} in {cube!r}")
        return tuple.__new__(cls, (input_names, cubes))

    @property
    def n(self) -> int:
        return len(self.input_names)

    @property
    def m(self) -> int:
        return len(self.cubes)

    @functools.cached_property
    def bit_cubes(self) -> tuple[Cube, ...]:
        """The cubes as ``Cube`` masks, parsed on first use."""
        out = []
        for cube in self.cubes:
            rev = cube[::-1]  # character j becomes bit j
            out.append((int(rev.translate(_ONES) or "0", 2), int(rev.translate(_ZEROS) or "0", 2)))
        return tuple(out)


class _MintermSetFields(NamedTuple):
    n: int
    bits: int = 0


class MintermSet(_Checked, _MintermSetFields):
    """A set of complete assignments on which a function is 1.

    ``bits`` is the truth-table mask: bit ``v`` set means assignment ``v``
    is a minterm.  ``len`` and ``in`` count minterms, not the two fields.
    """

    __slots__ = ()

    def __new__(cls, n: int, bits: int = 0) -> MintermSet:
        if n < 0:
            raise ValueError("negative input count")
        if bits < 0 or bits.bit_length() > (1 << n):
            raise ValueError("minterm index out of range for input count")
        return tuple.__new__(cls, (n, bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, index: int) -> bool:
        return 0 <= index < (1 << self.n) and (self.bits >> index) & 1 == 1

    def members(self) -> list[int]:
        """The minterm indices in ascending order."""
        return set_bits(self.bits)

    def to_strings(self) -> tuple[str, ...]:
        return tuple(index_to_minterm(v, self.n) for v in self.members())

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "MintermSet":
        bits = 0
        for v in indices:
            if not 0 <= v < (1 << n):
                raise ValueError(f"minterm index {v} out of range for n={n}")
            bits |= 1 << v
        return cls(n, bits)

    @classmethod
    def from_strings(cls, strings: Iterable[str], n: int | None = None) -> "MintermSet":
        strings = tuple(strings)
        if n is None:
            if not strings:
                raise ValueError("cannot infer input count from an empty set")
            n = len(strings[0])
        return cls.from_indices(n, (minterm_index(s) for s in strings))

class _PhaseVectorFields(NamedTuple):
    phases: tuple[bool, ...]


class PhaseVector(_Checked, _PhaseVectorFields):
    """Per-input polarity choice; ``True`` means the input is inverted."""

    __slots__ = ()

    def __new__(cls, phases: Iterable[object]) -> PhaseVector:
        return tuple.__new__(cls, (tuple(map(bool, phases)),))

    @property
    def n(self) -> int:
        return len(self.phases)

    @property
    def mask(self) -> int:
        return sum(1 << i for i, p in enumerate(self.phases) if p)

    @property
    def inverted(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.phases) if p)

    @classmethod
    def none(cls, n: int) -> "PhaseVector":
        return cls((False,) * n)

    @classmethod
    def inverting(cls, n: int, indices: Iterable[int]) -> "PhaseVector":
        chosen = set(indices)
        if not chosen.issubset(range(n)):
            raise ValueError("phase index out of range")
        return cls(tuple(i in chosen for i in range(n)))


# ---------------------------------------------------------------------------
# index helpers


def minterm_index(s: str) -> int:
    """Index of a 0/1 minterm string (leftmost character is input 0)."""
    idx = 0
    for j, ch in enumerate(s):
        if ch == "1":
            idx |= 1 << j
        elif ch != "0":
            raise ValueError(f"invalid minterm character {ch!r}")
    return idx


def index_to_minterm(index: int, n: int) -> str:
    return "".join("1" if (index >> j) & 1 else "0" for j in range(n))


@functools.lru_cache(maxsize=None)
def assignment_masks(n: int) -> tuple[int, ...]:
    """Truth-table mask of each input variable over all ``2**n`` assignments.

    ``assignment_masks(n)[i]`` has bit ``v`` set iff bit ``i`` of ``v`` is 1.
    Over the cap it refuses before building any mask, as ``full_mask`` does.
    """
    full_mask(n)
    size = 1 << n
    masks = []
    for i in range(n):
        w = 1 << i
        block = ((1 << w) - 1) << w
        span = 2 * w
        m = block
        while span < size:
            m |= m << span
            span *= 2
        masks.append(m)
    return tuple(masks)


def full_mask(n: int) -> int:
    """The truth table of the constant 1; every truth table over more than
    ``DEFAULT_EXPANSION_CAP`` inputs is refused here."""
    if n > DEFAULT_EXPANSION_CAP:
        raise CapacityError(
            f"truth table of {n} inputs exceeds the {DEFAULT_EXPANSION_CAP}-input cap"
        )
    return (1 << (1 << n)) - 1


def set_bits(mask: int) -> list[int]:
    """The set bits of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def cube_mask(cube: Cube, masks: Sequence[int], full: int) -> int:
    """Truth-table mask of one cube, given per-input masks."""
    ones, zeros = cube
    acc, lits = full, ones | zeros
    while lits:
        low = lits & -lits
        m = masks[low.bit_length() - 1]
        acc = acc & m if ones & low else acc ^ (acc & m)
        lits ^= low
    return acc


def cover_mask(cubes: Iterable[Cube], masks: Sequence[int], full: int) -> int:
    acc = 0
    for cube in cubes:
        acc |= cube_mask(cube, masks, full)
    return acc


def popcount_class_masks(masks: Sequence[int], full: int) -> list[int]:
    """Partition a truth table by how many of the given masks are 1.

    Returns ``classes`` with ``classes[j]`` the mask of assignments on which
    exactly ``j`` of the inputs described by ``masks`` are 1.  Runs in
    O(len(masks)**2) big-integer operations, never per-assignment.
    """
    classes = [full]
    for m in masks:
        inv = full ^ m
        nxt = [classes[0] & inv]
        for j in range(1, len(classes)):
            nxt.append((classes[j] & inv) | (classes[j - 1] & m))
        nxt.append(classes[-1] & m)
        classes = nxt
    return classes


# ---------------------------------------------------------------------------
# truth-table transforms
#
# Complementing input i exchanges the two halves of every 2**(i+1)-bit block
# of a truth table; exchanging inputs i < k moves each assignment with
# x_i = 1, x_k = 0 up by 2**k - 2**i.  Both are delta swaps (Warren, Hacker's
# Delight, ch. 7): a constant number of big-integer operations each.


def _delta_swap(bits: int, low: int, delta: int) -> int:
    """Exchange the bits selected by ``low`` with the bits ``delta`` above them."""
    t = (bits ^ (bits >> delta)) & low
    return bits ^ t ^ (t << delta)


def transform_mask(
    bits: int, n: int, perm: Sequence[int] | None = None, flips: int = 0
) -> int:
    """Truth table after complementing inputs and then reordering them.

    Assignment ``v`` maps to ``w`` with bit ``j`` of ``w`` equal to bit
    ``perm[j]`` of ``v ^ flips``: the inputs set in ``flips`` are inverted
    and new input ``j`` is old input ``perm[j]``.  ``perm`` must be a
    permutation of ``range(n)`` (None keeps the order) and ``flips`` must
    lie in ``[0, 2**n)``; anything else is a ``ValueError``.
    Costs at most n phase swaps plus n - 1 transpositions.
    """
    if not 0 <= flips < 1 << n:
        raise ValueError(f"flips {flips!r} outside [0, 2**{n})")
    if perm is not None and sorted(perm) != list(range(n)):
        raise ValueError(f"perm {tuple(perm)!r} is not a permutation of range({n})")
    full = full_mask(n)  # refuses a table over the cap before any mask is built
    masks = assignment_masks(n)
    while flips:
        low = flips & -flips  # complementing input i moves blocks by 2**i
        bits = _delta_swap(bits, full ^ masks[low.bit_length() - 1], low)
        flips ^= low
    if perm is not None:
        at = list(range(n))  # at[j]: old input now at position j
        for j, v in enumerate(perm):
            if at[j] != v:  # positions below j are final
                k = at.index(v, j + 1)
                bits = _delta_swap(bits, masks[j] & (full ^ masks[k]), (1 << k) - (1 << j))
                at[j], at[k] = v, at[j]
    return bits


# ---------------------------------------------------------------------------
# cover operations


def cover_to_minterms(cover: Cover) -> MintermSet:
    """Exact union of all minterms covered by any cube."""
    full = full_mask(cover.n)
    return MintermSet(cover.n, cover_mask(cover.bit_cubes, assignment_masks(cover.n), full))


def phase_minterms(s: MintermSet, p: PhaseVector) -> MintermSet:
    """Image of a minterm set under complementing the inverted inputs."""
    if p.n != s.n:
        raise ValueError("phase vector length mismatch")
    return MintermSet(s.n, transform_mask(s.bits, s.n, flips=p.mask))


def default_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n))


def literal_density(cover: Cover) -> float:
    """Percentage of non-don't-care literal positions in the whole cube table."""
    total = cover.n * cover.m
    if total == 0:
        return 0.0
    fixed = sum((ones | zeros).bit_count() for ones, zeros in cover.bit_cubes)
    return 100.0 * fixed / total


def project(cover: Cover, indices: Iterable[int], inputs: Sequence[int]) -> Cover:
    """The cubes at ``indices`` read on ``inputs`` alone, both in the order given."""
    names = tuple(cover.input_names[j] for j in inputs)
    return Cover(names, tuple("".join([cover.cubes[i][j] for j in inputs]) for i in indices))


def subcover(cover: Cover, indices: Iterable[int]) -> Cover:
    """The cubes at ``indices``, in the order given, as a cover that already
    holds their ``bit_cubes``, so that a part of a parsed cover is not parsed again."""
    indices = list(indices)
    sub = Cover(cover.input_names, [cover.cubes[i] for i in indices])
    bits = cover.bit_cubes
    sub.__dict__["bit_cubes"] = tuple([bits[i] for i in indices])  # presets the cached property
    return sub


def restrict(cover: Cover) -> Cover:
    """The cover on the inputs some cube reads, named as in ``cover``: the cover itself
    if it reads every input, else one that keeps each distinct cube once, in order."""
    live = 0
    for ones, zeros in cover.bit_cubes:
        live |= ones | zeros
    if live == (1 << cover.n) - 1:
        return cover
    # any index of equal cubes will do, and the dict keeps first-seen order
    distinct = {cube: i for i, cube in enumerate(cover.bit_cubes)}
    return project(cover, distinct.values(), set_bits(live))


# ---------------------------------------------------------------------------
# PLA text format
#
# Accepted dialect (UTF-8, '#' starts a comment, each directive at most once):
#
#     .i 4            declared input count
#     .o 1            declared output count (optional for single output)
#     .ilb a b c d    input names (optional)
#     .ob f           output names (optional)
#     .p 4            declared cube count (optional, checked)
#     1010 1          cube line: input field, optional output field
#     ...
#     .e              end marker (optional)
#
# A bare cube-per-line body with no header is also accepted; the input count
# is inferred from the first cube.


def parse_pla_outputs(text: str) -> list[tuple[str, Cover]]:
    """Parse a (possibly multi-output) PLA into one cover per output."""
    declared_n: int | None = None
    declared_out: int | None = None
    declared_p: int | None = None
    names: tuple[str, ...] | None = None
    out_names: tuple[str, ...] | None = None
    rows: list[tuple[str, str | None, int]] = []
    seen: set[str] = set()
    ended = False

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise ParseError("content after end marker", lineno)
        if line.startswith("."):
            tok = line.split()
            key = tok[0]
            if key in seen:
                raise ParseError(f"repeated {key} line", lineno)
            seen.add(key)
            if key == ".i":
                declared_n = _parse_int(tok, lineno, ".i")
                if declared_n <= 0:
                    raise ParseError("input count must be positive", lineno)
            elif key == ".o":
                declared_out = _parse_int(tok, lineno, ".o")
                if declared_out <= 0:
                    raise ParseError("output count must be positive", lineno)
            elif key == ".ilb":
                names = tuple(tok[1:])
            elif key == ".ob":
                out_names = tuple(tok[1:])
            elif key == ".p":
                declared_p = _parse_int(tok, lineno, ".p")
            elif key in (".e", ".end"):
                ended = True
            else:
                raise ParseError(f"unknown directive {key!r}", lineno)
            continue
        fields = line.split()
        if len(fields) == 1:
            rows.append((fields[0], None, lineno))
        elif len(fields) == 2:
            rows.append((fields[0], fields[1], lineno))
        else:
            raise ParseError("expected 'cube' or 'cube outputs'", lineno)

    if declared_n is None:
        if not rows:
            raise ParseError("no inputs declared and no cubes to infer them from")
        declared_n = len(rows[0][0])
    n = declared_n

    has_out = rows[0][1] is not None if rows else declared_out is not None
    num_out = declared_out if declared_out is not None else (len(rows[0][1]) if rows and has_out else 1)

    cubes: list[str] = []
    out_fields: list[str] = []
    for cube, out, lineno in rows:
        if len(cube) != n:
            raise ParseError(f"cube width {len(cube)} does not match input count {n}", lineno)
        if not CUBE_CHARS.issuperset(cube):
            bad = next(ch for ch in cube if ch not in CUBE_CHARS)
            raise ParseError(f"invalid cube character {bad!r}", lineno)
        if (out is not None) != has_out:
            raise ParseError("mixed cube lines with and without an output field", lineno)
        if out is None:
            out = "1" * num_out
        if len(out) != num_out:
            raise ParseError(f"output field width {len(out)} does not match output count {num_out}", lineno)
        if not set(out).issubset({"0", "1"}):
            raise ParseError("output field must use only 0/1 (output don't-cares unsupported)", lineno)
        cubes.append(cube)
        out_fields.append(out)

    if declared_p is not None and declared_p != len(cubes):
        raise ParseError(f".p declares {declared_p} cubes but {len(cubes)} given")
    if names is None:
        names = default_names(n)
    if len(names) != n:
        raise ParseError(f".ilb lists {len(names)} names for {n} inputs")
    if len(set(names)) != n:
        raise ParseError("duplicate input names")
    if out_names is None:
        out_names = tuple(f"f{k}" for k in range(num_out))
    if len(out_names) != num_out:
        raise ParseError(f".ob lists {len(out_names)} names for {num_out} outputs")
    if len(set(out_names)) != num_out:
        raise ParseError("duplicate output names")

    result = []
    for k, out_name in enumerate(out_names):
        selected = tuple(c for c, o in zip(cubes, out_fields) if o[k] == "1")
        result.append((out_name, Cover(names, selected)))
    return result


def parse_pla(text: str) -> Cover:
    """Parse a single-output PLA."""
    outputs = parse_pla_outputs(text)
    if len(outputs) != 1:
        raise ParseError(f"expected a single-output PLA, found {len(outputs)} outputs")
    return outputs[0][1]


def write_pla(cover: Cover, output_name: str = "f0") -> str:
    """Emit the dialect accepted by parse_pla, preserving cube order."""
    lines = [
        f".i {cover.n}",
        ".ilb " + " ".join(cover.input_names),
        ".o 1",
        ".ob " + output_name,
        f".p {cover.m}",
    ]
    lines.extend(f"{cube} 1" for cube in cover.cubes)
    lines.append(".e")
    return "\n".join(lines) + "\n"


def _parse_int(tokens: list[str], lineno: int, directive: str) -> int:
    if len(tokens) != 2:
        raise ParseError(f"{directive} expects one integer argument", lineno)
    try:
        return int(tokens[1])
    except ValueError:
        raise ParseError(f"{directive} expects an integer, got {tokens[1]!r}", lineno) from None
