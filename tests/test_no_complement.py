"""Truth tables stay non-negative: a static check over the package source, using only ``ast``.

A truth table is an integer of up to 2**24 bits.  CPython evaluates ``~m``,
and every bitwise operation with a negative operand, through a
two's-complement copy, so ``x & ~m`` costs several times ``x ^ (x & m)``
on a wide table.  The rule, stated in the ``cubes`` module docstring, is
that a complement is taken within the table ``full`` of the constant 1, as
``full ^ m``.  This check applies it to every module of ``src/gridsyn``
but ``cores``, whose integers are cube-position and input masks of a few
dozen bits, never truth tables: no other module applies unary ``~``.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gridsyn"
#: Modules whose bit masks are no truth tables, so ``~`` costs nothing there.
EXEMPT = frozenset({"cores.py"})
#: The truth-table kernels on hot paths, by module: the rule must reach each.
KERNELS = {
    "cubes.py": ("cube_mask", "cover_mask", "popcount_class_masks", "transform_mask"),
    "netlist.py": ("netlist_mask",),
    "planar.py": ("_bridge_free_pairs", "_bridge_free", "derive_pf"),
}


def _inversions(tree: ast.AST) -> list[int]:
    """Line numbers of every unary ``~`` in a tree."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert)
    ]


def test_no_module_but_cores_takes_a_unary_complement():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in EXEMPT:
            lines = _inversions(ast.parse(path.read_text(), filename=str(path)))
            if lines:
                found[path.name] = lines
    assert not found, f"unary ~ on a truth table (module: lines): {found}"


def test_every_kernel_lives_in_a_checked_module():
    for module, names in KERNELS.items():
        assert module not in EXEMPT
        tree = ast.parse((PACKAGE / module).read_text())
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert set(names) <= defined, (module, set(names) - defined)
