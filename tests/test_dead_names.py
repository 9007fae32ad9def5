"""Dead-name check over the package source, using only ``ast``.

Six rules, for every module of ``src/gridsyn`` except ``__init__.py``:

- a module-level function, class or constant must be referenced somewhere
  in ``src/``, ``tests/``, ``demos/`` or ``perfbench/`` other than at its
  definition;
- a private (``_``) one must be referenced in ``src/`` outside its own
  definition, so a test that imports it cannot keep it alive;
- a public one must be referenced outside its own definition in ``src/``
  (not counting the re-exports of ``__init__.py``), ``demos/`` or
  ``perfbench/``, so tests alone cannot keep public API alive either;
- every module-level import must be used by the module itself, or listed
  in its ``__all__``;
- a method or property of a module-level class must be referenced outside
  its own definition: a public one in ``src/`` (not counting
  ``__init__.py``), ``demos/`` or ``perfbench/``, a private one in
  ``src/``;
- every parameter of a function or lambda must be read in its body
  (``self`` and ``cls`` are exempt), so a parameter a change stopped using
  goes with it.

References are matched by bare identifier (a load of the name, an
attribute of that name, or a ``from ... import`` of it), so two
definitions that share a name can hide each other; the check is cheap,
not exact.  Dunder names are exempt, as the interpreter calls them, and
so are the members in ``LIBRARY_HOOKS``, which the standard library calls.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gridsyn"
TREES = ("src", "tests", "demos", "perfbench")
#: A named tuple's ``_replace`` builds its copy through ``_make``.
LIBRARY_HOOKS = frozenset({"_make"})


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _loads(tree: ast.AST) -> Counter:
    """Identifiers a tree reads: loaded names, attributes and from-imports."""
    seen: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            seen[node.id] += 1
        elif isinstance(node, ast.Attribute):
            seen[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            seen.update(alias.name for alias in node.names)
    return seen


def _definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """Module-level functions, classes and assigned constants, with their statements."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names += [(n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [
        (name, node) for name, node in names if not (name.startswith("__") and name.endswith("__"))
    ]


def _imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports, ``__future__`` excepted."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _modules() -> dict[str, ast.Module]:
    return {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}


def _uses(tree_dirs: tuple[str, ...]) -> Counter:
    """Identifiers read by the trees, ``__init__.py``'s re-exports excepted."""
    used: Counter = Counter()
    for tree_dir in tree_dirs:
        for path in sorted((ROOT / tree_dir).rglob("*.py")):
            if path != PACKAGE / "__init__.py":
                used.update(_loads(_parse(path)))
    return used


def dead_names() -> list[str]:
    """``module.name`` for every definition nothing references."""
    used: Counter = Counter()
    for tree_dir in TREES:
        for path in sorted((ROOT / tree_dir).rglob("*.py")):
            used.update(_loads(_parse(path)))
    return [
        f"{stem}.{name}"
        for stem, tree in _modules().items()
        for name, _ in _definitions(tree)
        if not used[name]
    ]


def private_names_unused_by_src() -> list[str]:
    """``module.name`` for every private definition ``src/`` references only inside itself."""
    used = _uses(("src",))
    return [
        f"{stem}.{name}"
        for stem, tree in _modules().items()
        for name, node in _definitions(tree)
        if name.startswith("_") and used[name] <= _loads(node)[name]
    ]


def public_names_used_only_by_tests() -> list[str]:
    """``module.name`` for every public definition only ``tests/`` and re-exports reference."""
    used = _uses(("src", "demos", "perfbench"))
    return [
        f"{stem}.{name}"
        for stem, tree in _modules().items()
        for name, node in _definitions(tree)
        if not name.startswith("_") and used[name] <= _loads(node)[name]
    ]


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports() -> list[str]:
    """``module.name`` for every import its own module neither reads nor exports."""
    out = []
    for stem, tree in _modules().items():
        body = [node for node in tree.body if not isinstance(node, (ast.Import, ast.ImportFrom))]
        used = _loads(ast.Module(body=body, type_ignores=[])) + Counter(_exported(tree))
        out += [f"{stem}.{name}" for name in _imports(tree) if not used[name]]
    return out


def _members(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """``(class name, definition)`` for the methods and properties of module-level classes."""
    return [
        (node.name, item)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
        and item.name not in LIBRARY_HOOKS
    ]


def members_unused_outside_the_tests() -> list[str]:
    """``module.Class.member`` for every member that only tests, or nothing, reference."""
    public, private = _uses(("src", "demos", "perfbench")), _uses(("src",))
    return [
        f"{stem}.{cls}.{node.name}"
        for stem, tree in _modules().items()
        for cls, node in _members(tree)
        if (private if node.name.startswith("_") else public)[node.name]
        <= _loads(node)[node.name]
    ]


def unread_parameters() -> list[str]:
    """``module.function.parameter`` for every parameter its body never loads."""
    out = []
    for stem, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            out += [
                f"{stem}.{name}.{a.arg}"
                for a in params
                if a.arg not in ("self", "cls") and a.arg not in read
            ]
    return out


def test_no_dead_names():
    assert dead_names() == []


def test_private_names_are_used_by_the_package():
    assert private_names_unused_by_src() == []


def test_public_names_are_used_outside_the_tests():
    assert public_names_used_only_by_tests() == []


def test_no_unused_imports():
    assert unused_imports() == []


def test_class_members_are_used_outside_the_tests():
    assert members_unused_outside_the_tests() == []


def test_every_parameter_is_read():
    assert unread_parameters() == []
