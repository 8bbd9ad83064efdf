"""Source hygiene over ``src/branchfix`` and ``tests``: no unused imports
and no dead locals in either, no unread private names in the package.

The checks read the syntax tree only (``ast``), so they need no linter.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "branchfix"
# __init__.py imports in order to re-export.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CHECKED = MODULES + sorted(TESTS.glob("*.py"))


def _file_id(path):
    return path.name if path.parent == SRC else f"tests/{path.name}"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _loaded_names(node):
    """Names read anywhere below ``node``, including the base of ``a.b``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
            and isinstance(n.ctx, (ast.Load, ast.Del))}


def unused_imports(tree):
    """Module-level imported names that the module never reads."""
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = stmt.lineno
    used = _loaded_names(tree)
    return sorted((line, name) for name, line in bound.items() if name not in used)


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (*_FUNCS, ast.Lambda, ast.ClassDef)


def _own_nodes(func):
    """Nodes of ``func``'s own scope: nested functions and classes excluded."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def dead_locals(tree):
    """``(line, function, name)`` for each local a function assigns and
    never reads (itself or in a nested scope); ``_``-prefixed names and
    ``global``/``nonlocal`` names are exempt.  ``x += 1`` reads ``x``."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, declared = {}, set()
        for node in _own_nodes(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored[node.id] = min(node.lineno, stored.get(node.id, node.lineno))
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        read = _loaded_names(func) | {
            n.target.id for n in ast.walk(func)
            if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)
        }
        for name, line in stored.items():
            if name.startswith("_") or name in declared or name in read:
                continue
            found.append((line, func.name, name))
    return sorted(found)


def _private_definitions(tree):
    """``(line, name)`` of each module-level function, class or assigned
    name, and each method, whose name has one leading underscore."""
    nodes = []
    for stmt in tree.body:
        nodes.append(stmt)
        if isinstance(stmt, ast.ClassDef):
            nodes.extend(f for f in stmt.body if isinstance(f, _FUNCS))
    found = []
    for node in nodes:
        if isinstance(node, (*_FUNCS, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found.extend((node.lineno, name) for name in names
                     if name.startswith("_") and not name.startswith("__"))
    return found


def unread_private_names(trees):
    """``(module, line, name)`` for each private definition (see
    :func:`_private_definitions`) that no tree in ``trees`` (a mapping of
    module name to tree) reads as a name or an attribute."""
    read = set()
    for tree in trees.values():
        read |= _loaded_names(tree) | {
            n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        }
    return sorted((module, line, name) for module, tree in trees.items()
                  for line, name in _private_definitions(tree) if name not in read)


@pytest.mark.parametrize("path", CHECKED, ids=_file_id)
def test_no_unused_module_imports(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", CHECKED, ids=_file_id)
def test_no_dead_locals(path):
    assert dead_locals(_tree(path)) == []


def test_no_unread_private_names():
    trees = {p.name: _tree(p) for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(trees) == []


def test_checks_catch_what_they_look_for():
    src = (
        "import os\n"
        "from typing import Optional, Sequence\n"
        "def f(x: Optional[int]):\n"
        "    unused = 1\n"
        "    _ignored = 2\n"
        "    count = 0\n"
        "    count += 1\n"
        "    seen = x\n"
        "    def g():\n"
        "        return seen\n"
        "    a, b = g(), 3\n"
        "    return a\n"
    )
    tree = ast.parse(src)
    assert unused_imports(tree) == [(1, "os"), (2, "Sequence")]
    assert dead_locals(tree) == [(4, "f", "unused"), (11, "f", "b")]
    other = (
        "_LIMIT = 3\n"
        "_UNREAD: int = 4\n"
        "def _helper():\n"
        "    return _LIMIT\n"
        "def _orphan():\n"
        "    return 1\n"
        "class _Box:\n"
        "    def _used(self):\n"
        "        return self._unused\n"
        "    def _unused(self):\n"
        "        return _helper()\n"
        "    def _never(self):\n"
        "        return _Box()._used()\n"
        "    def __len__(self):\n"
        "        return 0\n"
    )
    assert unread_private_names({"m": ast.parse(other)}) == [
        ("m", 2, "_UNREAD"), ("m", 5, "_orphan"), ("m", 12, "_never")]
