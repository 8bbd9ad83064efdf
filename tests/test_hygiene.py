"""Source hygiene over ``src/branchfix`` and ``tests``: no unused imports
and no dead locals in either; in the package, no unread private names, no
private default that no call overrides, no BLAS or LAPACK call, no
mpmath root, no import of mpmath outside ``_extended``, no file write
outside the CLI's one write helper and no test of a weight model's type
outside ``weights.atom_table`` and the CLI; and no exported function that
neither the package, the benchmark nor the README reads.

The checks read the syntax tree only (``ast``), so they need no linter; one
more test imports the package in a fresh interpreter to see that mpmath
stays out of it.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "branchfix"
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


def unpassed_private_defaults(trees):
    """``(module, function, parameter)`` for each defaulted parameter of a
    single-underscore function or method in ``trees`` (a mapping of module
    name to tree) that no call in ``trees`` passes, by keyword or by
    position.  Calls match by the name called, ``f(...)`` or ``x.f(...)``;
    one with ``*args`` or ``**kwargs`` passes every parameter.  A method's
    first parameter is bound, unless it is a ``staticmethod``."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    found = []
    for module, tree in trees.items():
        methods = {f for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, _FUNCS)}
        for func in ast.walk(tree):
            if (not isinstance(func, _FUNCS) or not func.name.startswith("_")
                    or func.name.startswith("__")):
                continue
            args = func.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            if func in methods and not any(
                    getattr(d, "id", None) == "staticmethod" for d in func.decorator_list):
                positional = positional[1:]
            defaulted = [(i, name) for i, name in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for i, name in defaulted:
                if not any(
                    any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg in (None, name) for k in call.keywords)
                    or (i is not None and len(call.args) > i)
                    for call in calls.get(func.name, ())
                ):
                    found.append((module, func.name, name))
    return sorted(found)


# numpy functions that run BLAS or LAPACK kernels
_BLAS_FUNCTIONS = {"dot", "matmul", "inner", "vdot", "tensordot", "polyfit"}


def blas_calls(tree):
    """``(line, what)`` for each BLAS or LAPACK entry point: the ``@``
    operator, ``np.dot``, ``np.matmul``, ``np.inner``, ``np.vdot``,
    ``np.tensordot``, ``np.polyfit``, any ``.dot`` method and ``np.linalg``.
    Their sums run in an order that depends on the BLAS kernel the machine
    picks, so a value summed there changes bits from one CPU to another."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute):
            numpy = isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            if numpy and node.attr in _BLAS_FUNCTIONS | {"linalg"}:
                found.append((node.lineno, f"np.{node.attr}"))
            elif node.attr == "dot":
                found.append((node.lineno, ".dot"))
    return sorted(found)


# mpmath's low-level roots (``mpf_pow_int`` is exact repeated squaring and
# not among them), and its root functions
_MPF_ROOTS = {"mpf_nthroot", "mpf_sqrt", "mpf_pow"}
_MP_ROOTS = {"root", "sqrt", "cbrt"}


def mpmath_roots(tree):
    """``(line, what)`` for each read of ``mpf_nthroot``, ``mpf_sqrt`` or
    ``mpf_pow``, bare or as an attribute, and of ``root``, ``sqrt`` or
    ``cbrt`` on ``mp`` or ``mpmath``.  The package's roots are correctly
    rounded by its own kernel; mpmath's 53-bit N-th root misrounds some
    arguments next to a rounding midpoint, and above N = 20 goes through
    ``mpf_pow``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in _MPF_ROOTS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in _MPF_ROOTS:
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Attribute) and node.attr in _MP_ROOTS
              and isinstance(node.value, ast.Name) and node.value.id in ("mp", "mpmath")):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def mpmath_imports(tree):
    """``(line, module)`` for each ``import`` or ``from ... import`` of
    mpmath or one of its submodules, at any depth of the module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found.extend((node.lineno, name) for name in names
                     if name == "mpmath" or name.startswith("mpmath."))
    return sorted(found)


def write_calls(tree):
    """``(line, what)`` for each ``write_text`` or ``write_bytes`` call and
    each ``open`` call, bare or as a method, whose mode is not a constant
    without ``w``, ``a``, ``x`` or ``+``, outside method ``_create`` of
    class ``_Emitter``.  A call with no mode reads.  ``_create`` is the
    package's one write path: it replaces an artifact instead of
    truncating it, so every file the package writes is replaced."""
    helper = {id(n) for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "_Emitter"
              for f in c.body if isinstance(f, _FUNCS) and f.name == "_create"
              for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in helper:
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in ("write_text", "write_bytes"):
            found.append((node.lineno, name))
        elif name == "open":
            at = 1 if isinstance(node.func, ast.Name) else 0  # open(file, mode), p.open(mode)
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[at] if len(node.args) > at else None)
            reads = mode is None or (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                                     and not set(mode.value) & set("wax+"))
            if not reads:
                found.append((node.lineno, "open"))
    return sorted(found)


_MODEL_TYPES = {"BernoulliCascade", "FiniteAtoms", "Deterministic"}


def model_type_tests(tree, exempt=()):
    """``(line, class)`` for each ``isinstance`` or ``issubclass`` call
    whose class argument names ``BernoulliCascade``, ``FiniteAtoms`` or
    ``Deterministic`` (bare, as an attribute or in a tuple), outside the
    module-level functions named in ``exempt``.  Every model has one form,
    its atom table, so code that needs a model's structure reads the table:
    only ``weights.atom_table`` and the CLI's model descriptions and command
    checks read a model's type."""
    skip = {id(n) for f in tree.body if isinstance(f, _FUNCS) and f.name in exempt
            for n in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and id(node) not in skip and len(node.args) == 2
                and getattr(node.func, "id", None) in ("isinstance", "issubclass")):
            for n in ast.walk(node.args[1]):
                name = getattr(n, "id", getattr(n, "attr", None))
                if name in _MODEL_TYPES:
                    found.append((node.lineno, name))
    return sorted(found)


def unread_exports(init, modules, readers, text):
    """``(module, line, name)`` for each module-level function of
    ``modules`` (a mapping of module name to tree) that ``init`` imports,
    so exports, and that no tree in ``modules`` or ``readers`` reads as a
    name or an attribute outside its own ``def``, and that ``text`` does not
    name as a whole word.  An export is there to be used: by the package, by
    a program that drives it, or by a reader of the documentation."""
    exported = {a.asname or a.name for stmt in init.body
                if isinstance(stmt, ast.ImportFrom) for a in stmt.names}
    reads = {}
    for tree in (*modules.values(), *readers):
        for n in ast.walk(tree):
            if isinstance(getattr(n, "ctx", None), ast.Load):
                reads.setdefault(getattr(n, "id", getattr(n, "attr", None)), []).append(n)
    found = []
    for module, tree in modules.items():
        for func in tree.body:
            if not isinstance(func, _FUNCS) or func.name not in exported:
                continue
            own = {id(n) for n in ast.walk(func)}
            if (all(id(n) in own for n in reads.get(func.name, ()))
                    and not re.search(rf"\b{re.escape(func.name)}\b", text)):
                found.append((module, func.lineno, func.name))
    return sorted(found)


@pytest.mark.parametrize("path", CHECKED, ids=_file_id)
def test_no_unused_module_imports(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", CHECKED, ids=_file_id)
def test_no_dead_locals(path):
    assert dead_locals(_tree(path)) == []


def test_no_unread_private_names():
    trees = {p.name: _tree(p) for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(trees) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=_file_id)
def test_no_blas_calls(path):
    assert blas_calls(_tree(path)) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=_file_id)
def test_no_mpmath_roots(path):
    assert mpmath_roots(_tree(path)) == []


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "_extended.py"],
                         ids=_file_id)
def test_mpmath_imported_only_by_the_extended_module(path):
    # The exact layer's extended-precision code is in _extended, which
    # cascade imports inside the functions that need it.
    assert mpmath_imports(_tree(path)) == []


def test_importing_the_package_does_not_load_mpmath():
    code = ("import sys, branchfix, branchfix.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=_file_id)
def test_one_write_path(path):
    assert write_calls(_tree(path)) == []


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "cli.py"],
                         ids=_file_id)
def test_model_types_read_only_by_the_atom_table(path):
    exempt = ("atom_table",) if path.name == "weights.py" else ()
    assert model_type_tests(_tree(path), exempt) == []


def test_public_functions_have_a_reader():
    modules = {p.name: _tree(p) for p in MODULES}
    bench = [_tree(p) for p in sorted((ROOT / "bench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unread_exports(_tree(SRC / "__init__.py"), modules, bench, readme) == []


def test_private_defaults_are_passed_somewhere():
    trees = {p.name: _tree(p) for p in sorted(SRC.glob("*.py"))}
    assert unpassed_private_defaults(trees) == []


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
    blas = (
        "import numpy as np\n"
        "def f(a, b):\n"
        "    c = a @ b\n"
        "    c @= b\n"
        "    d = np.dot(a, b) + a.dot(b) + np.linalg.norm(a)\n"
        "    return np.polyfit(a, b, 1), np.add.reduce(a * b), c, d\n"
    )
    assert blas_calls(ast.parse(blas)) == [
        (3, "@"), (4, "@"), (5, ".dot"), (5, "np.dot"), (5, "np.linalg"), (6, "np.polyfit")]
    roots = (
        "from mpmath import mp\n"
        "from mpmath.libmp import mpf_nthroot, mpf_pow, mpf_pow_int, mpf_sqrt\n"
        "from mpmath import libmp\n"
        "def f(u, x):\n"
        "    a = mpf_nthroot(u, 3, 53) + mpf_sqrt(u, 53) + libmp.mpf_pow(u, u, 53)\n"
        "    b = mp.root(x, 3) + mp.sqrt(x) + mp.cbrt(x) + mpf_pow_int(u, 3, 53)\n"
        "    return a, b, mpf_pow, x.sqrt(), mp.exp(x)\n"
    )
    assert mpmath_roots(ast.parse(roots)) == [
        (5, "mpf_nthroot"), (5, "mpf_pow"), (5, "mpf_sqrt"),
        (6, "mp.cbrt"), (6, "mp.root"), (6, "mp.sqrt"), (7, "mpf_pow")]
    imports = (
        "import mpmath, math\n"
        "import mpmathx\n"
        "from . import _extended\n"
        "def f():\n"
        "    from mpmath.libmp import fzero\n"
        "    import mpmath.libmp as libmp\n"
        "    from ._extended import miss\n"
        "    return fzero, libmp, miss\n"
    )
    assert mpmath_imports(ast.parse(imports)) == [
        (1, "mpmath"), (5, "mpmath.libmp"), (6, "mpmath.libmp")]
    writes = (
        "import os\n"
        "class _Emitter:\n"
        "    def _create(self, path):\n"
        "        return path.open('x', encoding='utf-8')\n"
        "    def csv(self, path, mode):\n"
        "        path.write_text('a')\n"
        "        return open(path, 'w'), path.open(mode=mode), open(path), path.open('rb')\n"
        "def f(path):\n"
        "    with open(path, mode='a') as f, path.open('r+') as g:\n"
        "        return path.write_bytes(b''), os.open(path, os.O_WRONLY), f, g\n"
    )
    models = (
        "from branchfix import weights\n"
        "from branchfix.weights import BernoulliCascade, FiniteAtoms\n"
        "def atom_table(model):\n"
        "    return isinstance(model, (FiniteAtoms, BernoulliCascade))\n"
        "def step(model):\n"
        "    if isinstance(model, BernoulliCascade) or isinstance(model, weights.Deterministic):\n"
        "        return issubclass(type(model), FiniteAtoms)\n"
        "    return isinstance(model, (int, FiniteAtoms)), isinstance(model, float)\n"
    )
    assert model_type_tests(ast.parse(models), exempt=("atom_table",)) == [
        (6, "BernoulliCascade"), (6, "Deterministic"), (7, "FiniteAtoms"), (8, "FiniteAtoms")]
    assert len(model_type_tests(ast.parse(models))) == 6
    assert write_calls(ast.parse(writes)) == [
        (6, "write_text"), (7, "open"), (7, "open"), (9, "open"), (9, "open"),
        (10, "open"), (10, "write_bytes")]
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
    defaults = (
        "def _f(a, b=1, c=2, *, d=3, e=4):\n"
        "    return _f(0, 5, e=6)\n"
        "def _g(x=1):\n"
        "    return _g(*())\n"
        "def _never(y=0):\n"
        "    return 1\n"
        "def public(z=0):\n"
        "    return 1\n"
        "class _C:\n"
        "    def _m(self, p=0, q=1):\n"
        "        return self._m(2)\n"
        "    @staticmethod\n"
        "    def _s(p=0):\n"
        "        return _C._s(1)\n"
        "    def __call__(self, r=0):\n"
        "        return 1\n"
    )
    assert unpassed_private_defaults({"m": ast.parse(defaults)}) == [
        ("m", "_f", "c"), ("m", "_f", "d"), ("m", "_m", "q"), ("m", "_never", "y")]
    init = "from .m import Box, by_bench, documented, recursive, unread, used\n"
    exports = (
        "def used():\n"
        "    return 1\n"
        "def unread():\n"
        "    return used()\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def documented():\n"
        "    return 0\n"
        "def by_bench():\n"
        "    return 0\n"
        "def not_exported():\n"
        "    return 0\n"
        "class Box:\n"
        "    pass\n"
    )
    bench = "import m\nm.by_bench()\n"
    text = "Call `documented()`; unread_more and recursive_x name nothing here."
    assert unread_exports(ast.parse(init), {"m": ast.parse(exports)}, [ast.parse(bench)],
                          text) == [("m", 3, "unread"), ("m", 5, "recursive")]
