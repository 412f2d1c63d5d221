"""Every name a library module imports is used in that module, and none is
a private name of another module of the package; every private function,
method or class it defines is named in it, every public one is named in
the library outside its own body, and every parameter of its functions and
lambdas is named in their bodies.

``__init__.py`` is exempt from all but the check of private imports: its
imports are the package's exports, and they do not count as a use.  An
import line carrying ``# noqa: F401`` is exempt too, for a binding kept on
purpose.  A private definition is one whose name starts with ``_`` and is
not a dunder; another module has no business importing or calling it, so
a private definition its own module never names is dead.  A public
definition that only its own body, the tests or the exports name is dead
too: code that only tests use lives in ``tests/``.  The one exemption is a
function the benchmark's tracer wraps, named there by a dotted path.
No name in ``__init__.py`` is the stem of a module of the package, so
``import drinfeld_orders.<module> as m`` always gives the module.
"""

from __future__ import annotations

import ast
import importlib
import types
from collections import Counter
from pathlib import Path

import pytest

import drinfeld_orders
from drinfeld_orders.gf import ExtensionField, FiniteField, PrimeField

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "drinfeld_orders"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list:
    """(line, name) of each imported binding the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list:
    """(line, name) of each private name the module imports from another
    module of the package, by a relative or a ``drinfeld_orders`` import."""
    return [
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "drinfeld_orders")
        for alias in node.names
        if is_private(alias.name)
    ]


def unreferenced_private_defs(source: str) -> list:
    """(line, name) of each private def or class the module never names,
    as a variable or as an attribute."""
    tree = ast.parse(source)
    private = [
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, DEFS) and is_private(node.name)
    ]
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return [(line, name) for line, name in private if name not in named]


def names_in(tree: ast.AST) -> Counter:
    """How often the tree mentions each name: variables, attributes and each
    dotted part of an imported name."""
    named = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named[node.id] += 1
        elif isinstance(node, ast.Attribute):
            named[node.attr] += 1
        elif isinstance(node, ast.alias):
            named.update(node.name.split("."))
    return named


def traced_names(source: str) -> set:
    """Each dotted part of the attribute paths in the tracer's SPANS and
    COUNTED tables of (layer, module, path) rows."""
    named = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTED") for t in node.targets
        ):
            for row in ast.literal_eval(node.value):
                named.update(row[2].split("."))
    return named


def unreferenced_public_defs(library: dict, exempt: set) -> list:
    """(file, line, name) of each public def or class in the library's
    {file: source} that no file of it names outside the definition's own
    body, unless the name is in ``exempt``."""
    trees = {path: ast.parse(source) for path, source in library.items()}
    named = sum(map(names_in, trees.values()), Counter())
    return sorted(
        (path, node.lineno, node.name)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, DEFS)
        and not node.name.startswith("_")
        and node.name not in exempt
        and named[node.name] == names_in(node)[node.name]
    )


def unused_parameters(source: str) -> list:
    """(line, name) of each function or lambda parameter, other than
    ``self``, ``cls`` and names starting with ``_``, that its body never
    names (a nested function's use counts)."""
    tree = ast.parse(source)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [p for p in (args.vararg, args.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        named = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        unused += [
            (p.lineno, p.arg)
            for p in params
            if p.arg not in named and p.arg not in ("self", "cls") and not p.arg.startswith("_")
        ]
    return sorted(unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "from os import path, sep  # used below\nimport sys\nprint(sep)\n"
    assert unused_imports(source) == [(1, "path"), (2, "sys")]
    assert unused_imports("from os import path  # noqa: F401\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def test_detects_a_private_import():
    source = (
        "from __future__ import annotations\n"
        "from .gf import _pack, trim\n"
        "from drinfeld_orders.cubic import _local_at_v as local\n"
        "from . import _private_module\n"
        "from os import _exit\n"
        "from .poly import __all__\n"
    )
    assert private_imports(source) == [
        (2, "_pack"), (3, "_local_at_v"), (4, "_private_module")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_defs(path):
    assert unreferenced_private_defs(path.read_text()) == []


def test_detects_an_unreferenced_private_def():
    source = (
        "def _dead():\n    pass\n"
        "def _called():\n    pass\n"
        "class _Unused:\n    def _method(self):\n        pass\n"
        "    def _used(self):\n        return self._used\n"
        "    def __repr__(self):\n        return _called()\n"
    )
    assert unreferenced_private_defs(source) == [(1, "_dead"), (5, "_Unused"), (6, "_method")]


def test_no_unreferenced_public_defs():
    library = {p.name: p.read_text() for p in MODULES}
    exempt = traced_names((REPO / "bench" / "tracer.py").read_text())
    assert unreferenced_public_defs(library, exempt) == []


def test_detects_an_unreferenced_public_def():
    library = {
        "lib.py": (
            "def dead():\n    pass\n"
            "def called():\n    pass\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "class Field:\n    def div(self):\n        pass\n"
            "    def traced(self):\n        pass\n"
            "    def _private(self):\n        pass\n"
        ),
        "user.py": "from lib import called as c\nc()\n",
    }
    tracer = 'SPANS = [("lib.traced", "lib", "Field.traced")]\nCOUNTED = []\n'
    assert unreferenced_public_defs(library, traced_names(tracer)) == [
        ("lib.py", 1, "dead"), ("lib.py", 5, "recursive"), ("lib.py", 8, "div")
    ]


def test_no_export_shadows_a_submodule():
    # ``import drinfeld_orders.factor as m`` binds the package's attribute
    # ``factor``, which an export of that name would replace
    exports = names_in(ast.parse((PACKAGE / "__init__.py").read_text()))
    assert set(exports) & {path.stem for path in MODULES} == set()


def test_every_module_imports_as_itself():
    import drinfeld_orders.factor as m

    assert isinstance(m, types.ModuleType)
    for path in MODULES:
        module = importlib.import_module(f"drinfeld_orders.{path.stem}")
        assert getattr(drinfeld_orders, path.stem) is module, path.stem


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def test_detects_an_unused_parameter():
    source = (
        "def f(a, b, _c, *args, key=None, **kw):\n"
        "    def inner(x):\n        return a + x\n"
        "    return inner\n"
        "class C:\n    def m(self, y, z):\n        return y\n"
        "    @classmethod\n    def n(cls):\n        pass\n"
        "g = lambda u, w: u\n"
    )
    assert unused_parameters(source) == [
        (1, "args"), (1, "b"), (1, "key"), (1, "kw"), (6, "z"), (11, "w")
    ]


FIELD_CORE = ("add", "sub", "neg", "mul", "inv", "element", "index")


def test_each_field_class_defines_the_core_operations():
    # FiniteField names the interface in its docstring only, with no stubs
    # to fall back on, so each concrete field must define all of it
    for cls in (PrimeField, ExtensionField):
        assert [op for op in FIELD_CORE if op not in vars(cls)] == [], cls.__name__
    assert [op for op in FIELD_CORE if op in vars(FiniteField)] == []
