"""Every name a module of the package or of its tests imports is used in
that module, every parameter of a package function is read, so is every
private attribute its classes store, and package code refers to every
module-level function and class and to every method of those classes."""

import ast
from pathlib import Path

import pytest

import sppfetd

MODULES = sorted(p for p in Path(sppfetd.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")   # __init__ imports to re-export
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression of `source` reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_detector():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(source) == ["field (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_parameters(source: str) -> list:
    """Parameters, other than self and cls, that their function never reads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                  + [a.vararg, a.kwarg] if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        out += [f"{name}.{p} (line {node.lineno})" for p in params
                if p not in ("self", "cls") and p not in read]
    return sorted(out)


def test_unread_parameter_detector():
    source = ("def f(self, a, b, *args, c, **kw):\n"
              "    def g(d, e=a):\n        return lambda x, y: e + x\n"
              "    return b + kw['k']\n")
    # a default of a nested function and a closure both read their name
    assert unread_parameters(source) == ["<lambda>.y (line 3)", "f.args (line 1)",
                                         "f.c (line 1)", "g.d (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_parameter(path):
    assert unread_parameters(path.read_text()) == []


def unread_private_attributes(source: str) -> list:
    """Private attributes a class stores on self that its module never reads."""
    tree = ast.parse(source)
    read = {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    out = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for n in ast.walk(cls):
            if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == "self"
                    and n.attr.startswith("_") and not n.attr.startswith("__")
                    and n.attr not in read):
                out.add(f"{cls.name}.{n.attr} (line {n.lineno})")
    return sorted(out)


def test_unread_private_attribute_detector():
    source = ("class A:\n    def __init__(self, other):\n"
              "        self._a, self._b = 1, 2\n        self._c = self.d = 3\n"
              "        self._e += 1\n    def f(self, other):\n"
              "        return self._a + other._c\n")
    # a read through any object counts; an augmented assignment does not
    assert unread_private_attributes(source) == ["A._b (line 3)", "A._e (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_private_attribute(path):
    assert unread_private_attributes(path.read_text()) == []


def _functions(body) -> list:
    return [node for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def unreferenced_definitions(sources: dict) -> list:
    """Module-level functions and classes of `sources` (module name to source),
    and the methods of those classes other than dunders, that no module refers
    to by name or attribute; an import is no reference."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
        defined += [f"{module}.{node.name}" for node in _functions(tree.body) + classes]
        defined += [f"{module}.{cls.name}.{node.name}" for cls in classes
                    for node in _functions(cls.body)
                    if not (node.name.startswith("__") and node.name.endswith("__"))]
        used |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return sorted(name for name in defined if name.rpartition(".")[2] not in used)


def test_unreferenced_definition_detector():
    sources = {"a": "def f():\n    return g()\ndef g(): pass\ndef h(): pass\n"
                    "class K: pass\nclass L: pass\n"
                    "class M:\n    def __init__(self): self.p()\n    def p(self): pass\n"
                    "    @property\n    def q(self): pass\n    def r(self): pass\n"
                    "    def _s(self): pass\n",
               "b": "from a import h, L\nimport a\nx: a.K = a.f()\ny = a.M().q\n"}
    # a call from another module, an annotation and an attribute count; a
    # method is referenced as an attribute, a dunder needs no reference
    assert unreferenced_definitions(sources) == ["a.L", "a.M._s", "a.M.r", "a.h"]


def test_package_refers_to_every_module_level_definition():
    # __init__ only re-exports, so a name that only tests call shows here
    assert unreferenced_definitions({p.stem: p.read_text() for p in MODULES}) == []
