"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import sppfetd

MODULES = sorted(p for p in Path(sppfetd.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")   # __init__ imports to re-export


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
