"""Source hygiene: no module of the package imports a name it never uses.

``__init__.py`` is left out: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

import interfersim

MODULES = sorted(path for path in Path(interfersim.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never references, in source
    order. ``import a.b`` binds ``a``; ``__future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_finds_each_kind():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\nimport os.path\n"
              "from .records import event_suffix, key_tokens as split\n"
              "x: np.ndarray = event_suffix(0, None)\n")
    assert unused_imports(source) == ["os", "os", "split"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
