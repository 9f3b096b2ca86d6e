"""No module of the package keeps an import that nothing in it reads.

The package's ``__init__.py`` is left out: its imports are the public API.
An import counts as read when its bound name appears anywhere in the
module as a name, including annotations and the base of an attribute
(``np`` in ``np.log``); ``from __future__`` imports bind no name."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "delaylab"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import math\nfrom itertools import repeat as r, chain\n"
                          "chain(r(math.pi))\n") == []
    assert unused_imports("from __future__ import annotations\nimport os.path\n"
                          "from x import (a, b as c)\na\n") == ["line 2: os", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
