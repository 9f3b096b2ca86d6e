"""No module defines a name twice in one scope.

A second ``def`` or ``class`` of a name at a module's top level, or in one
class body, silently replaces the first for everything below it.  The
check covers the package, the tests and the demos."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "delaylab").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "demos").glob("*.py")])
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def repeated_names(source: str) -> list[str]:
    tree = ast.parse(source)
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    repeats = []
    for scope in scopes:
        seen = set()
        for node in scope.body:
            if not isinstance(node, DEFINITIONS):
                continue
            if node.name in seen:
                where = "" if scope is tree else f"{scope.name}."
                repeats.append(f"line {node.lineno}: {where}{node.name}")
            seen.add(node.name)
    return repeats


def test_the_check_sees_a_repeated_name():
    assert repeated_names("def f(): pass\nclass A:\n    def g(self): pass\n"
                          "def g(): pass\n") == []
    assert repeated_names("def f(): pass\nclass A:\n    def g(self): pass\n"
                          "    def g(self): pass\nclass f: pass\n") == \
        ["line 5: f", "line 4: A.g"]


@pytest.mark.parametrize("path", MODULES, ids=[str(path.relative_to(ROOT)) for path in MODULES])
def test_no_repeated_names(path):
    assert repeated_names(path.read_text()) == []
