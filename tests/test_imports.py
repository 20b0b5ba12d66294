"""Every name a module imports is read in that module, and every private
name the package defines is read somewhere in the package.

An AST scan of the package and the tests: an imported name counts as read
when it appears as a name anywhere in the module (an attribute access
``json.dumps`` reads ``json``) or is listed in the module's ``__all__``.
``from __future__`` imports are compiler directives, not names.

A private name is one with a single leading underscore, defined at module
level (function, class or assignment) or as a class method.  It counts as
read when some package module loads it as a name or as an attribute; the
tests do not count, so code only the tests reach is reported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "hampower").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= _exported(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in read)


def test_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from re import compile as re_compile, escape\n"
        "from math import ceil, floor\n"
        "__all__ = ['floor']\n"
        "print(os.path.sep, escape)\n"
    )
    assert unused_imports(source) == [(2, "json"), (4, "re_compile"), (5, "ceil")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each single-underscore name the module defines at module level or as
    a class method, with the line of its definition."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
            if isinstance(node, ast.ClassDef):
                names.update((item.name, item.lineno) for item in node.body
                             if isinstance(item, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((n.id, node.lineno) for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {name: line for name, line in names.items()
            if name.startswith("_") and not name.startswith("__")}


def _loaded(tree: ast.Module) -> set[str]:
    """Every name and attribute the module reads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of every private name no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_loaded, trees.values()))
    return sorted((module, line, name) for module, tree in trees.items()
                  for name, line in _private_definitions(tree).items() if name not in read)


def test_scan_finds_an_unread_private_name():
    sources = {
        "a": (
            "_USED, _UNUSED = 1, 2\n"
            "_TABLE: dict = {}\n"
            "def _helper():\n"
            "    return _USED\n"
            "def _dead():\n"
            "    pass\n"
            "class _Thing:\n"
            "    def __init__(self):\n"
            "        self._called()\n"
            "    def _called(self):\n"
            "        pass\n"
            "    def _stored(self):\n"
            "        pass\n"
        ),
        "b": "from a import _helper\n_helper(_Thing)\n_Thing()._stored = None\n",
    }
    assert unread_private_names(sources) == [
        ("a", 1, "_UNUSED"), ("a", 2, "_TABLE"), ("a", 5, "_dead"), ("a", 12, "_stored"),
    ]


def test_every_private_name_is_read():
    assert unread_private_names({p.name: p.read_text() for p in PACKAGE}) == []
