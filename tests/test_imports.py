"""Every module of pathvec uses each name its top-level imports bind."""

import ast
from pathlib import Path

import pathvec

SOURCE = Path(pathvec.__file__).parent


def unused_imports(tree):
    """(line, name) of each name a top-level import binds that the module
    never names. Names listed in __all__ count as used, and `from
    __future__` imports bind nothing."""
    bound = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound += [
                (stmt.lineno, alias.asname or alias.name.split(".")[0]) for alias in stmt.names
            ]
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            bound += [(stmt.lineno, alias.asname or alias.name) for alias in stmt.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            used.update(ast.literal_eval(stmt.value))
    return [(line, name) for line, name in bound if name not in used]


def test_unused_imports_finds_each_unused_name_and_only_those():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import Any, Iterator\n"
        "from .ast import Node, Exported\n"
        "__all__ = ['Exported']\n"
        "def f(x: Iterator) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(tree) == [(3, "j"), (4, "Any"), (5, "Node")]


def test_no_module_imports_a_name_it_does_not_use():
    found = [
        f"{path.relative_to(SOURCE).as_posix()}:{line} {name}"
        for path in sorted(SOURCE.rglob("*.py"))
        for line, name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
