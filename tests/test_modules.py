"""Source-level checks over the modules of ``src/paveharvest``."""

import ast
from pathlib import Path

import paveharvest

SRC = Path(paveharvest.__file__).resolve().parent


def unread_imports(source: str) -> list[str]:
    """Names a module imports and never reads, ``__future__`` features and
    names listed in ``__all__`` excepted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(
                alias.asname or alias.name.split(".")[0]
                for alias in node.names if alias.name != "*"
            )
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_unread_imports_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json.decoder\n"
        "from x import a, b as c, d\n"
        "__all__ = ['d']\n"
        "print(os, c)\n"
    )
    assert unread_imports(source) == ["a", "json", "osp"]


def test_no_module_imports_a_name_it_never_reads():
    unread = {
        str(path.relative_to(SRC)): names
        for path in sorted(SRC.rglob("*.py"))
        if (names := unread_imports(path.read_text(encoding="utf-8")))
    }
    assert unread == {}
