"""Source-level checks over the modules of ``src/paveharvest``."""

import ast
from pathlib import Path

import paveharvest

SRC = Path(paveharvest.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

#: Names that nothing in ``src/`` or ``bench/`` reads, kept on purpose.
KEPT_UNREAD = {
    "do_GET": "http.server calls it for each request to /metrics",
    "log_message": "http.server calls it to log a request",
    "ping": "BusClient's half of the documented PING verb",
    "unsubscribe": "BusClient's half of the documented UNSUB verb",
    "stats": "the broker's delivery counters, kept for an operator-facing reader",
    "session_count": "the broker's live sessions, kept beside stats() for that reader",
}


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


def unread_names(defining: list[str], reading: list[str]) -> list[str]:
    """Module-level functions and methods (of any class, a nested one too),
    public or private but not dunder, defined in the ``defining`` sources
    that no source of either list reads, as a name or as an attribute.

    It matches by name alone, so a name that any source reads for another
    purpose hides: ``Store.count`` and ``Store.sensors`` hid behind
    ``list.count`` and ``Scenario.sensors``.
    """
    defining_trees = [ast.parse(source) for source in defining]
    defined, read = set(), set()
    for tree in defining_trees:
        bodies = [tree.body] + [
            node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        ]
        defined.update(
            node.name for body in bodies for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
        )
    for tree in defining_trees + [ast.parse(source) for source in reading]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(defined - read)


def test_unread_public_names_finds_what_it_should():
    source = (
        "def used(): pass\n"
        "def unused(): pass\n"
        "def _private(): pass\n"
        "def _helper(): pass\n"
        "class C:\n"
        "    def called(self): pass\n"
        "    def idle(self): pass\n"
        "    def count(self): pass\n"
        "    def __len__(self): return 0\n"
        "    def make(self):\n"
        "        class Inner:\n"
        "            def hook(self): pass\n"
        "        def nested(): pass\n"
        "        return Inner\n"
        "used()\n"
        "C().make()\n"
    )
    reader = "from m import C, _helper\nC().called()\n[].count(1)\n_helper()\n"
    assert unread_names([source], [reader]) == ["_private", "hook", "idle", "unused"]


def test_every_public_function_and_method_has_a_reader():
    """A function or method only tests call, public or private, is code to
    keep for nothing; move what the tests need to ``tests/helpers.py``."""
    defining = [path.read_text(encoding="utf-8") for path in sorted(SRC.rglob("*.py"))]
    reading = [
        path.read_text(encoding="utf-8") for path in sorted(BENCH.rglob("*.py"))
        if "tests" not in path.relative_to(BENCH).parts
    ]
    assert reading, f"no benchmark sources under {BENCH}"
    # a kept name that gains a reader or loses its definition leaves the list
    assert unread_names(defining, reading) == sorted(KEPT_UNREAD)
