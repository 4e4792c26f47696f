"""No module of src/alexpoly imports or defines a name that nothing reads.

An imported name counts as used when its module reads it anywhere,
annotations included.  __future__ imports bind no name, and the names a
module lists in __all__ (the package's re-exports) count as used.

A private name (one leading underscore) that a module defines at its top
level, as a function, a class or an assignment, counts as read when some
module of the package loads it as a name, reads it as an attribute or
imports it.
"""
import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "alexpoly").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    imported, used = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_modules_found():
    assert len(MODULES) > 5


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_check_sees_annotations_and_future_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Any, Mapping\n"
        "def f(x: Any) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["Mapping"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(sources: dict[str, str]) -> list[str]:
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [f"{module}:{name}" for name in names if _private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [entry for entry in defined if entry.partition(":")[2] not in read]


def test_no_unread_private_name():
    sources = {module.name: module.read_text(encoding="utf-8") for module in MODULES}
    assert unread_private_names(sources) == []


def test_private_name_check_sees_every_kind_of_read():
    sources = {
        "a.py": (
            "from b import _imported\n"
            "_LOADED = 1\n"
            "_dead = 2\n"
            "def _helper(): return _LOADED\n"
            "class _Unused: pass\n"
            "def public(): return _helper() + b._by_attribute\n"
        ),
        "b.py": "_imported = 3\n_by_attribute = 4\ndef __dunder(): pass\n",
    }
    assert unread_private_names(sources) == ["a.py:_dead", "a.py:_Unused"]
