"""Every name that a module of src/alexpoly imports is used in that module.

A name counts as used when the module reads it anywhere, annotations
included.  __future__ imports bind no name, and the names a module lists
in __all__ (the package's re-exports) count as used.
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
