"""No module of src/alexpoly imports or defines a name that nothing reads.

An imported name counts as used when its module reads it anywhere,
annotations included.  __future__ imports bind no name, and the names a
module lists in __all__ (the package's re-exports) count as used.

A name that a module defines at its top level, as a function, a class or
an assignment, counts as read when some module of the package loads it as
a name, reads it as an attribute or imports it.  Every private name (one
leading underscore) and every public name (none) must be read; the
imports in __init__ count, so the names the package exports pass.

The public surface needs a reader beyond the unit tests: every name of
__all__, and every public method, property or class attribute of an
exported class, must be read by a module of the package other than
__init__, a demo, the acceptance suite or the benchmark.
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


def _public(name: str) -> bool:
    return not name.startswith("_")


def names_read(tree: ast.AST) -> set[str]:
    """The names a tree loads, the attributes it reads and the names it imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_names(sources: dict[str, str], chosen) -> list[str]:
    """The top-level names for which chosen(name) holds that no module reads."""
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
            defined += [f"{module}:{name}" for name in names if chosen(name)]
        read |= names_read(tree)
    return [entry for entry in defined if entry.partition(":")[2] not in read]


SOURCES = {module.name: module.read_text(encoding="utf-8") for module in MODULES}


def test_no_unread_private_name():
    assert unread_names(SOURCES, _private) == []


def test_no_unread_public_name():
    assert unread_names(SOURCES, _public) == []


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
    assert unread_names(sources, _private) == ["a.py:_dead", "a.py:_Unused"]
    assert unread_names(sources, _public) == ["a.py:public"]


ROOT = Path(__file__).resolve().parent.parent
READERS = (
    [module for module in MODULES if module.name != "__init__.py"]
    + sorted((ROOT / "demos").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
    + sorted((ROOT / "perfbench").glob("*.py"))
)


def unread_exports(init_source: str, sources: list[str]) -> list[str]:
    """The exports, and the public attributes of exported classes, that no source reads.

    The exports are the names of __all__ in init_source.  The attributes
    of an exported class are the public names that its body defines as a
    method, a property or a plain assignment; an annotated field is
    exempt, since the constructor sets it.
    """
    (exports,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(init_source).body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
    ]
    surface, read = list(exports), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in exports:
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        names = [item.name]
                    elif isinstance(item, ast.Assign):
                        names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                    else:
                        names = []
                    surface += [f"{node.name}.{name}" for name in names if _public(name)]
        read |= names_read(tree)
    return [name for name in surface if name.rpartition(".")[2] not in read]


def test_every_export_has_a_reader_outside_the_unit_tests():
    init_source = (ROOT / "src" / "alexpoly" / "__init__.py").read_text(encoding="utf-8")
    sources = [path.read_text(encoding="utf-8") for path in READERS]
    assert unread_exports(init_source, sources) == []


def test_export_check_sees_unread_exports_and_methods():
    init_source = (
        "from .a import Shape, area, unused\n"
        "__all__ = ['Shape', 'area', 'unused']\n"
    )
    sources = [
        (
            "class Shape:\n"
            "    side: int\n"
            "    label: str\n"
            "    KIND = 'square'\n"
            "    def __init__(self, side): self.side = side\n"
            "    def scaled(self, k): return Shape(k * self.side)\n"
            "    def idle(self): return self\n"
            "    @property\n"
            "    def _hidden(self): return 0\n"
            "def area(s): return s.side ** 2\n"
            "def unused(): return area\n"
        ),
        "from a import Shape\nprint(Shape(2).scaled(3).KIND)\n",
    ]
    assert unread_exports(init_source, sources) == ["unused", "Shape.idle"]
