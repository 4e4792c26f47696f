"""No module of src/alexpoly computes with floating point.

Every invariant is exact, and the determinant bounds (Hadamard, Parseval)
are compared as integers.  So no module may hold a float or complex
literal, divide with `/` (or `/=`), name `float` or `complex`, or use any
part of `math` except the integer functions `gcd` and `isqrt`.
"""
import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "alexpoly").glob("*.py"))
INTEGER_MATH = {"gcd", "isqrt"}


def floating_point_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", "?")
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"line {line}: literal {node.value!r}")
        elif isinstance(node, ast.Div):
            found.append("a true division")
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append(f"line {line}: name {node.id}")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            found.append(f"line {line}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"line {line}: from math import {alias.name}"
                for alias in node.names
                if alias.name not in INTEGER_MATH
            ]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_floating_point(path):
    assert floating_point_uses(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    ["x = 0.5", "x = 2j", "y = a / b", "y /= 2", "y = float(a)", "y = math.sqrt(a)",
     "from math import log2"],
)
def test_guard_catches_each_kind(source):
    assert floating_point_uses(source)


def test_guard_passes_integer_code():
    assert floating_point_uses("import math\ny = math.gcd(a, b) + math.isqrt(a // 2)") == []
