"""No library module computes with floats.

Every quantity is a Fraction or an int.  This checks statically, with the
standard library's ast, that no src/pmplab module contains a float
constant, names the builtin float, or uses a math function or constant
whose value is a float."""
from __future__ import annotations

import ast
import math
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pmplab"
MODULES = sorted(PACKAGE.glob("*.py"))

# math names whose value is an int or a bool for int arguments; every other
# public name in math returns (or is) a float.
MATH_EXACT = {
    "ceil", "comb", "factorial", "floor", "gcd", "isclose", "isfinite",
    "isinf", "isnan", "isqrt", "lcm", "perm", "prod", "trunc",
}
MATH_FLOAT = {n for n in dir(math) if not n.startswith("_")} - MATH_EXACT


def float_uses(source: str) -> list[str]:
    tree = ast.parse(source)
    math_aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "math":
                    math_aliases.add(alias.asname or "math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in MATH_FLOAT or alias.name == "*":
                    found.append(f"math.{alias.name} (line {node.lineno})")
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"constant {node.value!r} (line {node.lineno})")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"float (line {node.lineno})")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_aliases
            and node.attr in MATH_FLOAT
        ):
            found.append(f"math.{node.attr} (line {node.lineno})")
    return sorted(found)


def test_detects_float_uses():
    source = (
        "import math\n"
        "from math import lcm, sqrt\n"
        "x = 0.5\n"
        "y = float(3)\n"
        "z = math.log(2) + math.gcd(4, 6) + lcm(2, 3)\n"
        "w = 2j\n"
    )
    assert float_uses(source) == [
        "constant 0.5 (line 3)",
        "constant 2j (line 6)",
        "float (line 4)",
        "math.log (line 5)",
        "math.sqrt (line 2)",
    ]


def test_exact_arithmetic_passes():
    source = (
        "from fractions import Fraction\n"
        "from math import lcm\n"
        "x = Fraction(1, 2) * lcm(2, 3)\n"
    )
    assert float_uses(source) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_no_floats(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []
