"""The library computes in exact arithmetic: no floating point in src/helpzc."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import helpzc

SOURCES = sorted(Path(helpzc.__file__).parent.glob("*.py"))


def float_uses(tree: ast.AST) -> list[str]:
    """Float literals, true divisions and calls of float or complex, with their lines."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"line {node.lineno}: true division")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex")
        ):
            found.append(f"line {node.lineno}: call of {node.func.id}")
    return found


def test_every_library_module_is_checked():
    assert {p.name for p in SOURCES} >= {
        "__init__.py", "cli.py", "cyclotomic.py", "help_core.py", "psl2.py", "solver.py"
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert float_uses(tree) == []


@pytest.mark.parametrize(
    "source",
    ["x = 0.5", "x = 1j", "x = a / b", "x /= 2", "x = float(a)", "x = complex(a, b)"],
)
def test_each_float_use_is_found(source):
    assert len(float_uses(ast.parse(source))) == 1
