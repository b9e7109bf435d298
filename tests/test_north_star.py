"""The physics modules are formulas over plain arrays: none of them defines
a class or imports dataclasses, and none conjugates by time reversal except
through multivector.time_reverse_matrix."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bispinor"
PHYSICS = ("multivector", "momenta", "spectrum", "timereversal", "ideal", "susy", "biortho")


@pytest.mark.parametrize("module", PHYSICS)
def test_physics_module_is_plain_functions(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    classes = [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert classes == []
    assert not any(name and name.split(".")[0] == "dataclasses" for name in imported)


def _e13_products(module):
    """Line numbers of the products with E13 as an operand, as ``@`` or
    through the closed-form ``matmul2``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))

    def operands(n):
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult):
            return (n.left, n.right)
        if isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None)) == "matmul2":
            return n.args
        return ()

    return [n.lineno for n in ast.walk(tree)
            if any(getattr(x, "id", getattr(x, "attr", None)) == "E13" for x in operands(n))]


@pytest.mark.parametrize("module", PHYSICS)
def test_no_hand_written_time_reversal(module):
    # only ideal's one-sided flip e13 conj(U) multiplies by e13 itself
    assert len(_e13_products(module)) == (1 if module == "ideal" else 0)
