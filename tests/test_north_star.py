"""The physics modules are formulas over plain arrays: none of them defines
a class or imports dataclasses."""

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
