"""The physics modules are formulas over plain arrays: none of them defines
a class, no module of the package imports dataclasses, none conjugates by time reversal except
through multivector.time_reverse_matrix, and none takes a conjugate
transpose except through multivector.reversion_matrix.  The one adjoint,
Clifford conjugation (the T-pseudo-adjoint), is the closed-form
multivector.clifford_conjugation_matrix, and the only composition of two
involution maps is time reversal, its reversion.  No public physics
function takes a keyword-only option: a variant is a value of its inputs.
Every public function of the package has a caller in the package.  The
library's operators are 2x2:
no module builds a (..., 4, 4) array, and it contracts 2x2 stacks and
2-vectors in one way, the closed forms of multivector (matmul2, matvec,
amplitude_inner): no einsum anywhere, and ``@`` only in geometric_product's
Cayley contraction and the table's build.  A physics function that states an
identity returns its difference: the registry's worst_term takes every
magnitude and maximum, and a physics module max-reduces only to scale."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bispinor"
PHYSICS = ("multivector", "momenta", "spectrum", "timereversal", "ideal", "biortho")


@pytest.mark.parametrize("module", PHYSICS)
def test_physics_module_is_plain_functions(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)] == []


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda path: path.relative_to(PACKAGE).as_posix())
def test_no_module_imports_dataclasses(path):
    # the configuration and report are namedtuples; importing dataclasses
    # loads inspect, dis, tokenize and ast, most of the package's import time
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and not n.level]
    assert not any(name.split(".")[0] == "dataclasses" for name in imported)


@pytest.mark.parametrize("module", PHYSICS)
def test_variants_are_values_of_the_inputs(module):
    # an operator's variants (the Rashba sector is the sign of beta) are
    # values of its inputs, not keyword-only options
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    options = [f"{top.name}({arg.arg}=)" for top in tree.body
               if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")
               for arg in top.args.kwonlyargs]
    assert options == []


def _name(func):
    return getattr(func, "id", getattr(func, "attr", None))


def _is_call_to(n, names):
    return isinstance(n, ast.Call) and _name(n.func) in names


def _e13_products(module):
    """Line numbers of the products with E13 as an operand, as ``@`` or
    through the closed-form ``matmul2``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))

    def operands(n):
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult):
            return (n.left, n.right)
        if _is_call_to(n, ("matmul2",)):
            return n.args
        return ()

    return [n.lineno for n in ast.walk(tree)
            if any(getattr(x, "id", getattr(x, "attr", None)) == "E13" for x in operands(n))]


@pytest.mark.parametrize("module", PHYSICS)
def test_no_hand_written_time_reversal(module):
    # only ideal's one-sided flip e13 conj(U) multiplies by e13 itself
    assert len(_e13_products(module)) == (1 if module == "ideal" else 0)


def _operand(call_or_attribute):
    """The array a transpose or conjugation acts on: ``x`` in ``x.T``,
    ``x.conj()``, ``np.conj(x)`` and ``np.swapaxes(x, ...)``."""
    n = call_or_attribute
    if isinstance(n, ast.Attribute):
        return n.value
    if isinstance(n.func, ast.Attribute) and getattr(n.func.value, "id", None) != "np":
        return n.func.value
    return n.args[0] if n.args else None


def _is_transpose(n):
    return ((isinstance(n, ast.Attribute) and n.attr in ("T", "mT"))
            or _is_call_to(n, ("swapaxes", "transpose", "matrix_transpose")))


def _is_conjugation(n):
    return _is_call_to(n, ("conj", "conjugate"))


def _conjugate_transposes(module):
    """(function, line) of every transpose of a conjugate and conjugate of a
    transpose, by the top-level function it sits in (None at module level)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for n in ast.walk(top):
            if ((_is_transpose(n) and _is_conjugation(_operand(n)))
                    or (_is_conjugation(n) and _is_transpose(_operand(n)))):
                found.append((owner, n.lineno))
    return found


@pytest.mark.parametrize("module", PHYSICS)
def test_one_conjugate_transpose(module):
    owners = [owner for owner, _ in _conjugate_transposes(module)]
    assert owners == (["reversion_matrix"] if module == "multivector" else [])


_INVOLUTION_MAPS = ("time_reverse_matrix", "reversion_matrix", "clifford_conjugation_matrix")


def _involution_compositions(path):
    """(function, outer map, inner map) of every call of an involution map
    on a call of another, by the top-level function it sits in (None at
    module level)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for n in ast.walk(top):
            if _is_call_to(n, _INVOLUTION_MAPS):
                found += [(owner, _name(n.func), _name(a.func))
                          for a in n.args if _is_call_to(a, _INVOLUTION_MAPS)]
    return found


def test_one_clifford_conjugation():
    # Clifford conjugation is the 2x2 adjugate, written out; time reversal
    # is its reversion, the one composition
    found = [(path.name, *composition) for path in sorted(PACKAGE.rglob("*.py"))
             for composition in _involution_compositions(path)]
    assert found == [("multivector.py", "time_reverse_matrix",
                      "reversion_matrix", "clifford_conjugation_matrix")]


def _references(node):
    """Every name ``node`` mentions: names, attributes and imported names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rpartition(".")[2]


def test_every_public_function_has_a_caller():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.rglob("*.py"))]
    tops = [top for tree in trees for top in tree.body]
    uncalled = []
    for top in tops:
        if (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                and not top.name.startswith("_")
                and not any(top.name in _references(other) for other in tops if other is not top)):
            uncalled.append(top.name)
    assert uncalled == []


# numpy's array constructors, and the calls that lay out 2x2 blocks
_ARRAY_BUILDERS = ("zeros", "empty", "ones", "full", "eye", "identity", "kron", "block")


def _is_four(x):
    return isinstance(x, ast.Constant) and x.value == 4


def _builds_4x4(n):
    """Whether ``n`` is a constructor call of a 4x4 array: np.eye(4), a
    shape that ends in the literal (4, 4), or a block layout."""
    if _is_call_to(n, ("kron", "block")):
        return True
    if _is_call_to(n, ("eye", "identity")):
        return bool(n.args) and _is_four(n.args[0])
    return _is_call_to(n, _ARRAY_BUILDERS) and any(
        isinstance(x, ast.Tuple) and len(x.elts) >= 2 and all(map(_is_four, x.elts[-2:]))
        for arg in n.args for x in ast.walk(arg))


def _lines(path, found):
    """Line numbers of the nodes ``found`` picks out of ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [n.lineno for n in ast.walk(tree) if found(n)]


def test_no_module_builds_4x4_arrays():
    found = [(path.name, line) for path in sorted(PACKAGE.rglob("*.py"))
             for line in _lines(path, _builds_4x4)]
    assert found == []


def _owner(top):
    """The name of a top-level statement: the function or class it defines,
    or the first name it assigns (None for anything else)."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return top.name
    return getattr(top.targets[0], "id", None) if isinstance(top, ast.Assign) else None


def _contractions(tree):
    """(owner, kind) of every ``@`` and every mention of einsum, by the
    top-level statement it sits in."""
    found = []
    for top in tree.body:
        for n in ast.walk(top):
            if isinstance(getattr(n, "op", None), ast.MatMult):
                found.append((_owner(top), "@"))
        if "einsum" in _references(top):
            found.append((_owner(top), "einsum"))
    return found


def test_one_way_to_contract():
    # every other product of 2x2 stacks and 2-vectors is matmul2, matvec or
    # amplitude_inner; the Cayley table's own build stays as its oracle
    found = [(path.name, *c) for path in sorted(PACKAGE.rglob("*.py"))
             for c in _contractions(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [("multivector.py", "_CAYLEY", "@"),
                     ("multivector.py", "geometric_product", "@")]


def _reductions(tree):
    """(owner, name) of every max, amax or ufunc ``reduce`` call, by the
    top-level statement it sits in."""
    return [(_owner(top), _name(n.func)) for top in tree.body for n in ast.walk(top)
            if _is_call_to(n, ("max", "amax", "reduce"))]


def test_one_reducer():
    # the scaling of unitary2 and eigenvector_oracle by a power of two, and
    # build_pair's scale for its invertibility guard; no residual is reduced
    found = [(module, *r) for module in PHYSICS for r in _reductions(
        ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")))]
    assert found == [("multivector", "unitary2", "max"),
                     ("spectrum", "eigenvector_oracle", "max"),
                     ("biortho", "build_pair", "max")]
