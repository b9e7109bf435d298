"""One batching contract for every public function of the physics modules.

``STACKED`` gives, for each public function of multivector, momenta,
spectrum, timereversal, ideal and biortho, the kinds of its operands
(``OPERANDS``), or a one-line call around it.  One property draws k = 2..4
variants of N = 1..5 samples, each operand stacked (k, N, ...) or shared
(N, ...), and holds bit for bit (``tobytes``, every NaN made the same NaN)
and type for type: (a) each slice of the stacked call equals its own N >= 1
call, and (b) each single point equals its row of the stack, its 0-d
operands given in one of three ``POINT_FORMS`` drawn per example (numpy
scalars as indexed, Python scalars or 0-d arrays).  There is no tolerance
and no exception.  A completeness test fails on a public function that is
neither a row nor ``EXEMPT``.  ``test_rashba``, ``test_magnetic``,
``test_momentum_product`` and ``test_projector_matrices`` hold the same two
comparisons, in every point form, at hand-picked points the draws seldom
land on.  ``test_every_guarded_operand_refuses_a_bad_value`` holds the two
input guards at every operand of the table that reads one.  ``mat2`` and
``stacked`` are held to the forms they replaced, inf and NaN included, and
the variant families to their callers' batch axes.
"""

import ast
import contextlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bispinor import biortho, ideal, momenta, multivector, spectrum, timereversal
from bispinor.multivector import mat2, stacked
from bispinor.spectrum import flip_relations
from bispinor.timereversal import kramers_pairing, noncommutation_witness

MODULES = (multivector, momenta, spectrum, timereversal, ideal, biortho)


def public_functions(module):
    """The names of the top-level functions of ``module`` without a leading _."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return [top.name for top in tree.body
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")]


FUNCTIONS = {name: getattr(module, name) for module in MODULES
             for name in public_functions(module)}


def reals(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# (core shape, sampler) per operand kind; complex operands are drawn as pairs
OPERANDS = {
    "gamma": ((), reals(-0.99, 0.99)),
    "beta": ((), reals(-4.0, 4.0)),
    "field": ((), reals(-4.0, 4.0)),
    "angle": ((), reals(-7.0, 7.0)),
    "complex": ((), reals(-2.0, 2.0)),
    "p": ((2,), reals(-5.0, 5.0)),
    "a_vec": ((2,), reals(-3.0, 3.0)),
    "amps": ((2,), reals(-2.0, 2.0)),
    "coeffs": ((8,), reals(-10.0, 10.0)),
    "shift": ((3,), reals(-3.0, 3.0)),
    "matrix": ((2, 2), reals(-2.0, 2.0)),
    # a pair of plane waves: amplitudes, momenta and energies, the pair on axis -2
    "pair_amps": ((2, 2), reals(-2.0, 2.0)),
    "pair_p": ((2, 2), reals(-5.0, 5.0)),
    "pair_energies": ((2,), reals(-20.0, 20.0)),
}
COMPLEX = {"complex", "amps", "shift", "matrix", "pair_amps"}


def rotated_seeds(angle):
    """Orthonormal seeds (cos a, sin a) and (-sin a, cos a) at angles (...)."""
    return stacked((np.cos(angle), np.sin(angle))), stacked((-np.sin(angle), np.cos(angle)))


# Row name: the operand kinds of the function of that name, or (call, kinds)
# for a call around it; a name "f.variant" is one of several rows of f.
# beta spans [-4, 4], so a stack over beta holds both Rashba sectors.
STACKED = {
    **dict.fromkeys(("det2", "inv2", "unitary2", "decompose", "reversion_matrix",
                     "clifford_conjugation_matrix", "time_reverse_matrix", "basis_flip",
                     "invariance_group_defects"), ("matrix",)),
    **dict.fromkeys(("matmul2", "pseudo_hermitian_residual", "gram"), ("matrix", "matrix")),
    **dict.fromkeys(("reverse_amplitudes", "ideal_matrix", "spin_expectations"), ("amps",)),
    **dict.fromkeys(("deformation_omega", "deformation_transform", "deformed_generators",
                     "generator_reversal", "build_ideal_basis", "canonical_pair",
                     "synthesize_generators"), ("gamma",)),
    **dict.fromkeys(("phi_angles", "flip_relations", "kramers_pairing"), ("gamma", "p")),
    **dict.fromkeys(("rashba", "noncommutation_witness", "reversed_schrodinger_residual"),
                    ("gamma", "beta", "p")),
    **dict.fromkeys(("eigen_amplitudes", "projector_matrices"), ("angle", "angle")),
    "matvec": ("matrix", "amps"),
    "amplitude_inner": ("amps", "amps"),
    "eigenvector_oracle": ("matrix", "complex"),
    "pauli_matrix": ("complex", "complex", "complex", "complex", "gamma"),
    "geometric_product": ("coeffs", "coeffs"),
    "to_matrix": ("coeffs", "gamma"),
    "eigenvalues": ("beta", "p"),
    "clifford_momentum": ("gamma", "shift", "p"),
    "momentum_product": ("gamma", "shift", "shift", "p"),
    "magnetic": ("gamma", "beta", "a_vec", "field", "p"),
    "continuity_residual": ("gamma", "beta", "pair_amps", "pair_p", "pair_energies"),
    **{f"involute.{kind}": (lambda a, kind=kind: multivector.involute(a, kind), ("coeffs",))
       for kind in multivector.MATRIX_INVOLUTIONS},
    "in_plane": (lambda p: multivector.in_plane(p, "momentum"), ("p",)),
    "rashba_shifts": (lambda b: tuple(momenta.rashba_shifts(b)), ("beta",)),
    "magnetic_shifts": (lambda b, a: tuple(momenta.magnetic_shifts(b, a)), ("beta", "a_vec")),
    "eigenvalue_oracle": (lambda g, b, p: spectrum.eigenvalue_oracle(momenta.rashba(g, b, p)),
                          ("gamma", "beta", "p")),
    "mixture_expectation": (
        lambda c, d, k, f, g: spectrum.mixture_expectation(c, d, k, spectrum.eigen_amplitudes(f, g)),
        ("complex", "complex", "matrix", "angle", "angle")),
    "c1_form": (lambda a, b: ideal.c1_form(ideal.ideal_matrix(a), ideal.ideal_matrix(b)),
                ("amps", "amps")),
    "c2_form": (lambda a, b: ideal.c2_form(ideal.ideal_matrix(a), ideal.ideal_matrix(b)),
                ("amps", "amps")),
    # |m| < 3, so m + 3 is invertible and build_pair does not refuse it
    "build_pair": (lambda a, m: biortho.build_pair(*rotated_seeds(a), m + 3.0 * np.eye(2)),
                   ("angle", "matrix")),
}

EXEMPT = {
    "mat2": "held below to the broadcast-and-stack form it replaced",
    "stacked": "held below to np.stack, whose layout it writes",
}

# NaN where a drawn matrix is singular (a zero determinant or column), with
# the floating-point warnings that come with it
SINGULAR = {"inv2", "unitary2", "eigenvector_oracle"}

# A single point's 0-d operands as indexed (numpy scalars), as Python
# scalars, or as 0-d arrays; operands with a core shape stay arrays
POINT_FORMS = {
    "indexed": lambda x: x,
    "python": lambda x: x.item() if np.ndim(x) == 0 else x,
    "0-d array": np.asarray,
}


def row(name):
    """(function, operand kinds) of a row of STACKED."""
    entry = STACKED[name]
    return (FUNCTIONS[name], entry) if isinstance(entry[0], str) else entry


def complex_from(re, im):
    """re + i im entry by entry, with no arithmetic on inf or NaN."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def operand(kind, batch):
    """The strategy of an operand of a kind with batch shape ``batch``; a
    complex one is drawn as pairs of floats on a trailing axis."""
    core, elements = OPERANDS[kind]
    return arrays(np.float64, batch + core + ((2,) if kind in COMPLEX else ()), elements=elements)


@st.composite
def variant_call(draw, kinds):
    """One stacked call of k = 2..4 variants of N = 1..5 samples: each
    operand either stacked (k, N, ...) or shared (N, ...) by every variant,
    at least one stacked.  Returns k, N and the (operand, is_stacked) pairs."""
    k, n = draw(st.integers(2, 4)), draw(st.integers(1, 5))
    flags = draw(st.lists(st.booleans(), min_size=len(kinds), max_size=len(kinds)).filter(any))
    operands = []
    for kind, is_stacked in zip(kinds, flags):
        x = draw(operand(kind, ((k,) if is_stacked else ()) + (n,)))
        operands.append(complex_from(x[..., 0], x[..., 1]) if kind in COMPLEX else x)
    return k, n, list(zip(operands, flags))


def terms(result):
    """A result as named arrays: a dict's items, a tuple's entries by
    position, or the one array."""
    if isinstance(result, dict):
        return result
    return dict(enumerate(result)) if isinstance(result, tuple) else {None: result}


def bits(x):
    """dtype, shape and bytes of an array with every NaN made the same NaN:
    the sign of a NaN from 0 / 0 depends on the machine loop that made it."""
    x = np.array(x)
    for part in (x.real, x.imag) if np.iscomplexobj(x) else (x,):
        part[np.isnan(part)] = np.nan
    return x.dtype, x.shape, x.tobytes()


def assert_row(got, stack, index):
    """Each term of a result equals its row ``index`` of the stacked result,
    bit for bit and of the same type (a point's row is a numpy scalar where
    the row is 0-d)."""
    got, stack = terms(got), terms(stack)
    assert list(got) == list(stack)
    for key, value in got.items():
        want = stack[key][index]
        assert type(value) is type(want)
        assert bits(value) == bits(want)


def check_row(name, k, n, pairs, form="indexed"):
    """(a) and (b) for one stacked call of row ``name``, the points in the
    point form ``form``."""
    fn, _ = row(name)
    point = POINT_FORMS[form]
    with np.errstate(all="ignore") if name in SINGULAR else contextlib.nullcontext():
        whole = fn(*(x for x, _ in pairs))
        for i in range(k):
            assert_row(fn(*[x[i] if on else x for x, on in pairs]), whole, i)        # (a)
            for j in range(n):
                assert_row(fn(*[point(x[i, j] if on else x[j]) for x, on in pairs]),  # (b)
                           whole, (i, j))


@pytest.mark.parametrize("name", list(STACKED))
@settings(max_examples=30)
@given(data=st.data())
def test_a_stack_equals_its_slices_and_points(name, data):
    call = data.draw(variant_call(row(name)[1]))
    check_row(name, *call, data.draw(st.sampled_from(list(POINT_FORMS)), label="form"))


# Points the draws seldom land on, as k = 2 variants of N = 3 samples:
# p = 0 (where the two bands cross), beta = 0 and both signs of beta (the two
# Rashba sectors) in one stack, gamma at the ends of its range, zero fields,
# and the angle pair (0.14224092203885907, twice), at which numpy's scalar
# complex product rounds Pi1[0, 1] to 0.4949504024674745 and its array loop
# to 0.49495040246747446.
EDGES = {
    "gamma": np.array([[0.0, 0.99, -0.99], [-0.5, 0.5, 0.0]]),
    "beta": np.array([[0.0, 1.5, -1.5], [4.0, -4.0, 0.0]]),
    "field": np.array([[0.0, 2.0, -2.0], [0.0, 0.0, 4.0]]),
    "p": np.array([[[0.0, 0.0], [3.0, -4.0], [-0.0, 5.0]],
                   [[1.5, 0.0], [0.0, 0.0], [-5.0, -5.0]]]),
    "a_vec": np.array([[[0.0, 0.0], [1.0, -1.0], [3.0, 0.0]],
                       [[0.0, -3.0], [0.0, 0.0], [-2.0, 2.0]]]),
    "shift": np.array([[[0.0, 0.0, 0.0], [1j, -1.0, 2.0 + 1j], [3.0, -3j, 0.0]],
                       [[-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [2j, 0.0, -2.0 - 2j]]]),
    "angle": np.array([[0.14224092203885907, 0.0, np.pi], [-np.pi / 2, 7.0, -7.0]]),
}


def check_edges(name):
    """(a) and (b) for row ``name`` on EDGES, each operand stacked, in every
    point form."""
    for form in POINT_FORMS:
        check_row(name, 2, 3, [(EDGES[kind], True) for kind in row(name)[1]], form)


def test_rashba():
    check_edges("rashba")


def test_magnetic():
    check_edges("magnetic")


def test_momentum_product():
    check_edges("momentum_product")


def test_projector_matrices():
    check_edges("projector_matrices")


def test_every_public_function_is_a_row_or_exempt():
    rows = {name.partition(".")[0] for name in STACKED}
    assert not rows & set(EXEMPT)
    assert sorted(rows | set(EXEMPT)) == sorted(FUNCTIONS)
    assert SINGULAR <= set(STACKED)


# The two input guards, each written once: multivector.deformation_omega
# refuses a gamma with |gamma| >= 1 or NaN, and multivector.in_plane an
# in-plane vector (a momentum or a gauge shift) of other than 2 components.
# (bad values, message) per guarded operand kind; an in-plane bad value is
# the length of the trailing axis.
GUARDS = {
    "gamma": ((1.0, -1.0, 1.2, np.nan), r"\|gamma\| < 1"),
    **dict.fromkeys(("p", "pair_p", "a_vec"), ((1, 3), "must have 2 components")),
}
GUARDED = [(name, kind, bad) for name in STACKED for kind in row(name)[1] if kind in GUARDS
           for bad in GUARDS[kind][0]]


@pytest.mark.parametrize("name, kind, bad", GUARDED)
def test_every_guarded_operand_refuses_a_bad_value(name, kind, bad):
    # zeros elsewhere: three samples, the bad value in the second
    fn, kinds = row(name)
    operands = [np.zeros((3,) + OPERANDS[k][0], complex if k in COMPLEX else float) for k in kinds]
    position = kinds.index(kind)
    if kind == "gamma":
        operands[position][1] = bad
    else:
        operands[position] = np.zeros(operands[position].shape[:-1] + (bad,))
    # the stack with its bad row, and that row alone
    for call in (operands, [x[1] for x in operands]):
        with pytest.raises(ValueError, match=GUARDS[kind][1]):
            fn(*call)


# A library function stacks its variants behind its callers' batch axes.
# Size 2 is where a stack on a leading axis would line up with gamma instead;
# the single-gamma calls give their row, with the same bits.
VARIANT_FAMILIES = {
    "flip_relations": lambda g, b, p: flip_relations(g, p),
    "kramers_pairing": lambda g, b, p: kramers_pairing(g, p),
    "noncommutation_witness": lambda g, b, p: {"witness": noncommutation_witness(g, b, p)},
}


@pytest.mark.parametrize("name", list(VARIANT_FAMILIES))
def test_variants_line_up_behind_the_batch_axes(name):
    family = VARIANT_FAMILIES[name]
    gamma, p = np.array([0.3, -0.6]), np.array([1.0, -2.0])
    terms = family(gamma, 0.8, p)
    singles = [family(g, 0.8, p) for g in gamma]
    for term, value in terms.items():
        assert value.shape[:1] == (2,)
        for got, single in zip(value, singles):
            assert got.tobytes() == single[term].tobytes()


# ------------------------------------------------------------ mat2, stacked

def mat2_oracle(a, b, c, d):
    """The form mat2 replaced: broadcast, stack on a last axis, reshape."""
    entries = np.broadcast_arrays(*(np.asarray(x, dtype=complex) for x in (a, b, c, d)))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2))


def entries_with(shape):
    special = st.sampled_from([np.inf, -np.inf, np.nan, -0.0])
    value = st.one_of(st.floats(-1e300, 1e300), special)
    return st.one_of(
        value,                                                     # Python float
        st.builds(complex, value, value),                          # Python complex
        arrays(np.float64, shape, elements=value),
        st.tuples(arrays(np.float64, shape, elements=value),
                  arrays(np.float64, shape, elements=value)).map(lambda z: complex_from(*z)),
    )


@settings(max_examples=200)
@given(st.sampled_from([(), (1,), (3,), (2, 3)]).flatmap(
    lambda shape: st.tuples(*(entries_with(shape) for _ in range(4)))))
def test_mat2_equals_the_broadcast_stack(entries):
    got, want = mat2(*entries), mat2_oracle(*entries)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_mat2_broadcasts_mixed_shapes():
    got = mat2(np.arange(3.0), 1.0, np.array([[2j], [3j]]), np.nan)
    want = mat2_oracle(np.arange(3.0), 1.0, np.array([[2j], [3j]]), np.nan)
    assert got.shape == (2, 3, 2, 2) and got.tobytes() == want.tobytes()


@settings(max_examples=50)
@given(st.sampled_from([(), (1,), (3,), (2, 3)]).flatmap(
    lambda shape: st.lists(entries_with(shape), min_size=1, max_size=4)), st.data())
def test_stacked_equals_np_stack(parts, data):
    axis = data.draw(st.integers(-np.broadcast(*parts).ndim - 1, -1))
    got, want = stacked(parts, axis), np.stack(np.broadcast_arrays(*parts), axis=axis)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
