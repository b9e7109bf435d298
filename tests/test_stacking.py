"""Variants stacked on a new leading axis give the same bits as separate calls.

The registry evaluates each family of operator variants -- H at (gamma, p)
and (-gamma, -p), P^B and P^A, the two magnetic field conventions, ... --
with one call over a stack.  Each slice of a stacked call must equal its
separate call bit for bit (``tobytes``), not to a tolerance.  Every variant
here holds N >= 1 samples, so both sides run numpy's array loops; a 0-d
input would take numpy's scalar path, which rounds complex products
differently (see the projector_matrices single-point test in
test_shapes.py).  ``mat2`` is also held to the broadcast-and-stack form it
replaced, scalar entries and inf/NaN included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bispinor.momenta import clifford_momentum, magnetic, momentum_product, rashba
from bispinor.multivector import mat2, to_matrix
from bispinor.spectrum import eigen_amplitudes, flip_relations, phi_angles
from bispinor.timereversal import kramers_pairing, noncommutation_witness

EXAMPLES = settings(max_examples=60)


def reals(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# (core shape, sampler) per operand kind; complex operands are drawn as pairs
OPERANDS = {
    "gamma": ((), reals(-0.99, 0.99)),
    "beta": ((), reals(-4.0, 4.0)),
    "field": ((), reals(-4.0, 4.0)),
    "p": ((2,), reals(-5.0, 5.0)),
    "a_vec": ((2,), reals(-3.0, 3.0)),
    "coeffs": ((8,), reals(-10.0, 10.0)),
    "shift": ((3,), reals(-3.0, 3.0)),
    "angle": ((), reals(-7.0, 7.0)),
}
COMPLEX = {"shift"}


def complex_from(re, im):
    """re + i im entry by entry, with no arithmetic on inf or NaN."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


@st.composite
def variant_call(draw, kinds, shared=True):
    """Operands for one stacked call of k = 2..4 variants of N = 1..5
    samples: each operand is either stacked (k, N, ...) or, if ``shared``,
    possibly shared (N, ...) by every variant, at least one stacked.
    Returns the stacked call's operands and each variant's own."""
    k, n = draw(st.integers(2, 4)), draw(st.integers(1, 5))
    stacked = draw(st.lists(st.booleans() if shared else st.just(True),
                            min_size=len(kinds), max_size=len(kinds)).filter(any))
    operands = []
    for kind, is_stacked in zip(kinds, stacked):
        core, elements = OPERANDS[kind]
        shape = ((k,) if is_stacked else ()) + (n,) + core
        x = draw(arrays(np.float64, shape + ((2,) if kind in COMPLEX else ()),
                        elements=elements))
        operands.append((complex_from(x[..., 0], x[..., 1]) if kind in COMPLEX else x,
                         is_stacked))
    parts = [[x[i] if is_stacked else x for x, is_stacked in operands] for i in range(k)]
    return [x for x, _ in operands], parts


def assert_slices_equal(stacked, separate):
    """Each slice of a stacked result (or tuple of results) equals its
    separate call, bit for bit."""
    if isinstance(stacked, tuple):
        for j, out in enumerate(stacked):
            assert_slices_equal(out, [parts[j] for parts in separate])
        return
    assert len(stacked) == len(separate)
    for piece, want in zip(stacked, separate):
        assert piece.shape == want.shape and piece.tobytes() == want.tobytes()


def check_stacking(fn, call):
    operands, parts = call
    assert_slices_equal(fn(*operands), [fn(*part) for part in parts])


@EXAMPLES
@given(variant_call(["coeffs", "gamma"]))
def test_to_matrix(call):
    check_stacking(to_matrix, call)


@EXAMPLES
@given(variant_call(["gamma", "shift", "p"]))
def test_clifford_momentum(call):
    check_stacking(clifford_momentum, call)


@EXAMPLES
@given(variant_call(["gamma", "shift", "shift", "p"]))
def test_momentum_product(call):
    check_stacking(momentum_product, call)


# beta spans [-4, 4]: a stack over beta holds both Rashba sectors
@EXAMPLES
@given(variant_call(["gamma", "beta", "p"]))
def test_rashba(call):
    check_stacking(rashba, call)


@EXAMPLES
@given(variant_call(["gamma", "beta", "a_vec", "field", "p"]))
def test_magnetic(call):
    check_stacking(magnetic, call)


@EXAMPLES
@given(variant_call(["gamma", "p"]))
def test_phi_angles(call):
    check_stacking(phi_angles, call)


@EXAMPLES
@given(variant_call(["angle", "angle"]))
def test_eigen_amplitudes(call):
    check_stacking(eigen_amplitudes, call)


# A library function stacks its variants behind its callers' batch axes.
# Size 2 is where a stack on a leading axis would line up with gamma instead;
# the single-gamma calls are 0-d and still give the same bits.
VARIANT_FAMILIES = {
    "flip_relations": lambda g, b, p: flip_relations(g, p),
    "kramers_pairing": kramers_pairing,
    "noncommutation_witness": lambda g, b, p: {"witness": noncommutation_witness(g, b, p)},
}


@pytest.mark.parametrize("name", list(VARIANT_FAMILIES))
def test_variants_line_up_behind_the_batch_axes(name):
    family = VARIANT_FAMILIES[name]
    gamma, p = np.array([0.3, -0.6]), np.array([1.0, -2.0])
    terms = family(gamma, 0.8, p)
    singles = [family(g, 0.8, p) for g in gamma]
    for term, value in terms.items():
        assert value.shape == (2,)
        for got, single in zip(value, singles):
            assert got.tobytes() == single[term].tobytes()


# ------------------------------------------------------------------- mat2

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
