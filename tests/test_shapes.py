"""Batched entry points on an (N, ...) stack equal the stack of their N = 1
calls, to within 1e-14 of the operands' scale."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bispinor.biortho import synthesize_generators
from bispinor.harness.checks import worst_term
from bispinor.ideal import build_ideal_basis, c1_form, c2_form, ideal_matrix
from bispinor.momenta import (
    clifford_momentum,
    magnetic,
    momentum_product,
    rashba,
)
from bispinor.multivector import (
    MATRIX_INVOLUTIONS,
    clifford_conjugation_matrix,
    decompose,
    deformed_generators,
    geometric_product,
    involute,
    time_reverse_matrix,
    to_matrix,
)
from bispinor.spectrum import (
    eigen_amplitudes,
    eigenvalue_oracle,
    eigenvalues,
    mixture_expectation,
    phi_angles,
    projector_matrices,
    spin_expectations,
)
from bispinor.timereversal import (
    generator_reversal,
    kramers_pairing,
    reversed_schrodinger_residual,
    reverse_amplitudes,
)

EPS = 1e-14
EXAMPLES = settings(max_examples=40)

sizes = st.integers(1, 5)


def reals(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def stack(shape, lo, hi):
    return arrays(np.float64, shape, elements=reals(lo, hi))


def complex_stack(shape, bound=5.0):
    return stack(shape + (2,), -bound, bound).map(lambda z: z[..., 0] + 1j * z[..., 1])


def assert_stacked(batched, singles, scale):
    singles = np.array(singles)
    assert np.shape(batched) == singles.shape
    assert np.all(np.abs(batched - singles) <= EPS * scale)


@st.composite
def rashba_inputs(draw):
    """(gamma, beta, p) stacks and the scale of the Hamiltonian entries; beta
    takes both signs, |beta| in [0.1, 4], so both Rashba sectors are drawn."""
    n = draw(sizes)
    g = draw(stack((n,), -0.95, 0.95))
    signs = draw(arrays(np.float64, (n,), elements=st.sampled_from([1.0, -1.0])))
    b = draw(stack((n,), 0.1, 4.0)) * signs
    p = draw(stack((n, 2), -5.0, 5.0))
    scale = (1.0 + np.abs(p).max() + np.abs(b).max()) ** 2 / (1.0 - np.abs(g).max() ** 2)
    return g, b, p, scale


@EXAMPLES
@given(sizes.flatmap(lambda n: st.tuples(stack((n, 8), -10, 10), stack((n, 8), -10, 10))))
def test_geometric_product(ab):
    a, b = ab
    singles = [geometric_product(x, y) for x, y in zip(a, b)]
    assert_stacked(geometric_product(a, b), singles, 8 * (1 + np.abs(a).max()) * (1 + np.abs(b).max()))


@EXAMPLES
@given(sizes.flatmap(lambda n: stack((n, 8), -10, 10)))
def test_to_matrix_and_decompose(a):
    m = to_matrix(a)
    assert_stacked(m, [to_matrix(x) for x in a], 8 * (1 + np.abs(a).max()))
    assert_stacked(decompose(m), [decompose(x) for x in m], 8 * (1 + np.abs(a).max()))


@EXAMPLES
@given(sizes.flatmap(lambda n: stack((n, 8), -10, 10)))
def test_involute(a):
    for kind in MATRIX_INVOLUTIONS:
        singles = [involute(x, kind) for x in a]
        assert_stacked(involute(a, kind), singles, 1 + np.abs(a).max())


@EXAMPLES
@pytest.mark.parametrize("n", [1])
@given(data=st.data())
def test_time_reverse_matrix(n, data):
    m = data.draw(sizes.flatmap(lambda k: complex_stack((k, 2 * n, 2 * n))))
    assert_stacked(time_reverse_matrix(m), [time_reverse_matrix(x) for x in m], 1.0)


@EXAMPLES
@given(sizes.flatmap(lambda n: stack((n,), -0.99, 0.99)))
def test_generator_formula(g):
    singles = [deformed_generators(float(x)) for x in g]
    assert_stacked(deformed_generators(g), singles, 1.0 / (1.0 - np.abs(g).max() ** 2))


@EXAMPLES
@given(rashba_inputs(), st.data())
def test_clifford_momentum_and_product(inputs, data):
    g, b, p, scale = inputs
    left, right = (data.draw(complex_stack(p.shape[:1] + (3,), 2.0)) for _ in range(2))
    singles = [clifford_momentum(x, s, q) for x, s, q in zip(g, left, p)]
    assert_stacked(clifford_momentum(g, left, p), singles, scale)
    singles = [momentum_product(x, l, r, q) for x, l, r, q in zip(g, left, right, p)]
    assert_stacked(momentum_product(g, left, right, p), singles, 4 * scale)


@EXAMPLES
@given(rashba_inputs())
def test_rashba_evaluate(inputs):
    g, b, p, scale = inputs
    singles = [rashba(x, y, q) for x, y, q in zip(g, b, p)]
    assert_stacked(rashba(g, b, p), singles, scale)


@EXAMPLES
@given(rashba_inputs(), st.data())
def test_magnetic_evaluate(inputs, data):
    g, b, p, scale = inputs
    a_vec = data.draw(stack(p.shape, -2.0, 2.0))
    b3 = data.draw(stack(b.shape, -2.0, 2.0))
    singles = [magnetic(*args) for args in zip(g, b, a_vec, b3, p)]
    assert_stacked(magnetic(g, b, a_vec, b3, p), singles, 4 * scale)


@EXAMPLES
@given(rashba_inputs())
def test_eigenvalues_and_angles(inputs):
    g, b, p, scale = inputs
    assert_stacked(np.array(eigenvalues(b, p)).T,
                   [eigenvalues(y, q) for y, q in zip(b, p)], scale)
    batched = np.array(phi_angles(g, p)).T
    singles = np.array([phi_angles(x, q) for x, q in zip(g, p)])
    # angles are compared modulo 2 pi
    assert_stacked(np.angle(np.exp(1j * (batched - singles))), np.zeros_like(singles), 10.0)


@EXAMPLES
@given(rashba_inputs())
def test_eigenvalue_oracle(inputs):
    g, b, p, scale = inputs
    h = rashba(g, b, p)
    assert_stacked(np.array(eigenvalue_oracle(h)).T,
                   [eigenvalue_oracle(x) for x in h], scale)


@EXAMPLES
@given(rashba_inputs())
def test_pseudo_adjoint(inputs):
    g, b, p, scale = inputs
    batched = clifford_conjugation_matrix(rashba(g, b, -p))
    singles = [clifford_conjugation_matrix(rashba(x, y, -q)) for x, y, q in zip(g, b, p)]
    assert_stacked(batched, singles, scale)


@EXAMPLES
@given(sizes.flatmap(lambda n: complex_stack((n, 2))))
def test_spinor_maps(a):
    scale = 1.0 + np.abs(a).max()
    assert_stacked(reverse_amplitudes(a), [reverse_amplitudes(x) for x in a], 1.0)
    assert_stacked(spin_expectations(a), [spin_expectations(x) for x in a], scale ** 2)


@EXAMPLES
@given(sizes.flatmap(lambda n: st.tuples(complex_stack((n, 2)), complex_stack((n, 2)))))
def test_ideal_forms(ab):
    a, b = ideal_matrix(ab[0]), ideal_matrix(ab[1])
    scale = (1.0 + np.abs(a).max()) * (1.0 + np.abs(b).max())
    for form in (c1_form, c2_form):
        assert_stacked(form(a, b), [form(x, y) for x, y in zip(a, b)], scale)


@EXAMPLES
@given(rashba_inputs())
def test_projectors_and_expectation(inputs):
    g, b, p, scale = inputs
    # away from p = 0 the pair is regular, |e^{i phi+} + e^{i phi-}| >= 2 omega,
    # so its entries stay below scale; at p = 0 the angles degenerate
    p = np.where(np.hypot(p[:, :1], p[:, 1:]) < 1e-2, 1.0, p)
    fp, fm = phi_angles(g, p)
    pi1, pi2, den = projector_matrices(fp, fm)
    singles = [projector_matrices(x, y) for x, y in zip(fp, fm)]
    assert_stacked(np.stack((pi1, pi2), axis=1), [np.stack(s[:2]) for s in singles], scale)
    assert_stacked(den, [s[2] for s in singles], 1.0)
    amps = eigen_amplitudes(fp, fm)
    h = rashba(g, b, p)
    assert_stacked(mixture_expectation(0.6, 0.8j, h, amps),
                   [mixture_expectation(0.6, 0.8j, k, x) for k, x in zip(h, amps)], scale)


@EXAMPLES
@given(rashba_inputs())
def test_kramers_pairing(inputs):
    g, b, p, scale = inputs
    terms = kramers_pairing(g, b, p)
    singles = [kramers_pairing(x, y, q) for x, y, q in zip(g, b, p)]
    assert list(terms) == ["dual_matching", "orthogonality", "eigen_identity"]
    for name in terms:
        assert_stacked(terms[name], [s_terms[name] for s_terms in singles], scale)


gamma_stacks = sizes.flatmap(lambda n: stack((n,), -0.99, 0.99))


@EXAMPLES
@given(gamma_stacks)
def test_generator_reversal(g):
    batched = generator_reversal(g)
    singles = [generator_reversal(float(x)) for x in g]
    for name in ("vector_rule", "listed_set"):
        assert_stacked(batched[name], [s[name] for s in singles], 0.0)


@EXAMPLES
@given(gamma_stacks)
def test_ideal_basis(g):
    assert_stacked(build_ideal_basis(g), [build_ideal_basis(float(x)) for x in g], 0.0)


@EXAMPLES
@given(gamma_stacks)
def test_generator_synthesis(g):
    assert_stacked(synthesize_generators(g),
                   [synthesize_generators(float(x)) for x in g], 0.0)


@EXAMPLES
@given(rashba_inputs())
def test_reversed_schrodinger_check(inputs):
    g, b, p, scale = inputs
    batched = reversed_schrodinger_residual(g, b, p)
    singles = [reversed_schrodinger_residual(float(x), float(y), q) for x, y, q in zip(g, b, p)]
    assert_stacked(batched, singles, scale)


def test_reversed_schrodinger_check_marks_nonfinite_rows():
    # the overflowing row stays non-finite; the registry's reducer reads it as inf
    p = np.array([[1.0, 0.5], [1e160, 1e160], [0.3, -2.0]])
    with np.errstate(all="ignore"):
        r = reversed_schrodinger_residual(0.4, 1.0, p)
    assert not np.isfinite(r[1])
    assert worst_term({"reversed_eigen_identity": r}) == (np.inf, "reversed_eigen_identity")
    assert np.all(r[[0, 2]] < 1e-12)


@EXAMPLES
@given(reals(-4.0, 4.0), reals(-4.0, 4.0))
# numpy's scalar complex product rounded Pi1[0, 1] to 0.4949504024674745 here,
# its array loop to 0.49495040246747446
@example(0.14224092203885907, 0.14224092203885907)
def test_single_point_projectors_equal_the_one_element_stack(phi_plus, phi_minus):
    single = projector_matrices(phi_plus, phi_minus)
    stacked = projector_matrices(np.array([phi_plus]), np.array([phi_minus]))
    assert single[0].shape == (2, 2) and np.shape(single[2]) == ()
    for got, want in zip(single, stacked):
        assert got.tobytes() == want[0].tobytes()
