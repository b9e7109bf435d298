"""Batched entry points on an (N, ...) stack equal the stack of their N = 1
calls, to within 1e-14 of the operands' scale."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bispinor.biortho import canonical_pair, synthesize_generators
from bispinor.ideal import build_ideal_basis, c1_form, c2_form, ideal_components, ideal_matrix
from bispinor.momenta import (
    cached_generators,
    clifford_momentum,
    magnetic,
    momentum_product,
    rashba,
)
from bispinor.multivector import (
    MATRIX_INVOLUTIONS,
    Multivector,
    decompose,
    deformed_generators,
    from_matrix,
    geometric_product,
    involute,
    time_reverse_matrix,
    to_matrix,
)
from bispinor.spectrum import (
    eigen_amplitudes,
    eigensystem,
    eigenvalue_oracle,
    eigenvalues,
    mixture_expectation,
    phi_angles,
    projector_matrices,
    spin_expectations,
)
from bispinor.susy import supercharges
from bispinor.timereversal import (
    generator_reversal,
    kramers_pairing,
    pseudo_adjoint,
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
    """(gamma, beta, p) stacks and the scale of the Hamiltonian entries."""
    n = draw(sizes)
    g = draw(stack((n,), -0.95, 0.95))
    b = draw(stack((n,), 0.1, 4.0))
    p = draw(stack((n, 2), -5.0, 5.0))
    scale = (1.0 + np.abs(p).max() + b.max()) ** 2 / (1.0 - np.abs(g).max() ** 2)
    return g, b, p, scale


@EXAMPLES
@given(sizes.flatmap(lambda n: st.tuples(stack((n, 8), -10, 10), stack((n, 8), -10, 10))))
def test_geometric_product(ab):
    a, b = ab
    singles = [geometric_product(Multivector(x), Multivector(y)).as_array() for x, y in zip(a, b)]
    assert_stacked(geometric_product(a, b), singles, 8 * (1 + np.abs(a).max()) * (1 + np.abs(b).max()))


@EXAMPLES
@given(sizes.flatmap(lambda n: stack((n, 8), -10, 10)))
def test_to_matrix_and_decompose(a):
    m = to_matrix(a)
    assert_stacked(m, [to_matrix(Multivector(x)) for x in a], 8 * (1 + np.abs(a).max()))
    assert_stacked(decompose(m), [from_matrix(x).as_array() for x in m], 8 * (1 + np.abs(a).max()))


@EXAMPLES
@given(sizes.flatmap(lambda n: stack((n, 8), -10, 10)))
def test_involute(a):
    for kind in MATRIX_INVOLUTIONS:
        singles = [involute(Multivector(x), kind).as_array() for x in a]
        assert_stacked(involute(a, kind), singles, 1 + np.abs(a).max())


@EXAMPLES
@pytest.mark.parametrize("n", [1, 2])
@given(data=st.data())
def test_time_reverse_matrix(n, data):
    m = data.draw(sizes.flatmap(lambda k: complex_stack((k, 2 * n, 2 * n))))
    assert_stacked(time_reverse_matrix(m), [time_reverse_matrix(x) for x in m], 1.0)


@EXAMPLES
@given(sizes.flatmap(lambda n: stack((n,), -0.99, 0.99)))
def test_generator_formula(g):
    singles = [cached_generators(float(x)) for x in g]
    assert_stacked(deformed_generators(g), singles, 1.0 / (1.0 - np.abs(g).max() ** 2))


@EXAMPLES
@given(rashba_inputs(), st.data())
def test_clifford_momentum_and_product(inputs, data):
    g, b, p, scale = inputs
    left, right = (data.draw(complex_stack(p.shape[:1] + (3,), 2.0)) for _ in range(2))
    zeeman = data.draw(stack(b.shape, -2.0, 2.0))
    singles = [clifford_momentum(x, s, q) for x, s, q in zip(g, left, p)]
    assert_stacked(clifford_momentum(g, left, p), singles, scale)
    singles = [momentum_product(x, l, r, q, z) for x, l, r, q, z in zip(g, left, right, p, zeeman)]
    assert_stacked(momentum_product(g, left, right, p, zeeman), singles, 4 * scale)


@EXAMPLES
@given(rashba_inputs())
def test_rashba_evaluate(inputs):
    g, b, p, scale = inputs
    for sign in (1, -1):
        singles = [rashba(x, y, q, sign=sign) for x, y, q in zip(g, b, p)]
        assert_stacked(rashba(g, b, p, sign=sign), singles, scale)


@EXAMPLES
@given(rashba_inputs(), st.data())
def test_magnetic_evaluate(inputs, data):
    g, b, p, scale = inputs
    a_vec = data.draw(stack(p.shape, -2.0, 2.0))
    b3 = data.draw(stack(b.shape, -2.0, 2.0))
    for branch in (1, -1):
        singles = [magnetic(*args, branch=branch) for args in zip(g, b, a_vec, b3, p)]
        assert_stacked(magnetic(g, b, a_vec, b3, p, branch=branch), singles, 4 * scale)


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
    batched = pseudo_adjoint(rashba(g, b, -p))
    singles = [pseudo_adjoint(rashba(x, y, -q)) for x, y, q in zip(g, b, p)]
    assert_stacked(batched, singles, scale)


@EXAMPLES
@given(rashba_inputs())
def test_supercharges(inputs):
    g, b, p, scale = inputs
    batched = np.stack(supercharges(g, b, p), axis=1)
    singles = [np.stack(supercharges(x, y, q)) for x, y, q in zip(g, b, p)]
    assert_stacked(batched, singles, scale)


@EXAMPLES
@given(sizes.flatmap(lambda n: complex_stack((n, 2))))
def test_spinor_maps(a):
    scale = 1.0 + np.abs(a).max()
    assert_stacked(reverse_amplitudes(a), [reverse_amplitudes(x) for x in a], 1.0)
    assert_stacked(spin_expectations(a), [spin_expectations(x) for x in a], scale ** 2)
    assert_stacked(ideal_components(a), [ideal_components(x) for x in a], 1.0)


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
    batched = kramers_pairing(g, b, p)
    singles = [kramers_pairing(x, y, q) for x, y, q in zip(g, b, p)]
    for field in ("n_plus", "n_minus"):
        assert np.array_equal(getattr(batched, field), [getattr(s, field) for s in singles])
    for field in ("residual", "same_p_residual", "flipped_p_residual"):
        assert_stacked(getattr(batched, field), [getattr(s, field) for s in singles], scale)


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
    batched = build_ideal_basis(g)
    singles = [build_ideal_basis(float(x)) for x in g]
    for name in ("g0", "g1", "g2", "g3"):
        assert_stacked(getattr(batched, name), [getattr(s, name) for s in singles], 0.0)


@EXAMPLES
@given(gamma_stacks)
def test_generator_synthesis(g):
    theta = np.arcsin(g)
    batched = np.stack(synthesize_generators(canonical_pair(theta)), axis=-3)
    singles = [synthesize_generators(canonical_pair(float(x))) for x in theta]
    assert_stacked(batched, singles, 0.0)


@EXAMPLES
@given(rashba_inputs())
def test_reversed_schrodinger_check(inputs):
    g, b, p, scale = inputs
    batched = reversed_schrodinger_residual(g, b, p)
    singles = [reversed_schrodinger_residual(float(x), float(y), q) for x, y, q in zip(g, b, p)]
    assert_stacked(batched, singles, scale)


def test_reversed_schrodinger_check_marks_nonfinite_rows():
    p = np.array([[1.0, 0.5], [1e160, 1e160], [0.3, -2.0]])
    with np.errstate(all="ignore"):
        r = reversed_schrodinger_residual(0.4, 1.0, p)
    assert r[1] == np.inf
    assert np.all(r[[0, 2]] < 1e-12)


@pytest.mark.parametrize("wave_sign", [1, -1])
@EXAMPLES
@given(rashba_inputs())
def test_eigensystem_is_single_point_view(wave_sign, inputs):
    g, b, p, _ = inputs
    for x, y, q in zip(g, b, p):
        if not q.any():
            continue                  # no eigensystem at p = 0
        got = eigensystem(x, y, q, wave_sign).amplitudes
        want = eigen_amplitudes(*phi_angles(x, wave_sign * q))
        assert got.tobytes() == want.tobytes()


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
