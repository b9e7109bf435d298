import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bispinor import multivector
from bispinor.multivector import (
    BASIS_NAMES,
    E13,
    GRADES,
    MATRIX_INVOLUTIONS,
    PAULI,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    clifford_conjugation_matrix,
    decompose,
    deformation_omega,
    deformation_transform,
    deformed_generators,
    geometric_product,
    involute,
    time_reverse_matrix,
    to_matrix,
)

from conftest import TOL, assert_small


coeff_lists = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    min_size=8, max_size=8,
)


# The matrix of each basis blade in storage order, written out by hand:
# 1, sigma_1, sigma_2, sigma_3, e12 = i sigma_3, e23 = i sigma_1,
# e31 = i sigma_2 and e123 = i.
BASIS_MATRICES = (np.eye(2), SIGMA1, SIGMA2, SIGMA3,
                  1j * SIGMA3, 1j * SIGMA1, 1j * SIGMA2, 1j * np.eye(2))


def mv(name):
    """The (8,) coefficient array of one basis blade."""
    return np.eye(8)[BASIS_NAMES.index(name)]


def test_vector_squares_to_one():
    for name in ("e1", "e2", "e3"):
        assert np.array_equal(geometric_product(mv(name), mv(name)), mv("1"))


def test_cayley_table_is_the_decoded_pauli_product():
    # the table built from the defining relations equals the products of
    # the blades' Pauli matrices, decoded
    blades = to_matrix(np.eye(8))
    assert np.array_equal(multivector._CAYLEY,
                          np.round(decompose(blades[:, None] @ blades[None, :])))


def test_bivector_anticommutation():
    assert np.array_equal(geometric_product(mv("e1"), mv("e2")), mv("e12"))
    assert np.array_equal(geometric_product(mv("e2"), mv("e1")), -mv("e12"))


def test_idempotent_style_product_vanishes():
    a = mv("1") + mv("e1")
    b = mv("1") - mv("e1")
    assert np.abs(geometric_product(a, b)).max() == 0.0
    # cross-check against the matrix representation
    assert np.abs(to_matrix(a) @ to_matrix(b)).max() == 0.0


def test_matrix_rep_of_blades():
    assert np.array_equal(to_matrix(mv("e3")), np.diag([1.0 + 0j, -1.0]))
    assert np.abs(to_matrix(mv("e123")) - 1j * np.eye(2)).max() == 0.0
    # e123 representative agrees with the product of the Pauli matrices
    assert np.abs(SIGMA1 @ SIGMA2 @ SIGMA3 - 1j * np.eye(2)).max() == 0.0


def test_matrix_round_trip_random():
    a = np.random.default_rng(11).uniform(-5, 5, size=(100, 8))
    assert_small(decompose(to_matrix(a)) - a, TOL)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists)
def test_product_homomorphism(ca, cb):
    a, b = np.array(ca), np.array(cb)
    lhs = to_matrix(geometric_product(a, b))
    rhs = to_matrix(a) @ to_matrix(b)
    scale = max(1.0, np.abs(rhs).max())
    assert_small(lhs - rhs, TOL * scale)


def test_grade_projection_reassembles():
    rng = np.random.default_rng(3)
    a = rng.uniform(-2, 2, size=8)
    total = sum(np.where(np.equal(GRADES, k), a, 0.0) for k in range(4))
    assert np.array_equal(total, a)


def test_involution_sign_tables():
    assert np.array_equal(involute(mv("e12"), "reversion"), -mv("e12"))
    for kind in MATRIX_INVOLUTIONS:
        assert np.array_equal(involute(mv("1"), kind), mv("1"))
    assert np.array_equal(involute(mv("e1"), "grade_inversion"), -mv("e1"))
    assert np.array_equal(involute(mv("e123"), "clifford_conjugation"), mv("e123"))


def test_clifford_conjugation_matrix_form():
    rng = np.random.default_rng(5)
    u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    got = clifford_conjugation_matrix(u)
    want = np.array([[u[1, 1], -u[0, 1]], [-u[1, 0], u[0, 0]]])
    assert np.abs(got - want).max() == 0.0


def test_involutions_match_matrix_forms():
    a = np.random.default_rng(7).uniform(-3, 3, size=(20, 8))
    for kind, matrix_form in MATRIX_INVOLUTIONS.items():
        assert_small(to_matrix(involute(a, kind)) - matrix_form(to_matrix(a)), TOL)


def test_involutions_are_involutive_and_morphisms():
    a, b = np.moveaxis(np.random.default_rng(9).uniform(-3, 3, size=(20, 2, 8)), 1, 0)
    ab = geometric_product(a, b)
    for kind in MATRIX_INVOLUTIONS:
        assert_small(involute(involute(a, kind), kind) - a, TOL)
        if kind == "grade_inversion":
            want = geometric_product(involute(a, kind), involute(b, kind))
        else:
            want = geometric_product(involute(b, kind), involute(a, kind))
        assert_small(involute(ab, kind) - want, TOL)


def test_unknown_involution_rejected():
    with pytest.raises(ValueError):
        involute(mv("e1"), "transpose")


def test_deformed_basis_gamma_zero_is_pauli():
    assert_small(deformed_generators(0.0) - np.array(BASIS_MATRICES), TOL)


def test_to_matrix_unit_blades():
    assert np.array_equal(to_matrix(np.eye(8)), np.array(BASIS_MATRICES))


@given(st.lists(st.floats(min_value=-1 + 1e-3, max_value=1 - 1e-3), min_size=1, max_size=8))
def test_blades_are_i_times_vectors(gammas):
    # e12, e23, e31, e123 = i (e3, e1, e2, 1) of the same stack, exactly; the
    # bytes differ only in signed zeros: 1j * (-1+0j) has real part -0.0
    e = deformed_generators(np.array(gammas))
    assert np.array_equal(e[:, 4:], 1j * e[:, [3, 1, 2, 0]])


def test_deformed_sigma3_printed_matrix():
    want = np.array([[1.25, 0.75j], [0.75j, -1.25]])
    assert_small(deformed_generators(0.6)[3] - want, TOL)


def test_deformed_sigma1_printed_matrix():
    g = 0.6
    w = 0.8
    generators = deformed_generators(g)
    want = np.array([[-1j * g, 1.0], [1.0, 1j * g]]) / w
    assert_small(generators[1] - want, TOL)
    assert_small(generators[2] - SIGMA2, TOL)


def test_deformed_vectors_square_to_identity():
    e = deformed_generators(np.random.default_rng(21).uniform(-0.99, 0.99, size=50))[:, 1:4]
    assert_small(e @ e - np.eye(2), TOL)


def test_clifford_relations_on_gamma_grid():
    e = deformed_generators(np.linspace(-0.95, 0.95, 13))[:, 1:4]
    anti = e[:, :, None] @ e[:, None, :] + e[:, None, :] @ e[:, :, None]
    assert_small(anti - 2.0 * np.eye(3)[:, :, None, None] * np.eye(2), TOL)


def test_deformed_adjoint_mirrors_gamma():
    g = np.array([0.25, -0.7, 0.9])
    plus, minus = deformed_generators(g)[:, 1:4], deformed_generators(-g)[:, 1:4]
    assert_small(np.swapaxes(plus.conj(), -1, -2) - minus, TOL)


def test_time_reverse_matrix_is_e13_conjugation():
    rng = np.random.default_rng(41)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    want = E13 @ np.conj(m) @ np.linalg.inv(E13)
    assert_small(time_reverse_matrix(m) - want, TOL)


@given(hnp.arrays(float, hnp.array_shapes(max_dims=2).map(lambda s: s + (8,)),
                  elements=st.floats(-10, 10)),
       st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
def test_time_reversal_is_grade_inversion_at_mirrored_gamma(a, gamma):
    # the identity that lets time_reverse_matrix stand for grade inversion,
    # at every gamma, not only the gamma = 0 the registry draws at
    assert np.array_equal(time_reverse_matrix(to_matrix(a, gamma)),
                          to_matrix(involute(a, "grade_inversion"), -gamma))


def test_deformation_transform_reproduces_generators():
    for g in (0.0, 0.3, -0.8):
        t = deformation_transform(g)
        t_inv = np.linalg.inv(t)
        assert_small(t @ PAULI @ t_inv - deformed_generators(g)[1:4], TOL)
        # the witness is Hermitian with determinant omega
        assert_small(t - t.conj().T, TOL)
        assert_small(np.linalg.det(t) - deformation_omega(g), TOL)


@given(st.lists(st.floats(min_value=-1 + 1e-3, max_value=1 - 1e-3), min_size=1, max_size=8))
def test_closed_form_generators_are_the_similarity_images(gammas):
    # e_m = T sigma_m T^-1 with T^-1 from a general inverse, to within 1e-14
    # of the operand scale 1/omega^2 (the conditioning of T as |gamma| -> 1)
    g = np.array(gammas)
    t = deformation_transform(g)[:, None]
    want = t @ PAULI @ np.linalg.inv(t)
    scale = 1.0 / (1.0 - g * g)[:, None, None, None]
    assert_small(deformed_generators(g)[:, 1:4] - want, 1e-14 * scale)


def test_e13_blade_matrix():
    e13 = to_matrix(-mv("e31"))
    assert np.abs(e13 - E13).max() == 0.0


def test_basis_names_order():
    assert BASIS_NAMES == ("1", "e1", "e2", "e3", "e12", "e23", "e31", "e123")
