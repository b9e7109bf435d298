import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispinor.multivector import (
    BASIS_NAMES,
    E13,
    MATRIX_INVOLUTIONS,
    PAULI,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    Multivector,
    clifford_conjugation_matrix,
    deformation_omega,
    deformation_transform,
    deformed_generators,
    from_matrix,
    geometric_product,
    involute,
    time_reverse_matrix,
    to_matrix,
)
from bispinor.momenta import build_linearization, cached_generators, magnetic, rashba
from bispinor.spectrum import eigensystem, phi_angles

TOL = 1e-12

coeff_lists = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    min_size=8, max_size=8,
)


def mv(name):
    return Multivector.blade(name)


def test_vector_squares_to_one():
    for name in ("e1", "e2", "e3"):
        prod = geometric_product(mv(name), mv(name))
        assert prod.coefficients == Multivector.scalar(1.0).coefficients


def test_bivector_anticommutation():
    assert geometric_product(mv("e1"), mv("e2")).coefficients == mv("e12").coefficients
    assert geometric_product(mv("e2"), mv("e1")).coefficients == (-mv("e12")).coefficients


def test_idempotent_style_product_vanishes():
    one = Multivector.scalar(1.0)
    a = one + mv("e1")
    b = one - mv("e1")
    assert np.abs(geometric_product(a, b).as_array()).max() == 0.0
    # cross-check against the matrix representation
    assert np.abs(to_matrix(a) @ to_matrix(b)).max() == 0.0


def test_matrix_rep_of_blades():
    assert np.array_equal(to_matrix(mv("e3")), np.diag([1.0 + 0j, -1.0]))
    assert np.abs(to_matrix(mv("e123")) - 1j * np.eye(2)).max() == 0.0
    # e123 representative agrees with the product of the Pauli matrices
    assert np.abs(SIGMA1 @ SIGMA2 @ SIGMA3 - 1j * np.eye(2)).max() == 0.0


def test_matrix_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = Multivector(tuple(rng.uniform(-5, 5, size=8)))
        back = from_matrix(to_matrix(a))
        assert np.abs(back.as_array() - a.as_array()).max() < TOL


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists)
def test_product_homomorphism(ca, cb):
    a, b = Multivector(tuple(ca)), Multivector(tuple(cb))
    lhs = to_matrix(geometric_product(a, b))
    rhs = to_matrix(a) @ to_matrix(b)
    scale = max(1.0, np.abs(rhs).max())
    assert np.abs(lhs - rhs).max() < TOL * scale


def test_grade_projection_reassembles():
    rng = np.random.default_rng(3)
    a = Multivector(tuple(rng.uniform(-2, 2, size=8)))
    total = a.grade(0) + a.grade(1) + a.grade(2) + a.grade(3)
    assert total.coefficients == a.coefficients


def test_involution_sign_tables():
    assert involute(mv("e12"), "reversion").coefficients == (-mv("e12")).coefficients
    one = Multivector.scalar(1.0)
    for kind in MATRIX_INVOLUTIONS:
        assert involute(one, kind).coefficients == one.coefficients
    assert involute(mv("e1"), "grade_inversion").coefficients == (-mv("e1")).coefficients
    assert involute(mv("e123"), "clifford_conjugation").coefficients == mv("e123").coefficients


def test_clifford_conjugation_matrix_form():
    rng = np.random.default_rng(5)
    u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    got = clifford_conjugation_matrix(u)
    want = np.array([[u[1, 1], -u[0, 1]], [-u[1, 0], u[0, 0]]])
    assert np.abs(got - want).max() == 0.0


def test_involutions_match_matrix_forms():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = Multivector(tuple(rng.uniform(-3, 3, size=8)))
        for kind, matrix_form in MATRIX_INVOLUTIONS.items():
            lhs = to_matrix(involute(a, kind))
            rhs = matrix_form(to_matrix(a))
            assert np.abs(lhs - rhs).max() < TOL


def test_involutions_are_involutive_and_morphisms():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = Multivector(tuple(rng.uniform(-3, 3, size=8)))
        b = Multivector(tuple(rng.uniform(-3, 3, size=8)))
        ab = geometric_product(a, b)
        for kind in MATRIX_INVOLUTIONS:
            twice = involute(involute(a, kind), kind)
            assert np.abs(twice.as_array() - a.as_array()).max() < TOL
            if kind == "grade_inversion":
                want = geometric_product(involute(a, kind), involute(b, kind))
            else:
                want = geometric_product(involute(b, kind), involute(a, kind))
            assert np.abs(involute(ab, kind).as_array() - want.as_array()).max() < TOL


def test_unknown_involution_rejected():
    with pytest.raises(ValueError):
        involute(mv("e1"), "transpose")


def test_deformed_basis_gamma_zero_is_pauli():
    expected = [np.eye(2), SIGMA1, SIGMA2, SIGMA3,
                1j * SIGMA3, 1j * SIGMA1, 1j * SIGMA2, 1j * np.eye(2)]
    for got, want in zip(deformed_generators(0.0), expected):
        assert np.abs(got - want).max() < TOL


def test_deformed_sigma3_printed_matrix():
    want = np.array([[1.25, 0.75j], [0.75j, -1.25]])
    assert np.abs(deformed_generators(0.6)[3] - want).max() < TOL


def test_deformed_sigma1_printed_matrix():
    g = 0.6
    w = 0.8
    generators = deformed_generators(g)
    want = np.array([[-1j * g, 1.0], [1.0, 1j * g]]) / w
    assert np.abs(generators[1] - want).max() < TOL
    assert np.abs(generators[2] - SIGMA2).max() < TOL


def test_deformed_vectors_square_to_identity():
    rng = np.random.default_rng(21)
    for g in rng.uniform(-0.99, 0.99, size=50):
        e1, e2, e3 = deformed_generators(float(g))[1:4]
        for e in (e1, e2, e3):
            assert np.abs(e @ e - np.eye(2)).max() < TOL


def test_clifford_relations_on_gamma_grid():
    for g in np.linspace(-0.95, 0.95, 13):
        e = deformed_generators(float(g))[1:4]
        for i in range(3):
            for j in range(3):
                anti = e[i] @ e[j] + e[j] @ e[i]
                assert np.abs(anti - 2.0 * (i == j) * np.eye(2)).max() < TOL


def test_deformed_adjoint_mirrors_gamma():
    for g in (0.25, -0.7, 0.9):
        plus = deformed_generators(g)[1:4]
        minus = deformed_generators(-g)[1:4]
        for a, b in zip(plus, minus):
            assert np.abs(a.conj().T - b).max() < TOL


GAMMA_ENTRY_POINTS = {
    "cached_generators": cached_generators,
    "build_linearization": build_linearization,
    "rashba": lambda g: rashba(g, 1.0, (0.5, -0.3)),
    "magnetic": lambda g: magnetic(g, 1.0, (0.0, 0.0), 0.0, (0.5, -0.3)),
    "eigensystem": lambda g: eigensystem(g, 1.0, (0.5, -0.3)),
    "phi_angles": lambda g: phi_angles(g, (0.5, -0.3)),
}


@pytest.mark.parametrize("gamma", [1.0, -1.0, 1.2, float("nan")])
@pytest.mark.parametrize("entry", list(GAMMA_ENTRY_POINTS))
def test_gamma_domain_error(entry, gamma):
    with pytest.raises(ValueError, match=r"\|gamma\| < 1"):
        GAMMA_ENTRY_POINTS[entry](gamma)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_time_reverse_matrix_is_block_e13_conjugation(n):
    rng = np.random.default_rng(40 + n)
    m = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
    u = np.kron(np.eye(n), E13)
    want = u @ np.conj(m) @ np.linalg.inv(u)
    assert np.abs(time_reverse_matrix(m) - want).max() < TOL


def test_deformation_transform_reproduces_generators():
    for g in (0.0, 0.3, -0.8):
        t = deformation_transform(g)
        t_inv = np.linalg.inv(t)
        for s, got in zip((SIGMA1, SIGMA2, SIGMA3), deformed_generators(g)[1:4]):
            assert np.abs(t @ s @ t_inv - got).max() < TOL
        # the witness is Hermitian with determinant omega
        assert np.abs(t - t.conj().T).max() < TOL
        assert abs(np.linalg.det(t) - deformation_omega(g)) < TOL


@given(st.lists(st.floats(min_value=-1 + 1e-3, max_value=1 - 1e-3), min_size=1, max_size=8))
def test_closed_form_generators_are_the_similarity_images(gammas):
    # e_m = T sigma_m T^-1 with T^-1 from a general inverse, to within 1e-14
    # of the operand scale 1/omega^2 (the conditioning of T as |gamma| -> 1)
    g = np.array(gammas)
    t = deformation_transform(g)[:, None]
    want = t @ PAULI @ np.linalg.inv(t)
    scale = 1.0 / (1.0 - g * g)[:, None, None, None]
    assert np.all(np.abs(deformed_generators(g)[:, 1:4] - want) <= 1e-14 * scale)


def test_e13_blade_matrix():
    e13 = to_matrix(-Multivector.blade("e31"))
    assert np.abs(e13 - E13).max() == 0.0


def test_basis_names_order():
    assert BASIS_NAMES == ("1", "e1", "e2", "e3", "e12", "e23", "e31", "e123")
