import numpy as np

from bispinor import spectrum
from bispinor.momenta import (
    ELL,
    NU,
    clifford_momentum,
    magnetic,
    magnetic_shifts,
    momentum_product,
    rashba,
    rashba_shifts,
)
from bispinor.multivector import (
    SIGMA1,
    SIGMA2,
    SIGMA3,
    deformed_generators,
)

TOL = 1e-12


class TestLinearization:
    def test_relations_survive_deformation(self):
        # M_j = 1 (x) e_j = -M_j' at gamma = 0.7, M4 = i(ELL + NU/2) (x) 1 and
        # M5 = (ELL - NU/2) (x) 1, each equal to its prime
        i2 = np.eye(2)
        m = np.array([np.kron(i2, e) for e in deformed_generators(0.7)[1:4]]
                     + [np.kron(1j * (ELL + NU / 2.0), i2), np.kron(ELL - NU / 2.0, i2)])
        m_prime = np.array([-1.0, -1.0, -1.0, 1.0, 1.0])[:, None, None] * m
        for i in range(5):
            for j in range(5):
                anti = m_prime[i] @ m[j] + m_prime[j] @ m[i]
                assert np.abs(anti + 2.0 * (i == j) * np.eye(4)).max() < TOL


class TestFactorize:
    def test_free_particle(self):
        p = np.array([1.5, -2.0])
        h = momentum_product(0.3, (0, 0, 0), (0, 0, 0), p)
        want = 0.5 * (p @ p) * np.eye(2)
        assert np.abs(h - want).max() < TOL

    def test_rashba_shift_reproduces_printed_hamiltonian(self):
        g, beta = 0.4, 1.3
        shift_a, shift_b = (0, 0, -1j * beta), (0, 0, 1j * beta)
        p = np.array([0.7, -1.1])
        h_ab = momentum_product(g, shift_b, shift_a, p)
        e23, e31 = deformed_generators(g)[5:7]
        want = (0.5 * (p @ p + beta**2) * np.eye(2)
                + 1j * beta * (e31 * p[0] - e23 * p[1]))
        assert np.abs(h_ab - want).max() < TOL

    def test_matches_direct_product(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            g = float(rng.uniform(-0.95, 0.95))
            sa = tuple(rng.normal() + 1j * rng.normal() for _ in range(3))
            sb = tuple(rng.normal() + 1j * rng.normal() for _ in range(3))
            p = rng.uniform(-3, 3, size=2)
            a, b = clifford_momentum(g, sa, p), clifford_momentum(g, sb, p)
            assert np.abs(momentum_product(g, sb, sa, p) - 0.5 * b @ a).max() < 1e-11
            assert np.abs(momentum_product(g, sa, sb, p) - 0.5 * a @ b).max() < 1e-11


class TestRashba:
    def test_undeformed_point_value(self):
        got = rashba(0.0, 1.0, np.array([0.0, 1.0]))
        assert np.abs(got - np.ones((2, 2))).max() < TOL

    def test_undeformed_closed_form(self):
        beta = 0.8
        p = np.array([1.2, -0.5])
        want = (0.5 * (p @ p + beta**2) * np.eye(2)
                + beta * (SIGMA1 * p[1] - SIGMA2 * p[0]))
        assert np.abs(rashba(0.0, beta, p) - want).max() < TOL

    def test_adjoint_flips_gamma(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            g = float(rng.uniform(-0.95, 0.95))
            beta = float(rng.uniform(0.1, 3.0))
            p = rng.uniform(-3, 3, size=2)
            lhs = rashba(g, beta, p).conj().T
            rhs = rashba(-g, beta, p)
            assert np.abs(lhs - rhs).max() < TOL

    def test_sign_flips_beta(self):
        # R^- = (1/2) P^A P^B, the SUSY partner of R^+, is R^+ at -beta
        g, beta = 0.5, 1.1
        p = np.array([0.4, 0.9])
        p_b, p_a = clifford_momentum(g, rashba_shifts(beta), p)
        assert np.abs(rashba(g, -beta, p) - 0.5 * p_a @ p_b).max() < TOL

    def test_beta_zero_is_free(self):
        p = np.array([2.0, -1.0])
        assert np.abs(rashba(0.6, 0.0, p) - 0.5 * (p @ p) * np.eye(2)).max() < TOL

    def test_hermitian_at_gamma_zero(self):
        m = rashba(0.0, 2.0, np.array([0.3, 0.4]))
        assert np.abs(m - m.conj().T).max() < TOL

    def test_product_form(self):
        g, beta = -0.7, 0.9
        left, right = rashba_shifts(beta)
        p = np.array([1.0, 2.0])
        product = clifford_momentum(g, left, p) @ clifford_momentum(g, right, p)
        assert np.abs(rashba(g, beta, p) - 0.5 * product).max() < TOL

    def test_isospectral_in_gamma(self):
        beta = 1.4
        p = np.array([0.9, -1.7])
        base = sorted(np.linalg.eigvals(rashba(0.0, beta, p)).real)
        for g in (0.3, -0.6, 0.9):
            vals = np.linalg.eigvals(rashba(g, beta, p))
            assert np.abs(vals.imag).max() < 1e-10
            got = sorted(vals.real)
            assert np.abs(np.array(got) - np.array(base)).max() < 1e-10


class TestMagnetic:
    def test_zero_field_reduces_to_rashba(self):
        g, beta = 0.45, 1.2
        p = np.array([0.8, -0.3])
        for b in (beta, -beta):
            h = magnetic(g, b, (0.0, 0.0), 0.0, p)
            assert np.abs(h - rashba(g, b, p)).max() < TOL

    def test_zeeman_only(self):
        p = np.array([1.0, 1.0])
        want = 0.5 * (p @ p) * np.eye(2) + SIGMA3
        assert np.abs(magnetic(0.0, 0.0, (0.0, 0.0), 1.0, p) - want).max() < TOL

    def test_product_form_with_fields(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = float(rng.uniform(-0.9, 0.9))
            beta = float(rng.uniform(0.2, 2.0))
            a_vec = rng.normal(size=2)
            b3 = float(rng.normal())
            p = rng.uniform(-3, 3, size=2)
            for b in (beta, -beta):
                left, right = magnetic_shifts(b, a_vec)
                e3 = deformed_generators(g)[3]
                want = (0.5 * clifford_momentum(g, left, p) @ clifford_momentum(g, right, p)
                        + b3 * e3)
                h = magnetic(g, b, a_vec, b3, p)
                assert np.abs(h - want).max() < 1e-11


def test_levy_leblond_first_order_system():
    """The coupled first-order equations reproduce the eigenproblem:
    with eta = (i/2) P^A psi, the pair satisfies P^B eta = i E psi."""
    for g, beta in ((0.0, 1.0), (0.6, 0.7), (-0.8, 2.0)):
        p = np.array([1.1, -0.6])
        amps = spectrum.eigen_amplitudes(*spectrum.phi_angles(g, p))
        left, right = (clifford_momentum(g, shift, p) for shift in rashba_shifts(beta))
        for v, energy in zip(amps[:2], spectrum.eigenvalues(beta, p)):
            eta = 0.5j * right @ v
            assert np.abs(right @ v + 2j * eta).max() < TOL
            assert np.abs(left @ eta - 1j * energy * v).max() < 1e-11


def test_operators_need_no_generator_stack(monkeypatch):
    # each operator is to_matrix of its coefficients: none of them builds
    # the (..., 8, 2, 2) generator stack, and none changes without it
    g, p = np.array([0.0, 0.4, -0.7]), np.array([[0.3, -1.2], [2.0, 0.5], [-0.8, 0.1]])
    shift = (0.2, -0.1, 0.5j)
    calls = {
        "rashba": lambda: rashba(g, -1.3, p),
        "magnetic": lambda: magnetic(g, -0.8, (0.3, -0.2), 0.5, p),
        "clifford_momentum": lambda: clifford_momentum(g, shift, p),
        "momentum_product": lambda: momentum_product(g, shift, (0.0, 1.0, -0.5j), p),
    }
    want = {name: call() for name, call in calls.items()}

    def no_stack(gamma):
        raise AssertionError("generator stack built")

    # momenta does not import deformed_generators, so this is its only source
    monkeypatch.setattr("bispinor.multivector.deformed_generators", no_stack)
    for name, call in calls.items():
        assert np.array_equal(call(), want[name]), name
