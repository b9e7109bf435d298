import numpy as np
import pytest

from bispinor import momenta, spectrum
from bispinor.momenta import (
    CliffordMomentum,
    build_linearization,
    factorize,
    magnetic,
    momentum_factors,
    rashba,
)
from bispinor.multivector import (
    SIGMA1,
    SIGMA2,
    SIGMA3,
    deformed_generators,
    make_deformed_basis,
)

TOL = 1e-12


class TestLinearization:
    def test_condensed_relation_full_sweep(self):
        lin = build_linearization()
        for i in range(5):
            for j in range(5):
                anti = lin.m_prime[i] @ lin.m[j] + lin.m_prime[j] @ lin.m[i]
                want = -2.0 * (i == j) * np.eye(4)
                assert np.abs(anti - want).max() < TOL

    def test_m5_diagonal_relation(self):
        lin = build_linearization()
        anti = lin.m_prime[4] @ lin.m[4] + lin.m_prime[4] @ lin.m[4]
        assert np.abs(anti + 2.0 * np.eye(4)).max() < TOL

    def test_nilpotency(self):
        lin = build_linearization()
        assert np.abs(lin.l_prime @ lin.l).max() < TOL
        assert np.abs(lin.n_prime @ lin.n).max() < TOL

    def test_ln_cross_relation(self):
        lin = build_linearization()
        expr = lin.l_prime @ lin.n + lin.n_prime @ lin.l
        assert np.abs(expr - 2.0 * np.eye(4)).max() < TOL

    def test_spatial_m_cross_relations(self):
        lin = build_linearization()
        for i in range(3):
            assert np.abs(lin.l_prime @ lin.m[i] + lin.m_prime[i] @ lin.l).max() < TOL
            assert np.abs(lin.n_prime @ lin.m[i] + lin.m_prime[i] @ lin.n).max() < TOL

    def test_m4_m5_consistent_with_l_n(self):
        lin = build_linearization()
        assert np.abs(lin.m[3] - 1j * (lin.l + lin.n / 2.0)).max() < TOL
        assert np.abs(lin.m[4] - (lin.l - lin.n / 2.0)).max() < TOL
        assert np.abs(lin.m_prime[3] - 1j * (lin.l_prime + lin.n_prime / 2.0)).max() < TOL
        assert np.abs(lin.m_prime[4] - (lin.l_prime - lin.n_prime / 2.0)).max() < TOL

    def test_relations_survive_deformation(self):
        lin = build_linearization(0.7)
        for i in range(5):
            for j in range(5):
                anti = lin.m_prime[i] @ lin.m[j] + lin.m_prime[j] @ lin.m[i]
                assert np.abs(anti + 2.0 * (i == j) * np.eye(4)).max() < TOL


class TestFactorize:
    def test_free_particle(self):
        a = CliffordMomentum(gamma=0.3)
        b = CliffordMomentum(gamma=0.3)
        h_ab, h_ba = factorize(a, b)
        p = np.array([1.5, -2.0])
        want = 0.5 * (p @ p) * np.eye(2)
        assert np.abs(h_ab(p) - want).max() < TOL
        assert np.abs(h_ba(p) - want).max() < TOL

    def test_rashba_shift_reproduces_printed_hamiltonian(self):
        g, beta = 0.4, 1.3
        a = CliffordMomentum(gamma=g, shift=(0, 0, -1j * beta))
        b = CliffordMomentum(gamma=g, shift=(0, 0, 1j * beta))
        h_ab, _ = factorize(a, b)
        basis = make_deformed_basis(g)
        e23, e31 = basis.generators[5], basis.generators[6]
        p = np.array([0.7, -1.1])
        want = (0.5 * (p @ p + beta**2) * np.eye(2)
                + 1j * beta * (e31 * p[0] - e23 * p[1]))
        assert np.abs(h_ab(p) - want).max() < TOL

    def test_matches_direct_product(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            g = float(rng.uniform(-0.95, 0.95))
            sa = tuple(rng.normal() + 1j * rng.normal() for _ in range(3))
            sb = tuple(rng.normal() + 1j * rng.normal() for _ in range(3))
            a = CliffordMomentum(gamma=g, shift=sa)
            b = CliffordMomentum(gamma=g, shift=sb)
            h_ab, h_ba = factorize(a, b)
            p = rng.uniform(-3, 3, size=2)
            assert np.abs(h_ab(p) - 0.5 * b(p) @ a(p)).max() < 1e-11
            assert np.abs(h_ba(p) - 0.5 * a(p) @ b(p)).max() < 1e-11

    def test_gamma_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            factorize(CliffordMomentum(gamma=0.1), CliffordMomentum(gamma=0.2))


class TestRashba:
    def test_undeformed_point_value(self):
        h = rashba(0.0, 1.0, 1)
        got = h(np.array([0.0, 1.0]))
        assert np.abs(got - np.ones((2, 2))).max() < TOL

    def test_undeformed_closed_form(self):
        beta = 0.8
        h = rashba(0.0, beta, 1)
        p = np.array([1.2, -0.5])
        want = (0.5 * (p @ p + beta**2) * np.eye(2)
                + beta * (SIGMA1 * p[1] - SIGMA2 * p[0]))
        assert np.abs(h(p) - want).max() < TOL

    def test_adjoint_flips_gamma(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            g = float(rng.uniform(-0.95, 0.95))
            beta = float(rng.uniform(0.1, 3.0))
            p = rng.uniform(-3, 3, size=2)
            lhs = rashba(g, beta, 1).evaluate(p).conj().T
            rhs = rashba(-g, beta, 1).evaluate(p)
            assert np.abs(lhs - rhs).max() < TOL

    def test_sign_flips_beta(self):
        g, beta = 0.5, 1.1
        p = np.array([0.4, 0.9])
        minus = rashba(g, beta, -1)(p)
        flipped = rashba(g, -beta, 1)(p)
        assert np.abs(minus - flipped).max() < TOL

    def test_beta_zero_is_free(self):
        h = rashba(0.6, 0.0, 1)
        p = np.array([2.0, -1.0])
        assert np.abs(h(p) - 0.5 * (p @ p) * np.eye(2)).max() < TOL

    def test_hermitian_at_gamma_zero(self):
        h = rashba(0.0, 2.0, 1)
        p = np.array([0.3, 0.4])
        m = h(p)
        assert np.abs(m - m.conj().T).max() < TOL

    def test_product_form(self):
        g, beta = -0.7, 0.9
        h = rashba(g, beta, 1)
        left, right = momentum_factors(h)
        p = np.array([1.0, 2.0])
        assert np.abs(h(p) - 0.5 * left(p) @ right(p)).max() < TOL

    def test_isospectral_in_gamma(self):
        beta = 1.4
        p = np.array([0.9, -1.7])
        base = sorted(np.linalg.eigvals(rashba(0.0, beta, 1)(p)).real)
        for g in (0.3, -0.6, 0.9):
            vals = np.linalg.eigvals(rashba(g, beta, 1)(p))
            assert np.abs(vals.imag).max() < 1e-10
            got = sorted(vals.real)
            assert np.abs(np.array(got) - np.array(base)).max() < 1e-10


class TestMagnetic:
    def test_zero_field_reduces_to_rashba(self):
        g, beta = 0.45, 1.2
        p = np.array([0.8, -0.3])
        for sign in (1, -1):
            h = magnetic(g, beta, (0.0, 0.0), 0.0, sign)
            assert np.abs(h(p) - rashba(g, beta, sign)(p)).max() < TOL

    def test_zeeman_only(self):
        h = magnetic(0.0, 0.0, (0.0, 0.0), 1.0, 1)
        p = np.array([1.0, 1.0])
        want = 0.5 * (p @ p) * np.eye(2) + SIGMA3
        assert np.abs(h(p) - want).max() < TOL

    def test_product_form_with_fields(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            g = float(rng.uniform(-0.9, 0.9))
            beta = float(rng.uniform(0.2, 2.0))
            a_vec = rng.normal(size=2)
            b3 = float(rng.normal())
            p = rng.uniform(-3, 3, size=2)
            for sign in (1, -1):
                h = magnetic(g, beta, a_vec, b3, sign)
                left, right = momentum_factors(h)
                e3 = make_deformed_basis(g).generators[3]
                want = 0.5 * left(p) @ right(p) + b3 * e3
                assert np.abs(h(p) - want).max() < 1e-11


def test_levy_leblond_first_order_system():
    """The coupled first-order equations reproduce the eigenproblem:
    with eta = (i/2) P^A psi, the pair satisfies P^B eta = i E psi."""
    for g, beta in ((0.0, 1.0), (0.6, 0.7), (-0.8, 2.0)):
        p = np.array([1.1, -0.6])
        es = spectrum.eigensystem(g, beta, p)
        left, right = momentum_factors(rashba(g, beta, 1))
        for v, energy in zip(es.amplitudes[:2], (es.lambda_plus, es.lambda_minus)):
            eta = 0.5j * right(p) @ v
            assert np.abs(right(p) @ v + 2j * eta).max() < TOL
            assert np.abs(left(p) @ eta - 1j * energy * v).max() < 1e-11


class TestGeneratorCache:
    def test_matches_a_fresh_build_and_is_read_only(self):
        g = np.array([0.0, 0.3, -0.7, 0.99])
        got = momenta.cached_generators(g)
        assert got.tobytes() == deformed_generators(g).tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0, 0, 0] = 2.0

    def test_keyed_by_content_not_identity(self):
        g = np.array([0.1, 0.2, 0.3])
        before = momenta.cached_generators(g).copy()
        g[1] = -0.5                         # same object, new values
        after = momenta.cached_generators(g)
        assert after.tobytes() == deformed_generators(g).tobytes()
        assert not np.array_equal(after, before)
        # equal content from another object (here a list) hits the same entry
        assert momenta.cached_generators(list(g)) is after

    @pytest.mark.parametrize("bad", [[0.2, 1.0], [-1.0, 0.0], [0.5, np.nan]])
    def test_invalid_gamma_raises_on_every_call(self, bad):
        for _ in range(3):
            with pytest.raises(ValueError):
                momenta.cached_generators(np.array(bad))
            with pytest.raises(ValueError):
                rashba(np.array(bad), 1.0, 1)

    def test_holds_two_stacks(self):
        momenta._stack_generators.cache_clear()
        a, b, c = (np.full(4, x) for x in (0.1, 0.2, 0.3))
        for g in (a, b, a, b, c):
            momenta.cached_generators(g)
        info = momenta._stack_generators.cache_info()
        assert (info.hits, info.misses, info.currsize, info.maxsize) == (2, 3, 2, 2)
