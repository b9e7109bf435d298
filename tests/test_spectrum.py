import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispinor.momenta import rashba
from bispinor.multivector import deformation_omega
from bispinor.spectrum import (
    amplitude_inner,
    continuity_residual,
    eigensystem,
    eigenvalue_oracle,
    eigenvalues,
    flip_relations,
    mixture_expectation,
    phi_angles,
    projector_matrices,
    spin_expectations,
)

TOL = 1e-12


def random_params(rng):
    g = float(rng.uniform(-0.95, 0.95))
    beta = float(rng.uniform(0.1, 4.0))
    p = rng.uniform(-3, 3, size=2)
    if np.hypot(*p) < 0.05:
        p = p + 1.0
    return g, beta, p


class TestEigenvalues:
    def test_point_value(self):
        lam_p, lam_m = eigenvalues(2.0, (3.0, 4.0))
        assert abs(lam_p - 24.5) < TOL
        assert abs(lam_m - 4.5) < TOL

    def test_oracle_agreement(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            g, beta, p = random_params(rng)
            lam_p, lam_m = eigenvalues(beta, p)
            o1, o2 = eigenvalue_oracle(rashba(g, beta, p))
            assert abs(o1 - lam_p) < 1e-10
            assert abs(o2 - lam_m) < 1e-10
            assert abs(o1.imag) < 1e-10 and abs(o2.imag) < 1e-10


class TestAngles:
    def test_gamma_zero_collapse(self):
        p = np.array([1.3, -0.7])
        fp, fm = phi_angles(0.0, p)
        want = np.arctan2(p[0], p[1])
        assert abs(fp - want) < TOL
        assert abs(fm - want) < TOL

    def test_diagonal_momentum_independence(self):
        for g in (0.0, 0.5, -0.8):
            for sign in (1.0, -1.0):
                ref = phi_angles(g, np.array([1.0, sign]))
                for r in (0.5, 2.0, 7.0):
                    got = phi_angles(g, np.array([r, sign * r]))
                    assert np.abs(np.array(got) - np.array(ref)).max() < 1e-10

    def test_flip_relations_random(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            g = float(rng.uniform(-0.95, 0.95))
            p = rng.uniform(-3, 3, size=2)
            if np.hypot(*p) < 0.05:
                continue
            res = flip_relations(g, p)
            assert max(res.values()) < 1e-10

    def test_flip_relations_degenerate_axis(self):
        # p1 = 0: the angles hit the 0 / pi boundary of the branch
        res = flip_relations(0.5, np.array([0.0, 1.3]))
        assert max(res.values()) < 1e-10


class TestEigenSystem:
    def test_eigen_identity(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            g, beta, p = random_params(rng)
            es = eigensystem(g, beta, p)
            h = rashba(g, beta, p)
            h_dual = rashba(-g, beta, p)
            psi_p, psi_m, dual_p, dual_m = es.amplitudes
            for v, lam in ((psi_p, es.lambda_plus), (psi_m, es.lambda_minus)):
                assert np.abs(h @ v - lam * v).max() < 1e-10
            for v, lam in ((dual_p, es.lambda_plus), (dual_m, es.lambda_minus)):
                assert np.abs(h_dual @ v - lam * v).max() < 1e-10

    def test_minus_wave_family(self):
        g, beta = 0.6, 1.1
        p = np.array([0.8, -1.4])
        es = eigensystem(g, beta, p, wave_sign=-1)
        # finite parts are built at the reflected momentum argument
        h = rashba(g, beta, -p)
        for v, lam in zip(es.amplitudes[:2], (es.lambda_plus, es.lambda_minus)):
            assert np.abs(h @ v - lam * v).max() < 1e-10

    def test_biorthogonality(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            g, beta, p = random_params(rng)
            psi_p, psi_m, dual_p, dual_m = eigensystem(g, beta, p).amplitudes
            assert abs(amplitude_inner(dual_m, psi_p)) < TOL
            assert abs(amplitude_inner(dual_p, psi_m)) < TOL

    def test_norms_and_label_deltas(self):
        psi = eigensystem(0.4, 1.0, np.array([1.0, 0.5])).amplitudes[0]
        assert abs(amplitude_inner(psi, psi) - 1.0) < TOL

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError, match="degenerate splitting"):
            eigensystem(0.3, 0.0, np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="degenerate splitting"):
            eigensystem(0.3, 1.0, np.array([0.0, 0.0]))

    def test_gamma_zero_orthogonality(self):
        es = eigensystem(0.0, 1.0, np.array([0.7, -0.2]))
        assert abs(np.vdot(es.amplitudes[0], es.amplitudes[1])) < TOL


class TestProjectors:
    def test_algebraic_identities(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            g, beta, p = random_params(rng)
            es = eigensystem(g, beta, p)
            pi1, pi2, den = projector_matrices(es.phi_plus, es.phi_minus)
            if abs(den) < 1e-9:       # singular pair
                continue
            h = rashba(g, beta, p)
            assert np.abs(pi1 + pi2 - np.eye(2)).max() < 1e-11
            assert np.abs(pi1 @ pi2).max() < 1e-11
            assert np.abs(pi1 @ pi1 - pi1).max() < 1e-11
            assert np.abs(pi2 @ pi2 - pi2).max() < 1e-11
            assert np.abs(es.lambda_plus * pi1
                          + es.lambda_minus * pi2 - h).max() < 1e-10

    @settings(max_examples=300)
    @given(gamma=st.floats(-1 + 1e-6, 1 - 1e-6), log_r=st.floats(-3.5, 3.5),
           angle=st.floats(-np.pi, np.pi))
    def test_normalization_is_at_least_two_omega(self, gamma, log_r, angle):
        # |e^{i phi+} + e^{i phi-}| >= 2 omega, with equality on the p2 axis
        # (to rounding), so no pair drawn at |gamma| <= 1 - 1e-3 is singular
        p = 10.0 ** log_r * np.array([np.cos(angle), np.sin(angle)])
        den = projector_matrices(*phi_angles(gamma, p))[2]
        assert abs(den) >= 2.0 * deformation_omega(gamma) * (1.0 - 1e-9)

    def test_hermitian_point(self):
        es = eigensystem(0.0, 1.0, np.array([1.0, 0.0]))
        pi1, _, _ = projector_matrices(es.phi_plus, es.phi_minus)
        want = 0.5 * np.array([[1.0, 1j], [-1j, 1.0]])
        assert np.abs(pi1 - want).max() < TOL
        # oracle: Hermitian spectral projector from the eigenvector
        v = es.amplitudes[0]
        assert np.abs(pi1 - np.outer(v, v.conj())).max() < TOL

    def test_spectral_action(self):
        es = eigensystem(0.7, 2.0, np.array([0.5, 1.5]))
        pi1, pi2, _ = projector_matrices(es.phi_plus, es.phi_minus)
        h = rashba(0.7, 2.0, np.array([0.5, 1.5]))
        assert np.abs(h @ pi1 - es.lambda_plus * pi1).max() < 1e-11
        assert np.abs(h @ pi2 - es.lambda_minus * pi2).max() < 1e-11


class TestAssociated:
    def test_eigenstate_expectation(self):
        g, beta = 0.5, 1.0
        p = np.array([1.0, 2.0])
        es = eigensystem(g, beta, p)
        h = rashba(g, beta, p)
        amps = es.amplitudes
        assert abs(mixture_expectation(1.0, 0.0, h, amps) - es.lambda_plus) < 1e-11
        assert abs(mixture_expectation(0.0, 1.0, h, amps) - es.lambda_minus) < 1e-11

    def test_normalization(self):
        es = eigensystem(0.3, 0.7, np.array([0.2, 1.4]))
        val = mixture_expectation(0.6, 0.8j, np.eye(2), es.amplitudes)
        assert abs(val - 1.0) < 1e-12

    def test_equal_mixture_gives_mean_energy(self):
        g, beta = -0.6, 1.5
        p = np.array([0.9, 0.4])
        es = eigensystem(g, beta, p)
        h = rashba(g, beta, p)
        c = 1.0 / np.sqrt(2.0)
        val = mixture_expectation(c, c, h, es.amplitudes)
        assert abs(val - 0.5 * (es.lambda_plus + es.lambda_minus)) < 1e-11

    def test_vanishing_associated_norm_is_nan(self):
        # zero dual rows give <assoc | psi> = 0 on the second stack element only
        es = eigensystem(0.4, 1.2, np.array([0.7, -0.3]))
        amps = np.stack([es.amplitudes, es.amplitudes * [[1.0], [1.0], [0.0], [0.0]]])
        val = mixture_expectation(1.0, 0.0, rashba(0.4, 1.2, np.array([0.7, -0.3])), amps)
        assert abs(val[0] - es.lambda_plus) < 1e-11
        assert np.isnan(val[1])


class TestSpinVector:
    def test_sigma1_eigenstate(self):
        v = spin_expectations(np.array([1.0, 1.0]) / np.sqrt(2))
        assert np.abs(v - np.array([1.0, 0.0, 0.0])).max() < TOL

    def test_point_value(self):
        es = eigensystem(0.0, 1.0, np.array([1.0, 0.0]))
        v = spin_expectations(es.amplitudes[0])
        assert np.abs(v - np.array([0.0, -1.0, 0.0])).max() < TOL

    def test_planar_for_eigenstates(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            g, beta, p = random_params(rng)
            es = eigensystem(g, beta, p)
            for psi in es.amplitudes[:2]:
                assert abs(spin_expectations(psi)[2]) < TOL

    def test_gamma_steers_direction(self):
        p = np.array([1.0, 1.0])
        base = spin_expectations(eigensystem(0.0, 1.0, p).amplitudes[0])
        moved = spin_expectations(eigensystem(0.8, 1.0, p).amplitudes[0])
        assert np.abs(base - moved).max() > 0.05


def plus_wave(es):
    return (es.amplitudes[0], es.momentum, es.lambda_plus)


def minus_wave(es):
    return (es.amplitudes[1], es.momentum, es.lambda_minus)


class TestContinuity:
    GRID = [(0.2, -0.4), (1.0, 0.6), (-0.7, 1.1)]

    def test_single_eigenstate_stationary(self):
        es = eigensystem(0.5, 1.0, np.array([1.0, 0.4]))
        assert continuity_residual(0.5, 1.0, [(1.0, *plus_wave(es))], self.GRID) < TOL

    def test_two_state_mixture_gamma_zero(self):
        es = eigensystem(0.0, 1.0, np.array([0.8, 0.5]))
        mix = [(0.7, *plus_wave(es)), (0.5j, *minus_wave(es))]
        assert continuity_residual(0.0, 1.0, mix, self.GRID) < TOL

    def test_two_momentum_mixture_deformed(self):
        g = 0.6
        es1 = eigensystem(g, 1.0, np.array([0.9, 0.4]))
        es2 = eigensystem(g, 1.0, np.array([0.3, -0.4]))
        mix = [(0.6, *plus_wave(es1)), (0.8, *minus_wave(es2))]
        assert continuity_residual(g, 1.0, mix, self.GRID) < TOL

    def test_same_p2_pair_fails(self):
        # at gamma != 0 the identity needs opposite p2; a same-p2 pair
        # misses it by about 0.56 on the registry's grid
        g = 0.6
        es1 = eigensystem(g, 1.0, np.array([0.9, 0.4]))
        es2 = eigensystem(g, 1.0, np.array([0.3, 0.4]))
        mix = [(0.6, *plus_wave(es1)), (0.8, *minus_wave(es2))]
        grid = [(0.3, -0.2), (1.1, 0.7), (-0.4, 0.9)]
        assert continuity_residual(g, 1.0, mix, grid) == pytest.approx(0.56, abs=0.01)

    def test_free_particle(self):
        es = eigensystem(0.0, 1e-6, np.array([1.0, 0.7]))
        # beta ~ 0: plain free-particle continuity
        mix = [(1.0, *plus_wave(es)), (0.4, *minus_wave(es))]
        assert continuity_residual(0.0, 1e-6, mix, self.GRID) < TOL


def test_generic_isospectral_biorthogonality():
    """Similarity-deformed Hermitian matrices with split spectrum have
    vanishing cross products between left and right eigenvectors."""
    rng = np.random.default_rng(67)
    for _ in range(100):
        herm = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        herm = herm + herm.conj().T
        if np.diff(np.linalg.eigvalsh(herm))[0] < 0.1:
            herm = herm + np.diag([2.0, -2.0])
        s = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(s)) < 1e-2:
            s = s + 2.0 * np.eye(2)
        h = s @ herm @ np.linalg.inv(s)
        vals_r, right = np.linalg.eig(h)
        vals_l, left = np.linalg.eig(h.conj().T)
        r = right[:, np.argsort(vals_r.real)]
        l = left[:, np.argsort(vals_l.real)]
        assert abs(np.vdot(l[:, 0], r[:, 1])) < 1e-8
        assert abs(np.vdot(l[:, 1], r[:, 0])) < 1e-8
