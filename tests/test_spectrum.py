import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispinor.momenta import rashba
from bispinor.multivector import amplitude_inner, deformation_omega
from bispinor.spectrum import (
    continuity_residual,
    eigen_amplitudes,
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
            assert max(np.abs(r).max() for r in res.values()) < 1e-10

    def test_flip_relations_degenerate_axis(self):
        # p1 = 0: the angles hit the 0 / pi boundary of the branch
        res = flip_relations(0.5, np.array([0.0, 1.3]))
        assert max(np.abs(r).max() for r in res.values()) < 1e-10


class TestEigenSystem:
    def test_eigen_identity(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            g, beta, p = random_params(rng)
            lam_p, lam_m = eigenvalues(beta, p)
            h = rashba(g, beta, p)
            h_dual = rashba(-g, beta, p)
            psi_p, psi_m, dual_p, dual_m = eigen_amplitudes(*phi_angles(g, p))
            for v, lam in ((psi_p, lam_p), (psi_m, lam_m)):
                assert np.abs(h @ v - lam * v).max() < 1e-10
            for v, lam in ((dual_p, lam_p), (dual_m, lam_m)):
                assert np.abs(h_dual @ v - lam * v).max() < 1e-10

    def test_minus_wave_family(self):
        g, beta = 0.6, 1.1
        p = np.array([0.8, -1.4])
        # the e^{-ip.x} family's finite parts are built at the reflected
        # momentum argument, with the same eigenvalues
        amps = eigen_amplitudes(*phi_angles(g, -p))
        h = rashba(g, beta, -p)
        for v, lam in zip(amps[:2], eigenvalues(beta, p)):
            assert np.abs(h @ v - lam * v).max() < 1e-10

    def test_biorthogonality(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            g, beta, p = random_params(rng)
            psi_p, psi_m, dual_p, dual_m = eigen_amplitudes(*phi_angles(g, p))
            assert abs(amplitude_inner(dual_m, psi_p)) < TOL
            assert abs(amplitude_inner(dual_p, psi_m)) < TOL

    def test_norms_and_label_deltas(self):
        psi = eigen_amplitudes(*phi_angles(0.4, np.array([1.0, 0.5])))[0]
        assert abs(amplitude_inner(psi, psi) - 1.0) < TOL

    def test_gamma_zero_orthogonality(self):
        amps = eigen_amplitudes(*phi_angles(0.0, np.array([0.7, -0.2])))
        assert abs(np.vdot(amps[0], amps[1])) < TOL


class TestProjectors:
    def test_algebraic_identities(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            g, beta, p = random_params(rng)
            angles = phi_angles(g, p)
            pi1, pi2 = projector_matrices(*angles)
            if abs(sum(np.exp(1j * phi) for phi in angles)) < 1e-9:       # singular pair
                continue
            h = rashba(g, beta, p)
            lam_p, lam_m = eigenvalues(beta, p)
            assert np.abs(pi1 + pi2 - np.eye(2)).max() < 1e-11
            assert np.abs(pi1 @ pi2).max() < 1e-11
            assert np.abs(pi1 @ pi1 - pi1).max() < 1e-11
            assert np.abs(pi2 @ pi2 - pi2).max() < 1e-11
            assert np.abs(lam_p * pi1 + lam_m * pi2 - h).max() < 1e-10

    @settings(max_examples=300)
    @given(gamma=st.floats(-1 + 1e-6, 1 - 1e-6), log_r=st.floats(-3.5, 3.5),
           angle=st.floats(-np.pi, np.pi))
    def test_normalization_is_at_least_two_omega(self, gamma, log_r, angle):
        # |e^{i phi+} + e^{i phi-}| >= 2 omega, with equality on the p2 axis
        # (to rounding), so no pair drawn at |gamma| <= 1 - 1e-3 is singular
        p = 10.0 ** log_r * np.array([np.cos(angle), np.sin(angle)])
        den = sum(np.exp(1j * phi) for phi in phi_angles(gamma, p))
        assert abs(den) >= 2.0 * deformation_omega(gamma) * (1.0 - 1e-9)

    def test_hermitian_point(self):
        angles = phi_angles(0.0, np.array([1.0, 0.0]))
        pi1, _ = projector_matrices(*angles)
        want = 0.5 * np.array([[1.0, 1j], [-1j, 1.0]])
        assert np.abs(pi1 - want).max() < TOL
        # oracle: Hermitian spectral projector from the eigenvector
        v = eigen_amplitudes(*angles)[0]
        assert np.abs(pi1 - np.outer(v, v.conj())).max() < TOL

    def test_spectral_action(self):
        p = np.array([0.5, 1.5])
        pi1, pi2 = projector_matrices(*phi_angles(0.7, p))
        lam_p, lam_m = eigenvalues(2.0, p)
        h = rashba(0.7, 2.0, p)
        assert np.abs(h @ pi1 - lam_p * pi1).max() < 1e-11
        assert np.abs(h @ pi2 - lam_m * pi2).max() < 1e-11


class TestAssociated:
    def test_eigenstate_expectation(self):
        g, beta = 0.5, 1.0
        p = np.array([1.0, 2.0])
        lam_p, lam_m = eigenvalues(beta, p)
        h = rashba(g, beta, p)
        amps = eigen_amplitudes(*phi_angles(g, p))
        assert abs(mixture_expectation(1.0, 0.0, h, amps) - lam_p) < 1e-11
        assert abs(mixture_expectation(0.0, 1.0, h, amps) - lam_m) < 1e-11

    def test_normalization(self):
        amps = eigen_amplitudes(*phi_angles(0.3, np.array([0.2, 1.4])))
        val = mixture_expectation(0.6, 0.8j, np.eye(2), amps)
        assert abs(val - 1.0) < 1e-12

    def test_equal_mixture_gives_mean_energy(self):
        g, beta = -0.6, 1.5
        p = np.array([0.9, 0.4])
        h = rashba(g, beta, p)
        c = 1.0 / np.sqrt(2.0)
        val = mixture_expectation(c, c, h, eigen_amplitudes(*phi_angles(g, p)))
        assert abs(val - 0.5 * sum(eigenvalues(beta, p))) < 1e-11

    def test_vanishing_associated_norm_is_nan(self):
        # zero dual rows give <assoc | psi> = 0 on the second stack element only
        p = np.array([0.7, -0.3])
        one = eigen_amplitudes(*phi_angles(0.4, p))
        amps = np.stack([one, one * [[1.0], [1.0], [0.0], [0.0]]])
        val = mixture_expectation(1.0, 0.0, rashba(0.4, 1.2, p), amps)
        assert abs(val[0] - eigenvalues(1.2, p)[0]) < 1e-11
        assert np.isnan(val[1])

    def test_vanishing_norm_threshold_edge(self):
        # <assoc | psi> = d for psi = (1, 0) and dual (d, 0): NaN below 1e-12,
        # and K = 1 gives exactly 1 just above it
        amps = np.array([[[1.0, 0.0], [0.0, 1.0], [d, 0.0], [0.0, 1.0]]
                         for d in (0.9e-12, 1.1e-12)])
        below, above = mixture_expectation(1.0, 0.0, np.eye(2), amps)
        assert np.isnan(below)
        assert above == 1.0


class TestSpinVector:
    def test_sigma1_eigenstate(self):
        v = spin_expectations(np.array([1.0, 1.0]) / np.sqrt(2))
        assert np.abs(v - np.array([1.0, 0.0, 0.0])).max() < TOL

    def test_point_value(self):
        v = spin_expectations(eigen_amplitudes(*phi_angles(0.0, np.array([1.0, 0.0])))[0])
        assert np.abs(v - np.array([0.0, -1.0, 0.0])).max() < TOL

    def test_planar_for_eigenstates(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            g, beta, p = random_params(rng)
            for psi in eigen_amplitudes(*phi_angles(g, p))[:2]:
                assert abs(spin_expectations(psi)[2]) < TOL

    def test_gamma_steers_direction(self):
        p = np.array([1.0, 1.0])
        base = spin_expectations(eigen_amplitudes(*phi_angles(0.0, p))[0])
        moved = spin_expectations(eigen_amplitudes(*phi_angles(0.8, p))[0])
        assert np.abs(base - moved).max() > 0.05


def pair(gamma, beta, momenta, branches):
    """The amplitudes, momenta and energies of a pair of plane-wave
    eigenstates of R^+_gamma, wave k on branch branches[k] (0 plus, 1 minus)
    at momenta[k]."""
    p = np.asarray(momenta, dtype=float)
    wave = np.arange(2)
    amps = eigen_amplitudes(*phi_angles(gamma, p))[wave, branches]
    energies = np.array(eigenvalues(beta, p))[branches, wave]
    return amps, p, energies


class TestContinuity:
    def test_two_state_mixture_gamma_zero(self):
        assert abs(continuity_residual(0.0, 1.0, *pair(0.0, 1.0, [[0.8, 0.5]] * 2, [0, 1]))) < TOL

    def test_two_momentum_mixture_deformed(self):
        g = 0.6
        kernel = continuity_residual(g, 1.0, *pair(g, 1.0, [[0.9, 0.4], [0.3, -0.4]], [0, 1]))
        assert abs(kernel) < TOL

    def test_equal_p2_pair_fails(self):
        # at gamma != 0 the identity needs opposite p2; a same-p2 pair misses it
        g = 0.6
        got = continuity_residual(g, 1.0, *pair(g, 1.0, [[0.9, 0.4], [0.3, 0.4]], [0, 1]))
        assert abs(got) == pytest.approx(0.593, abs=0.01)

    def test_free_particle(self):
        # beta ~ 0: plain free-particle continuity
        assert abs(continuity_residual(0.0, 1e-6, *pair(0.0, 1e-6, [[1.0, 0.7]] * 2, [0, 1]))) < TOL


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
