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

from conftest import TOL, assert_small, uniform_draws


def random_params(rng, n):
    """n samples (g, beta, p) as arrays (n,), (n,) and (n, 2), a p within
    0.05 of the origin moved by (1, 1)."""
    g, beta, *p = uniform_draws(rng, n, (-0.95, 0.1, -3, -3), (0.95, 4.0, 3, 3)).T
    p = np.stack(p, axis=-1)
    return g, beta, np.where(np.hypot(*p.T)[:, None] < 0.05, p + 1.0, p)


class TestEigenvalues:
    def test_point_value(self):
        assert_small(np.array(eigenvalues(2.0, (3.0, 4.0))) - [24.5, 4.5], TOL)

    def test_oracle_agreement(self):
        g, beta, p = random_params(np.random.default_rng(41), 200)
        lam_p, lam_m = eigenvalues(beta, p)
        o1, o2 = eigenvalue_oracle(rashba(g, beta, p))
        assert_small({"lambda_plus": o1 - lam_p, "lambda_minus": o2 - lam_m,
                      "imag_plus": o1.imag, "imag_minus": o2.imag}, 1e-10)


class TestAngles:
    def test_gamma_zero_collapse(self):
        p = np.array([1.3, -0.7])
        assert_small(np.array(phi_angles(0.0, p)) - np.arctan2(p[0], p[1]), TOL)

    def test_diagonal_momentum_independence(self):
        # angles (2, gamma, sign, r) at r = 1, then 0.5, 2 and 7
        g = np.array([0.0, 0.5, -0.8])[:, None, None]
        r = np.array([1.0, 0.5, 2.0, 7.0])[:, None]
        got = np.array(phi_angles(g, r * np.array([[[1.0, 1.0]], [[1.0, -1.0]]])))
        assert_small(got[..., 1:] - got[..., :1], 1e-10)

    def test_flip_relations_random(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            g = float(rng.uniform(-0.95, 0.95))
            p = rng.uniform(-3, 3, size=2)
            if np.hypot(*p) < 0.05:
                continue
            assert_small(flip_relations(g, p), 1e-10)

    def test_flip_relations_degenerate_axis(self):
        # p1 = 0: the angles hit the 0 / pi boundary of the branch
        assert_small(flip_relations(0.5, np.array([0.0, 1.3])), 1e-10)


class TestEigenSystem:
    def test_eigen_identity(self):
        g, beta, p = random_params(np.random.default_rng(47), 200)
        # psi+, psi- are eigenvectors of H(g), and dual+, dual- of H(-g)
        lam = np.stack(eigenvalues(beta, p), axis=-1)[:, [0, 1, 0, 1], None]
        h = rashba(np.stack([g, g, -g, -g], axis=-1), beta[:, None], p[:, None])
        amps = eigen_amplitudes(*phi_angles(g, p))
        assert_small((h @ amps[..., None])[..., 0] - lam * amps, 1e-10)

    def test_minus_wave_family(self):
        g, beta = 0.6, 1.1
        p = np.array([0.8, -1.4])
        # the e^{-ip.x} family's finite parts are built at the reflected
        # momentum argument, with the same eigenvalues
        amps = eigen_amplitudes(*phi_angles(g, -p))
        h = rashba(g, beta, -p)
        for v, lam in zip(amps[:2], eigenvalues(beta, p)):
            assert_small(h @ v - lam * v, 1e-10)

    def test_biorthogonality(self):
        g, _, p = random_params(np.random.default_rng(53), 100)
        amps = eigen_amplitudes(*phi_angles(g, p))
        assert_small(amplitude_inner(amps[:, [3, 2]], amps[:, [0, 1]]), TOL)

    def test_norms_and_label_deltas(self):
        psi = eigen_amplitudes(*phi_angles(0.4, np.array([1.0, 0.5])))[0]
        assert_small(amplitude_inner(psi, psi) - 1.0, TOL)

    def test_gamma_zero_orthogonality(self):
        amps = eigen_amplitudes(*phi_angles(0.0, np.array([0.7, -0.2])))
        assert_small(np.vdot(amps[0], amps[1]), TOL)


class TestProjectors:
    def test_algebraic_identities(self):
        g, beta, p = random_params(np.random.default_rng(59), 100)
        angles = phi_angles(g, p)
        regular = np.abs(sum(np.exp(1j * phi) for phi in angles)) >= 1e-9     # not a singular pair
        pi1, pi2 = (pi[regular] for pi in projector_matrices(*angles))
        lam_p, lam_m = (lam[regular, None, None] for lam in eigenvalues(beta, p))
        assert_small({"resolution": pi1 + pi2 - np.eye(2), "orthogonality": pi1 @ pi2,
                      "idempotence_1": pi1 @ pi1 - pi1, "idempotence_2": pi2 @ pi2 - pi2}, 1e-11)
        assert_small(lam_p * pi1 + lam_m * pi2 - rashba(g, beta, p)[regular], 1e-10)

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
        assert_small(pi1 - want, TOL)
        # oracle: Hermitian spectral projector from the eigenvector
        v = eigen_amplitudes(*angles)[0]
        assert_small(pi1 - np.outer(v, v.conj()), TOL)

    def test_spectral_action(self):
        p = np.array([0.5, 1.5])
        pi1, pi2 = projector_matrices(*phi_angles(0.7, p))
        lam_p, lam_m = eigenvalues(2.0, p)
        h = rashba(0.7, 2.0, p)
        assert_small(h @ pi1 - lam_p * pi1, 1e-11)
        assert_small(h @ pi2 - lam_m * pi2, 1e-11)


class TestAssociated:
    def test_eigenstate_expectation(self):
        g, beta = 0.5, 1.0
        p = np.array([1.0, 2.0])
        lam_p, lam_m = eigenvalues(beta, p)
        h = rashba(g, beta, p)
        amps = eigen_amplitudes(*phi_angles(g, p))
        assert_small(mixture_expectation(1.0, 0.0, h, amps) - lam_p, 1e-11)
        assert_small(mixture_expectation(0.0, 1.0, h, amps) - lam_m, 1e-11)

    def test_normalization(self):
        amps = eigen_amplitudes(*phi_angles(0.3, np.array([0.2, 1.4])))
        val = mixture_expectation(0.6, 0.8j, np.eye(2), amps)
        assert_small(val - 1.0, 1e-12)

    def test_equal_mixture_gives_mean_energy(self):
        g, beta = -0.6, 1.5
        p = np.array([0.9, 0.4])
        h = rashba(g, beta, p)
        c = 1.0 / np.sqrt(2.0)
        val = mixture_expectation(c, c, h, eigen_amplitudes(*phi_angles(g, p)))
        assert_small(val - 0.5 * sum(eigenvalues(beta, p)), 1e-11)

    def test_vanishing_associated_norm_is_nan(self):
        # zero dual rows give <assoc | psi> = 0 on the second stack element only
        p = np.array([0.7, -0.3])
        one = eigen_amplitudes(*phi_angles(0.4, p))
        amps = np.stack([one, one * [[1.0], [1.0], [0.0], [0.0]]])
        val = mixture_expectation(1.0, 0.0, rashba(0.4, 1.2, p), amps)
        assert_small(val[0] - eigenvalues(1.2, p)[0], 1e-11)
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
        assert_small(v - np.array([1.0, 0.0, 0.0]), TOL)

    def test_point_value(self):
        v = spin_expectations(eigen_amplitudes(*phi_angles(0.0, np.array([1.0, 0.0])))[0])
        assert_small(v - np.array([0.0, -1.0, 0.0]), TOL)

    def test_planar_for_eigenstates(self):
        g, _, p = random_params(np.random.default_rng(61), 50)
        assert_small(spin_expectations(eigen_amplitudes(*phi_angles(g, p))[:, :2])[..., 2], TOL)

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
        assert_small(continuity_residual(0.0, 1.0, *pair(0.0, 1.0, [[0.8, 0.5]] * 2, [0, 1])), TOL)

    def test_two_momentum_mixture_deformed(self):
        g = 0.6
        kernel = continuity_residual(g, 1.0, *pair(g, 1.0, [[0.9, 0.4], [0.3, -0.4]], [0, 1]))
        assert_small(kernel, TOL)

    def test_equal_p2_pair_fails(self):
        # at gamma != 0 the identity needs opposite p2; a same-p2 pair misses it
        g = 0.6
        got = continuity_residual(g, 1.0, *pair(g, 1.0, [[0.9, 0.4], [0.3, 0.4]], [0, 1]))
        assert abs(got) == pytest.approx(0.593, abs=0.01)

    def test_free_particle(self):
        # beta ~ 0: plain free-particle continuity
        assert_small(continuity_residual(0.0, 1e-6, *pair(0.0, 1e-6, [[1.0, 0.7]] * 2, [0, 1])), TOL)


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
        assert_small(np.vdot(l[:, 0], r[:, 1]), 1e-8)
        assert_small(np.vdot(l[:, 1], r[:, 0]), 1e-8)
