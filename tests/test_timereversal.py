import zlib

import numpy as np
import pytest

from bispinor import timereversal
from bispinor.harness import checks
from bispinor.harness.config import SuiteConfig
from bispinor.momenta import magnetic, rashba
from bispinor.multivector import (
    E13,
    amplitude_inner,
    clifford_conjugation_matrix,
    deformed_generators,
    time_reverse_matrix,
)
from bispinor.spectrum import eigen_amplitudes, phi_angles
from bispinor.timereversal import (
    generator_reversal,
    kramers_pairing,
    noncommutation_witness,
    pseudo_hermitian_residual,
    reversed_schrodinger_residual,
    reverse_amplitudes,
)

from conftest import TOL, assert_small, random_spinor, uniform_draws


class TestAction:
    def test_basis_spinor(self):
        assert np.array_equal(reverse_amplitudes([1.0, 0.0]), [0.0, 1.0])

    def test_amplitude_rule(self):
        out = reverse_amplitudes([0.3 + 1j, -2.0 + 0.5j])
        assert np.array_equal(out, [2.0 + 0.5j, 0.3 - 1j])

    def test_square_is_minus_one(self):
        psi = random_spinor(np.random.default_rng(71), 30)
        assert_small(reverse_amplitudes(reverse_amplitudes(psi)) + psi, TOL)

    def test_antiunitarity(self):
        spinors = random_spinor(np.random.default_rng(73), 60)
        a, b = spinors[0::2], spinors[1::2]
        ta, tb = reverse_amplitudes(a), reverse_amplitudes(b)
        assert_small(amplitude_inner(ta, tb) - amplitude_inner(b, a), TOL)

    def test_norm_preserving(self):
        psi = np.array([3.0 - 1j, 0.2j])
        out = reverse_amplitudes(psi)
        assert_small(np.linalg.norm(out) - np.linalg.norm(psi), TOL)

    def test_orthogonal_to_original(self):
        psi = random_spinor(np.random.default_rng(79), 30)
        assert_small(amplitude_inner(reverse_amplitudes(psi), psi), TOL)


class TestPseudoHermiticity:
    def test_rashba_family(self):
        g, beta, *p = uniform_draws(np.random.default_rng(83), 100, (-0.95, 0.1, -3, -3),
                                    (0.95, 4.0, 3, 3)).T
        p = np.stack(p, axis=-1)
        # the four sign pairs of (gamma, beta) at every sample
        gg, b = np.array([1, 1, -1, -1])[:, None] * g, np.array([1, -1, 1, -1])[:, None] * beta
        assert_small(pseudo_hermitian_residual(rashba(gg, b, -p), rashba(gg, b, p)), TOL)

    def test_gamma_zero_also_hermitian(self):
        p = np.array([0.4, 1.2])
        h = rashba(0.0, 1.0, p)
        assert_small(pseudo_hermitian_residual(rashba(0.0, 1.0, -p), h), TOL)
        assert_small(h - h.conj().T, TOL)

    def test_conjugation_realizes_adjoint(self):
        g, beta = 0.6, 1.3
        p = np.array([0.7, -0.9])
        conjugated = time_reverse_matrix(rashba(g, beta, -p))
        assert_small(conjugated - rashba(g, beta, p).conj().T, TOL)

    def test_bare_generator_is_not_pseudo_hermitian(self):
        g = 0.5
        s3 = deformed_generators(g)[3]
        residual = pseudo_hermitian_residual(s3, s3)
        assert np.abs(residual).max() > 0.1
        # ... but the generator conjugation rule holds
        conj = time_reverse_matrix(s3)
        assert_small(conj + deformed_generators(-g)[3], TOL)

    def test_rashba_is_pseudo_adjoint_fixed_point(self):
        # H^#(p) = U H(-p)^T U^-1 = H(p) characterizes pseudo-Hermiticity
        g, beta = -0.4, 0.8
        p = np.array([1.1, 0.2])
        h_sharp = clifford_conjugation_matrix(rashba(g, beta, -p))
        assert_small(h_sharp - rashba(g, beta, p), TOL)

    def test_generic_matrix_is_not_a_fixed_point(self):
        m = np.array([[1.0, 2.0], [0.5j, -1.0]])
        res = np.abs(clifford_conjugation_matrix(m) - m).max()
        assert res > 0.1


class TestGeneratorReversal:
    def test_report_small_residuals(self):
        assert_small(generator_reversal(np.array([0.0, 0.3, -0.85])), TOL)

    def test_sigma2_special_case(self):
        s2 = deformed_generators(0.7)[2]
        assert_small(time_reverse_matrix(s2) + s2, TOL)

    def test_classic_limit(self):
        vectors = deformed_generators(0.0)[1:4]
        assert_small(time_reverse_matrix(vectors) + vectors, TOL)

    def test_random_gamma_sweep(self):
        assert_small(generator_reversal(np.random.default_rng(89).uniform(-0.99, 0.99, size=20)), TOL)


class TestKramers:
    def test_proportionality_and_eigenproperty(self):
        rng = np.random.default_rng(97)
        for _ in range(100):
            g = float(rng.uniform(-0.95, 0.95))
            beta = float(rng.uniform(0.1, 4.0) * rng.choice([-1.0, 1.0]))
            p = rng.uniform(-3, 3, size=2)
            if np.hypot(*p) < 0.05:
                continue
            terms = kramers_pairing(g, p)
            assert list(terms) == ["dual_matching", "orthogonality"]
            # exact by the docstring's reasons, not to a tolerance
            assert not terms["dual_matching"].any() and not terms["orthogonality"].any()
            assert_small(reversed_schrodinger_residual(g, beta, p), 1e-10)

    def test_sign_pattern(self):
        # T psi_+ = dual_- and T psi_- = -dual_+ at the same momentum label,
        # entry for entry (a zero imaginary part may differ in its sign bit)
        psi_plus, psi_minus, dual_plus, dual_minus = eigen_amplitudes(
            *phi_angles(0.3, np.array([0.9, 0.4])))
        assert np.array_equal(reverse_amplitudes(psi_plus), dual_minus)
        assert np.array_equal(reverse_amplitudes(psi_minus), -dual_plus)


class TestDynamics:
    def test_reversed_schrodinger_residual(self):
        for g, beta, p, tol in ((0.5, 1.0, [1.0, 0.5], TOL), (0.6, 2.0, [30.0, -20.0], 1e-10)):
            assert_small(reversed_schrodinger_residual(g, beta, np.array(p)), tol)

    def test_nan_residual_is_infinite(self):
        # a NaN momentum gives NaN entries, which the registry's reducer
        # must read as an infinite residual, a failure
        with np.errstate(all="ignore"):
            r = reversed_schrodinger_residual(0.5, 1.0, np.array([np.nan, 1.0]))
        assert checks.worst_term({"reversed_eigen_identity": r})[0] == np.inf

    def test_reversed_schrodinger_check_marks_nonfinite_rows(self):
        # the overflowing row stays non-finite; the registry's reducer reads it as inf
        p = np.array([[1.0, 0.5], [1e160, 1e160], [0.3, -2.0]])
        with np.errstate(all="ignore"):
            r = reversed_schrodinger_residual(0.4, 1.0, p)
        assert not np.isfinite(r[1]).all()
        assert checks.worst_term({"reversed_eigen_identity": r}) == (np.inf, "reversed_eigen_identity")
        assert_small(r[[0, 2]], 1e-12)

    def test_undaggered_hamiltonian_fails(self, monkeypatch):
        # with H(-p) in place of H^dagger(-p) the registry's default draws
        # miss the identity by about 0.76
        monkeypatch.setattr(timereversal, "reversion_matrix", lambda m: m)
        cfg = SuiteConfig()
        rng = np.random.default_rng([cfg.seed, zlib.crc32(b"timereversal.reversed_schrodinger")])
        residual, _ = checks.worst_term(checks.check_reversed_schrodinger(cfg, rng)[0])
        assert residual == pytest.approx(0.76, abs=0.01)


class TestWitness:
    def test_vanishes_at_gamma_zero(self):
        assert_small(noncommutation_witness(0.0, 1.0, np.array([1.0, 0.5])), TOL)

    def test_detectable_for_deformed(self):
        for g in (0.3, -0.6, 0.9):
            assert np.abs(noncommutation_witness(g, 1.0, np.array([1.0, 0.5]))).max() > 1e-6


class TestMagneticConvention:
    def test_field_reversal_restores_pseudo_hermiticity(self):
        u = E13
        g, beta = 0.5, 1.2
        a_vec = np.array([0.3, -0.7])
        b3 = 0.9
        p = np.array([0.8, 1.4])
        h = magnetic(g, beta, a_vec, b3, p)
        h_rev = magnetic(g, beta, -a_vec, -b3, -p)
        assert_small(h_rev @ u - u @ h.T, TOL)

    def test_fixed_field_convention_fails(self):
        a_vec, p = np.array([0.3, -0.7]), np.array([0.8, 1.4])
        h_minus_p, h_p = (magnetic(0.5, 1.2, a_vec, 0.9, q) for q in (-p, p))
        assert np.abs(pseudo_hermitian_residual(h_minus_p, h_p)).max() > 0.1
