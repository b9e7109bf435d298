import zlib

import numpy as np
import pytest

from bispinor import timereversal
from bispinor.harness import checks
from bispinor.harness.config import SuiteConfig
from bispinor.momenta import magnetic, rashba
from bispinor.multivector import E13, deformed_generators, time_reverse_matrix
from bispinor.timereversal import (
    generator_reversal,
    kramers_pairing,
    noncommutation_witness,
    pseudo_adjoint,
    pseudo_hermitian_residual,
    reversed_schrodinger_residual,
    reverse_amplitudes,
)

TOL = 1e-12


def random_spinor(rng):
    return rng.normal(size=2) + 1j * rng.normal(size=2)


class TestAction:
    def test_basis_spinor(self):
        assert np.array_equal(reverse_amplitudes([1.0, 0.0]), [0.0, 1.0])

    def test_amplitude_rule(self):
        out = reverse_amplitudes([0.3 + 1j, -2.0 + 0.5j])
        assert np.array_equal(out, [2.0 + 0.5j, 0.3 - 1j])

    def test_square_is_minus_one(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            psi = random_spinor(rng)
            out = reverse_amplitudes(reverse_amplitudes(psi))
            assert np.abs(out + psi).max() < TOL

    def test_antiunitarity(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            a, b = random_spinor(rng), random_spinor(rng)
            ta, tb = reverse_amplitudes(a), reverse_amplitudes(b)
            assert abs(np.vdot(ta, tb) - np.vdot(b, a)) < TOL

    def test_norm_preserving(self):
        psi = np.array([3.0 - 1j, 0.2j])
        out = reverse_amplitudes(psi)
        assert abs(np.linalg.norm(out) - np.linalg.norm(psi)) < TOL

    def test_orthogonal_to_original(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            psi = random_spinor(rng)
            assert abs(np.vdot(reverse_amplitudes(psi), psi)) < TOL


class TestPseudoHermiticity:
    def test_rashba_family(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            g = float(rng.uniform(-0.95, 0.95))
            beta = float(rng.uniform(0.1, 4.0))
            p = rng.uniform(-3, 3, size=2)
            for gg in (g, -g):
                for sign in (1, -1):
                    h_minus_p, h_p = (rashba(gg, beta, q, sign=sign) for q in (-p, p))
                    assert pseudo_hermitian_residual(h_minus_p, h_p) < TOL

    def test_gamma_zero_also_hermitian(self):
        p = np.array([0.4, 1.2])
        h = rashba(0.0, 1.0, p)
        assert pseudo_hermitian_residual(rashba(0.0, 1.0, -p), h) < TOL
        assert np.abs(h - h.conj().T).max() < TOL

    def test_conjugation_realizes_adjoint(self):
        g, beta = 0.6, 1.3
        p = np.array([0.7, -0.9])
        conjugated = time_reverse_matrix(rashba(g, beta, -p))
        assert np.abs(conjugated - rashba(g, beta, p).conj().T).max() < TOL

    def test_bare_generator_is_not_pseudo_hermitian(self):
        g = 0.5
        s3 = deformed_generators(g)[3]
        residual = pseudo_hermitian_residual(s3, s3)
        assert residual > 0.1
        # ... but the generator conjugation rule holds
        conj = time_reverse_matrix(s3)
        assert np.abs(conj + deformed_generators(-g)[3]).max() < TOL

    def test_rashba_is_pseudo_adjoint_fixed_point(self):
        # H^#(p) = U H(-p)^T U^-1 = H(p) characterizes pseudo-Hermiticity
        g, beta = -0.4, 0.8
        p = np.array([1.1, 0.2])
        assert np.abs(pseudo_adjoint(rashba(g, beta, -p)) - rashba(g, beta, p)).max() < TOL

    def test_generic_matrix_is_not_a_fixed_point(self):
        m = np.array([[1.0, 2.0], [0.5j, -1.0]])
        res = np.abs(pseudo_adjoint(m) - m).max()
        assert res > 0.1


class TestGeneratorReversal:
    def test_report_small_residuals(self):
        for g in (0.0, 0.3, -0.85):
            rep = generator_reversal(g)
            assert rep["vector_rule"] < TOL
            assert rep["listed_set"] < TOL

    def test_sigma2_special_case(self):
        s2 = deformed_generators(0.7)[2]
        assert np.abs(time_reverse_matrix(s2) + s2).max() < TOL

    def test_classic_limit(self):
        generators = deformed_generators(0.0)
        for m in (1, 2, 3):
            conj = time_reverse_matrix(generators[m])
            assert np.abs(conj + generators[m]).max() < TOL

    def test_random_gamma_sweep(self):
        rng = np.random.default_rng(89)
        for g in rng.uniform(-0.99, 0.99, size=20):
            rep = generator_reversal(float(g))
            assert max(rep.values()) < TOL


class TestKramers:
    def test_proportionality_and_eigenproperty(self):
        rng = np.random.default_rng(97)
        for _ in range(100):
            g = float(rng.uniform(-0.95, 0.95))
            beta = float(rng.uniform(0.1, 4.0))
            p = rng.uniform(-3, 3, size=2)
            if np.hypot(*p) < 0.05:
                continue
            out = kramers_pairing(g, beta, p)
            assert out.residual < 1e-10
            assert out.n_plus in (0, 1) and out.n_minus in (0, 1)

    def test_same_momentum_matching_wins(self):
        out = kramers_pairing(0.6, 1.0, np.array([1.2, -0.8]))
        assert out.same_p_residual < 1e-10

    def test_sign_pattern(self):
        out = kramers_pairing(0.3, 1.0, np.array([0.9, 0.4]))
        # plus branch maps with +, minus branch with -
        assert (out.n_plus, out.n_minus) == (0, 1)


class TestDynamics:
    def test_reversed_schrodinger_residual(self):
        assert reversed_schrodinger_residual(0.5, 1.0, np.array([1.0, 0.5])) < TOL
        assert reversed_schrodinger_residual(0.6, 2.0, np.array([30.0, -20.0])) < 1e-10

    def test_nan_residual_is_infinite(self):
        # a NaN momentum gives NaN entries, which must read as a failure
        with np.errstate(all="ignore"):
            assert reversed_schrodinger_residual(0.5, 1.0, np.array([np.nan, 1.0])) == np.inf

    def test_undaggered_hamiltonian_fails(self, monkeypatch):
        # with H(-p) in place of H^dagger(-p) the registry's default draws
        # miss the identity by about 0.76
        monkeypatch.setattr(timereversal, "reversion_matrix", lambda m: m)
        cfg = SuiteConfig()
        rng = np.random.default_rng([cfg.seed, zlib.crc32(b"timereversal.reversed_schrodinger")])
        assert checks.check_reversed_schrodinger(cfg, rng)[0] == pytest.approx(0.76, abs=0.01)


class TestWitness:
    def test_vanishes_at_gamma_zero(self):
        assert noncommutation_witness(0.0, 1.0, np.array([1.0, 0.5])) < TOL

    def test_detectable_for_deformed(self):
        for g in (0.3, -0.6, 0.9):
            assert noncommutation_witness(g, 1.0, np.array([1.0, 0.5])) > 1e-6


class TestMagneticConvention:
    def test_field_reversal_restores_pseudo_hermiticity(self):
        u = E13
        g, beta = 0.5, 1.2
        a_vec = np.array([0.3, -0.7])
        b3 = 0.9
        p = np.array([0.8, 1.4])
        h = magnetic(g, beta, a_vec, b3, p)
        h_rev = magnetic(g, beta, -a_vec, -b3, -p)
        assert np.abs(h_rev @ u - u @ h.T).max() < TOL

    def test_fixed_field_convention_fails(self):
        a_vec, p = np.array([0.3, -0.7]), np.array([0.8, 1.4])
        h_minus_p, h_p = (magnetic(0.5, 1.2, a_vec, 0.9, q) for q in (-p, p))
        assert pseudo_hermitian_residual(h_minus_p, h_p) > 0.1
