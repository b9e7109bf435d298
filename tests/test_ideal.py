import numpy as np

from bispinor.ideal import (
    basis_flip,
    build_ideal_basis,
    c1_form,
    c2_form,
    ideal_matrix,
    invariance_group_defects,
)
from bispinor.multivector import E13, amplitude_inner
from bispinor.spectrum import eigen_amplitudes, phi_angles
from bispinor.timereversal import reverse_amplitudes

TOL = 1e-12

G_WANT = np.array([[[1, 0], [0, 0]], [[0, 0], [1j, 0]],
                   [[0, 0], [-1, 0]], [[1j, 0], [0, 0]]], dtype=complex)


def random_spinor(rng):
    return rng.normal(size=2) + 1j * rng.normal(size=2)


class TestIdealBasis:
    def test_gamma_zero(self):
        assert np.abs(build_ideal_basis(0.0) - G_WANT).max() < TOL

    def test_gamma_half_same_constants(self):
        assert np.abs(build_ideal_basis(0.5) - G_WANT).max() < TOL

    def test_random_gamma_independence(self):
        rng = np.random.default_rng(101)
        for g in rng.uniform(-0.99, 0.99, size=20):
            assert np.abs(build_ideal_basis(float(g)) - G_WANT).max() < TOL

    def test_idempotent(self):
        g0 = build_ideal_basis(0.3)[0]
        assert np.abs(g0 @ g0 - g0).max() < TOL


class TestConversion:
    def test_basis_spinor_maps_to_g0(self):
        out = ideal_matrix([1.0, 0.0])
        assert np.abs(out - G_WANT[0]).max() == 0.0

    def test_column_placement(self):
        out = ideal_matrix([1j, -1.0])
        want = np.array([[1j, 0], [-1, 0]])
        assert np.abs(out - want).max() == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            psi = random_spinor(rng)
            assert np.array_equal(ideal_matrix(psi)[:, 0], psi)


class TestFlip:
    def test_identity_flips_to_e13(self):
        assert np.abs(basis_flip(np.eye(2)) - E13).max() == 0.0

    def test_double_flip_is_minus(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert np.abs(basis_flip(basis_flip(u)) + u).max() < TOL

    def test_consistent_with_time_reversal(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            psi = random_spinor(rng)
            via_flip = basis_flip(ideal_matrix(psi))[:, 0]
            assert np.abs(via_flip - reverse_amplitudes(psi)).max() < TOL


class TestClosure:
    def test_left_multiplication_stays_in_ideal(self):
        rng = np.random.default_rng(127)
        for _ in range(200):
            u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            prod = u @ ideal_matrix(random_spinor(rng))
            assert np.abs(prod[:, 1]).max() == 0.0


class TestInnerProducts:
    def test_c1_equals_amplitude_inner(self):
        rng = np.random.default_rng(131)
        for _ in range(100):
            a, b = random_spinor(rng), random_spinor(rng)
            got = c1_form(ideal_matrix(a), ideal_matrix(b))
            assert abs(got - amplitude_inner(a, b)) < TOL

    def test_c1_normalization(self):
        s = ideal_matrix(eigen_amplitudes(*phi_angles(0.4, np.array([1.0, 0.7])))[0])
        assert abs(c1_form(s, s) - 1.0) < TOL

    def test_c1_biorthogonality(self):
        rng = np.random.default_rng(137)
        for _ in range(50):
            g = float(rng.uniform(-0.9, 0.9))
            psi_p, _, _, dual_m = ideal_matrix(
                eigen_amplitudes(*phi_angles(g, rng.uniform(0.3, 2.0, size=2))))
            assert abs(c1_form(dual_m, psi_p)) < TOL

    def test_c2_biorthogonality(self):
        rng = np.random.default_rng(139)
        for _ in range(50):
            g = float(rng.uniform(-0.9, 0.9))
            psi_p, _, _, dual_m = ideal_matrix(
                eigen_amplitudes(*phi_angles(g, rng.uniform(0.3, 2.0, size=2))))
            assert abs(c2_form(dual_m, psi_p)) < TOL

    def test_c2_conjugates_c1(self):
        rng = np.random.default_rng(149)
        for _ in range(50):
            a, b = random_spinor(rng), random_spinor(rng)
            ia, ib = ideal_matrix(a), ideal_matrix(b)
            assert abs(c2_form(ia, ib) - np.conj(c1_form(ia, ib))) < TOL

    def test_flip_antiunitarity(self):
        rng = np.random.default_rng(151)
        for _ in range(50):
            a, b = random_spinor(rng), random_spinor(rng)
            ia, ib = ideal_matrix(a), ideal_matrix(b)
            lhs = c1_form(basis_flip(ib), basis_flip(ia))
            assert abs(lhs - c1_form(ia, ib)) < TOL


class TestInvarianceGroups:
    def test_rotation_is_member(self):
        alpha = 0.6
        u = np.cos(alpha) * np.eye(2) + 1j * np.sin(alpha) * np.array(
            [[0.0, -1j], [1j, 0.0]])
        assert np.abs(invariance_group_defects(u)).max() < TOL

    def test_nonunitary_rejected(self):
        # for u = diag(2, 1): reversion(u) u - 1 = diag(3, 0) and
        # conj_cl(u) u_flat - 1 = diag(1, 2) diag(1, 2) - 1 = diag(0, 3)
        defect_g, defect_gp = invariance_group_defects(np.diag([2.0, 1.0]))
        assert np.array_equal(defect_g, np.diag([3.0, 0.0]))
        assert np.array_equal(defect_gp, np.diag([0.0, 3.0]))

    def test_scaled_unitary_defect(self):
        # (1+eps) Q is off the groups by (1+eps)^2 - 1, about 2 eps
        rng = np.random.default_rng(163)
        q, _ = np.linalg.qr(rng.normal(size=(20, 2, 2)) + 1j * rng.normal(size=(20, 2, 2)))
        for eps in (1e-3, -1e-6, 0.1):
            for defect in invariance_group_defects((1 + eps) * q):
                assert defect.shape == (20, 2, 2)
                largest = np.abs(defect).max(axis=(-2, -1))
                assert np.abs(largest - abs(2 * eps + eps * eps)).max() < 1e-12

    def test_members_preserve_inner_products(self):
        rng = np.random.default_rng(157)
        for _ in range(50):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(z)
            assert np.abs(invariance_group_defects(q)).max() < TOL
            a, b = random_spinor(rng), random_spinor(rng)
            ia, ib = ideal_matrix(a), ideal_matrix(b)
            ra, rb = q @ ia, q @ ib
            assert abs(c1_form(ra, rb) - c1_form(ia, ib)) < 1e-11
            assert abs(c2_form(ra, rb) - c2_form(ia, ib)) < 1e-11
