import numpy as np

from bispinor.ideal import (
    basis_flip,
    build_ideal_basis,
    c1_form,
    c2_form,
    ideal_components,
    ideal_matrix,
    invariance_group_check,
)
from bispinor.multivector import E13, make_deformed_basis
from bispinor.spectrum import amplitude_inner, eigensystem
from bispinor.timereversal import reverse_amplitudes

TOL = 1e-12

G_WANT = (
    np.array([[1, 0], [0, 0]], dtype=complex),
    np.array([[0, 0], [1j, 0]], dtype=complex),
    np.array([[0, 0], [-1, 0]], dtype=complex),
    np.array([[1j, 0], [0, 0]], dtype=complex),
)


def random_spinor(rng):
    return rng.normal(size=2) + 1j * rng.normal(size=2)


class TestIdealBasis:
    def test_gamma_zero(self):
        ib = build_ideal_basis(make_deformed_basis(0.0))
        for got, want in zip((ib.g0, ib.g1, ib.g2, ib.g3), G_WANT):
            assert np.abs(got - want).max() < TOL

    def test_gamma_half_same_constants(self):
        ib = build_ideal_basis(make_deformed_basis(0.5))
        for got, want in zip((ib.g0, ib.g1, ib.g2, ib.g3), G_WANT):
            assert np.abs(got - want).max() < TOL

    def test_random_gamma_independence(self):
        rng = np.random.default_rng(101)
        for g in rng.uniform(-0.99, 0.99, size=20):
            ib = build_ideal_basis(make_deformed_basis(float(g)))
            for got, want in zip((ib.g0, ib.g1, ib.g2, ib.g3), G_WANT):
                assert np.abs(got - want).max() < TOL

    def test_idempotent(self):
        ib = build_ideal_basis(make_deformed_basis(0.3))
        assert np.abs(ib.g0 @ ib.g0 - ib.g0).max() < TOL


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

    def test_component_decomposition(self):
        rng = np.random.default_rng(107)
        ib = build_ideal_basis(make_deformed_basis(0.2))
        for _ in range(20):
            psi = random_spinor(rng)
            z = ideal_components(psi)
            recon = sum(zj * gj for zj, gj in
                        zip(z, (ib.g0, ib.g1, ib.g2, ib.g3)))
            assert np.abs(recon - ideal_matrix(psi)).max() < TOL


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
        es = eigensystem(0.4, 1.0, np.array([1.0, 0.7]))
        s = ideal_matrix(es.amplitudes[0])
        assert abs(c1_form(s, s) - 1.0) < TOL

    def test_c1_biorthogonality(self):
        rng = np.random.default_rng(137)
        for _ in range(50):
            g = float(rng.uniform(-0.9, 0.9))
            psi_p, _, _, dual_m = ideal_matrix(
                eigensystem(g, 1.0, rng.uniform(0.3, 2.0, size=2)).amplitudes)
            assert abs(c1_form(dual_m, psi_p)) < TOL

    def test_c2_biorthogonality(self):
        rng = np.random.default_rng(139)
        for _ in range(50):
            g = float(rng.uniform(-0.9, 0.9))
            psi_p, _, _, dual_m = ideal_matrix(
                eigensystem(g, 1.0, rng.uniform(0.3, 2.0, size=2)).amplitudes)
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
        in_g, in_gp = invariance_group_check(u)
        assert in_g and in_gp

    def test_nonunitary_rejected(self):
        in_g, in_gp = invariance_group_check(np.diag([2.0, 1.0]))
        assert not in_g
        assert not in_gp

    def test_members_preserve_inner_products(self):
        rng = np.random.default_rng(157)
        for _ in range(50):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(z)
            in_g, in_gp = invariance_group_check(q)
            assert in_g and in_gp
            a, b = random_spinor(rng), random_spinor(rng)
            ia, ib = ideal_matrix(a), ideal_matrix(b)
            ra, rb = q @ ia, q @ ib
            assert abs(c1_form(ra, rb) - c1_form(ia, ib)) < 1e-11
            assert abs(c2_form(ra, rb) - c2_form(ia, ib)) < 1e-11
