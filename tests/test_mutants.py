"""Named broken implementations that a registry check must FAIL.

Some checks read exactly 0 on correct code, or test only part of a closed
form; each mutant below is a plausible slip in the library, patched in where
the check looks it up, and the check's entry at the default configuration
must turn to "fail" and name the sub-identity (term) that caught it.
"""

import numpy as np
import pytest

from bispinor import biortho, ideal, momenta, multivector, spectrum, timereversal
from bispinor.harness import checks, run_all
from bispinor.harness.config import SuiteConfig


def entry(test_id):
    (got,) = [e for e in run_all(SuiteConfig()).entries if e.test_id == test_id]
    return got


_spin_expectations = spectrum.spin_expectations     # the originals, kept across patches
_to_matrix = multivector.to_matrix
_pauli_matrix = multivector.pauli_matrix
_build_ideal_basis = ideal.build_ideal_basis
_synthesize_generators = biortho.synthesize_generators
_magnetic = momenta.magnetic
_magnetic_shifts = momenta.magnetic_shifts
_rashba_shifts = momenta.rashba_shifts
_eigen_amplitudes = spectrum.eigen_amplitudes
_c2_form = ideal.c2_form
_matvec = multivector.matvec
_reverse_amplitudes = timereversal.reverse_amplitudes
_phi_angles = spectrum.phi_angles


def spin_without_plane(amps):
    return _spin_expectations(amps) * [0.0, 0.0, 1.0]


def spin_with_x_and_y_swapped(amps):
    return _spin_expectations(amps)[..., [1, 0, 2]]


def time_reversal_without_conjugation(m):
    return multivector.time_reverse_matrix(np.conj(m))


def rashba_with_stray_zeeman(gamma, beta, p):
    return momenta.magnetic(gamma, beta, (0.0, 0.0), 0.3, p)


def magnetic_with_v1_and_v2_swapped(gamma, beta, a_vec, b3, p):
    # the closed form with the e1 and e2 coefficients trading places
    q = np.asarray(p) + a_vec
    beta = np.asarray(beta)
    return _pauli_matrix(0.5 * (q[..., 0] ** 2 + q[..., 1] ** 2 + beta ** 2),
                         -beta * q[..., 0], beta * q[..., 1], b3, gamma)


def map_with_gamma_mirrored(s, v1, v2, v3, gamma=0.0):
    return _pauli_matrix(s, v1, v2, v3, -np.asarray(gamma))


def map_with_e2_flipped(s, v1, v2, v3, gamma=0.0):
    return _pauli_matrix(s, v1, -v2, v3, gamma)


def map_with_e23_and_e31_swapped(a, gamma=0.0):
    return _to_matrix(np.asarray(a)[..., [0, 1, 2, 3, 4, 6, 5, 7]], gamma)


def group_defects_zeroed(u):
    return np.zeros(np.shape(u)), np.zeros(np.shape(u))


def ideal_basis_with_g1_and_g2_swapped(gamma):
    return _build_ideal_basis(gamma)[..., [0, 2, 1, 3], :, :]


def generators_conjugated(theta):
    return np.conj(_synthesize_generators(theta))


def reversal_without_minus(amps):
    c = np.conj(np.asarray(amps, dtype=complex))
    return np.stack([c[..., 1], c[..., 0]], axis=-1)


def reversal_negated(amps):
    # -T is antiunitary and squares to -1 like T; of the time-reversal
    # checks only the fixed signs of the Kramers analogue tell it apart
    return -_reverse_amplitudes(amps)


def flip_without_conjugation(u):
    return multivector.E13 @ np.asarray(u, dtype=complex)


def pseudo_adjoint_without_transpose(m):
    # Clifford conjugation, which forms the pseudo-adjoint, with the
    # conjugate taken but not the transpose
    return multivector.time_reverse_matrix(np.conj(m))


def c2_with_arguments_swapped(a, b):
    return _c2_form(b, a)


def amplitudes_with_dual_angles_swapped(phi_plus, phi_minus):
    amps = _eigen_amplitudes(phi_plus, phi_minus)
    amps[..., 2:, 1] = _eigen_amplitudes(phi_minus, phi_plus)[..., 2:, 1]
    return amps


def amplitudes_with_dual_phases_conjugated(phi_plus, phi_minus):
    # dual_pm = (+-1, e^{+i phi_mp})/sqrt2, the phase sign of psi_mp
    amps = _eigen_amplitudes(phi_plus, phi_minus)
    amps[..., 2:, 1] = np.conj(amps[..., 2:, 1])
    return amps


def matvec_transposed(m, v):
    return _matvec(np.swapaxes(m, -1, -2), v)


def inner_without_conjugation(a, b):
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def rashba_shifts_swapped(beta):
    # the shifts of P^A and P^B where those of P^B and P^A belong
    return _rashba_shifts(beta)[::-1]


def magnetic_without_fields(gamma, beta, a_vec, b3, p):
    # the vector potential and the field dropped: the Rashba Hamiltonian
    return _magnetic(gamma, beta, (0.0, 0.0), 0.0, p)


def magnetic_shifts_without_branch(beta, a_vec):
    # the shifts drop the sign of beta, so both sectors get those of +|beta|
    return _magnetic_shifts(np.abs(beta), a_vec)


def continuity_with_weights(sigma2_weight, sigma1_weight):
    """The continuity pair kernel with the weights of the spin current's
    sigma2 and sigma1 pieces, functions of (beta, omega), in place of beta
    and beta/omega."""
    def residual(gamma, beta, amplitudes, momenta, energies):
        a, b = amplitudes[..., 0, :], amplitudes[..., 1, :]
        dk, k2 = momenta[..., 1, :] - momenta[..., 0, :], (momenta * momenta).sum(axis=-1)
        weight = energies[..., 0] - energies[..., 1] + 0.5 * (k2[..., 1] - k2[..., 0])
        omega = multivector.deformation_omega(gamma)
        return (weight * multivector.amplitude_inner(a, b)
                - sigma2_weight(beta, omega) * dk[..., 0]
                * multivector.amplitude_inner(a, _matvec(multivector.SIGMA2, b))
                + sigma1_weight(beta, omega) * dk[..., 1]
                * multivector.amplitude_inner(a, _matvec(multivector.SIGMA1, b)))
    return residual


def phi_plus_shifted_by_half_pi(gamma, p):
    plus, minus = _phi_angles(gamma, p)
    return plus + np.pi / 2.0, minus


MUTANTS = {
    # (test_id, term, module, attribute, broken implementation)
    "spin_without_plane": ("spectrum.spin_vector_planar", "closed_form", spectrum,
                           "spin_expectations", spin_without_plane),
    "spin_with_x_and_y_swapped": ("spectrum.spin_vector_planar", "closed_form", spectrum,
                                  "spin_expectations", spin_with_x_and_y_swapped),
    "time_reversal_without_conjugation": ("clifford.reversed_generators", "listed_set",
                                          timereversal, "time_reverse_matrix",
                                          time_reversal_without_conjugation),
    "rashba_with_stray_zeeman": ("timereversal.pseudo_hermiticity", "r_plus_gamma", momenta,
                                 "rashba", rashba_with_stray_zeeman),
    # the closed form every momenta operator hands its (s, v) to (reads 36)
    "map_with_gamma_mirrored": ("spectrum.eigen_identity", "right", momenta,
                                "pauli_matrix", map_with_gamma_mirrored),
    "map_with_e2_flipped": ("momenta.factorization", "pb_pa", momenta,
                            "pauli_matrix", map_with_e2_flipped),
    # the map the generators are built with (reads 2.5)
    "map_with_e23_and_e31_swapped": ("clifford.reversed_generators", "listed_set", multivector,
                                     "to_matrix", map_with_e23_and_e31_swapped),
    # one per array builder
    "group_defects_zeroed": ("ideal.invariance_groups", "nonunitary_rejected", ideal,
                             "invariance_group_defects", group_defects_zeroed),
    "ideal_basis_with_g1_and_g2_swapped": ("ideal.basis_reproduction", "g1", ideal,
                                           "build_ideal_basis",
                                           ideal_basis_with_g1_and_g2_swapped),
    "generators_conjugated": ("biortho.generator_synthesis", "generators", biortho,
                              "synthesize_generators", generators_conjugated),
    # the factor NU of N = N' = NU (x) 1 halved: {ELL, NU} - 2 reads -1
    "linearization_with_nu_halved": ("momenta.linearization_relations", "l_n_cross",
                                      momenta, "NU", momenta.NU / 2.0),
    # sign, conjugation and argument-order slips in the time reversal, the
    # flip and the inner products
    "reversal_without_minus": ("timereversal.anti_involution", "t_squared", timereversal,
                               "reverse_amplitudes", reversal_without_minus),
    "reversal_negated": ("timereversal.kramers_analogue", "dual_matching", timereversal,
                         "reverse_amplitudes", reversal_negated),
    "flip_without_conjugation": ("ideal.flip_consistency", "flip_is_time_reversal", ideal,
                                 "basis_flip", flip_without_conjugation),
    "pseudo_adjoint_without_transpose": ("timereversal.pseudo_hermiticity", "r_plus_gamma",
                                         timereversal, "clifford_conjugation_matrix",
                                         pseudo_adjoint_without_transpose),
    "c2_with_arguments_swapped": ("ideal.inner_products", "c2_conjugates_c1", ideal,
                                  "c2_form", c2_with_arguments_swapped),
    "amplitudes_with_dual_angles_swapped": ("spectrum.eigen_identity", "dual", checks,
                                            "eigen_amplitudes",
                                            amplitudes_with_dual_angles_swapped),
    # the cross terms read exactly 0 on correct duals
    "amplitudes_with_dual_phases_conjugated": ("spectrum.biorthogonality", "dual_plus_psi_minus",
                                               checks, "eigen_amplitudes",
                                               amplitudes_with_dual_phases_conjugated),
    # the two closed-form contractions of multivector
    "matvec_transposed": ("ideal.left_ideal_closure", "closure", checks, "matvec",
                          matvec_transposed),
    "inner_without_conjugation": ("ideal.inner_products", "c1_inner", checks, "amplitude_inner",
                                  inner_without_conjugation),
    # the sector, the sign of beta, of the shifts the closed form is checked against
    "magnetic_shifts_without_branch": ("momenta.magnetic_consistency", "branch_minus", momenta,
                                       "magnetic_shifts", magnetic_shifts_without_branch),
    # a magnetic Hamiltonian that ignores its fields is pseudo-Hermitian under
    # either convention, so the fixed-field difference is 0 and its witness
    # reads 1.0 (the only mutant that moves the two magnetic witnesses)
    "magnetic_without_fields": ("momenta.magnetic_trs_convention", "witness_fixed_field_plus",
                                momenta, "magnetic", magnetic_without_fields),
    # the closed form behind rashba and magnetic, against the product of the
    # two Clifford momenta
    "magnetic_with_v1_and_v2_swapped": ("momenta.rashba_product_form", "product_form", momenta,
                                        "magnetic", magnetic_with_v1_and_v2_swapped),
    # the SUSY checks on 2x2 blocks: the order of the two Clifford momenta,
    # which puts R^+ in the lower block (reads 34), and the transpose in the
    # Clifford conjugation behind Lambda- = Theta- (reads 5.9)
    "rashba_shifts_swapped": ("susy.algebra", "lower_block", momenta, "rashba_shifts",
                              rashba_shifts_swapped),
    "lambda_minus_without_transpose": ("susy.pseudo_susy", "pseudo_adjoint", checks,
                                       "clifford_conjugation_matrix",
                                       pseudo_adjoint_without_transpose),
    # the spin current's weights (-beta sigma2, beta/omega sigma1): 2 beta -> 2/beta
    # on the sigma2 piece, and beta/omega -> 1/(beta omega) on the sigma1 piece
    "continuity_with_inverse_beta_sigma2": ("spectrum.continuity", "opposite_p2_pair", spectrum,
                                            "continuity_residual",
                                            continuity_with_weights(lambda b, w: 1 / b,
                                                                    lambda b, w: b / w)),
    "continuity_with_inverse_beta_sigma1": ("spectrum.continuity", "opposite_p2_pair", spectrum,
                                            "continuity_residual",
                                            continuity_with_weights(lambda b, w: b,
                                                                    lambda b, w: 1 / (b * w))),
    # tan is pi-periodic, so the flip relations hold modulo pi; a pi/2 slip breaks them
    "phi_plus_shifted_by_half_pi": ("spectrum.flip_relations", "a", spectrum, "phi_angles",
                                    phi_plus_shifted_by_half_pi),
    "involutions_with_grade_inversion_unconjugated": (
        "clifford.involutions", "grade_inversion_matrix", checks, "MATRIX_INVOLUTIONS",
        {**multivector.MATRIX_INVOLUTIONS, "grade_inversion": time_reversal_without_conjugation}),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_check_fails_under_mutant(name, monkeypatch):
    test_id, term, module, attribute, broken = MUTANTS[name]
    assert entry(test_id).status == "pass"
    monkeypatch.setattr(module, attribute, broken)
    got = entry(test_id)
    assert got.status == "fail"
    assert got.max_residual > 0.5
    assert got.term == term
