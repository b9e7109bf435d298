"""Fermionic time reversal: action on spinors and momentum-space operators,
pseudo-Hermiticity residuals, time-reversed generators, the Kramers analogue
T psi_+ = dual_-, T psi_- = -dual_+ at the same momentum label, and the
reversed Schroedinger equation, all in closed form.

The operator is T = e13 * K with K complex conjugation; on a plane-wave
spinor it conjugates the amplitudes and applies the e13 matrix
(:func:`reverse_amplitudes`), and the reversed wave lives at momentum -p.
On a momentum-space operator family H(p) the identity T^-1 H T = H^dagger
becomes the fixed-momentum matrix equation H(p) = H^#(p) = U H(-p)^T U^-1
with U = e13: the T-pseudo-adjoint H^#(p) is the Clifford conjugate of
H(-p) (:func:`~bispinor.multivector.clifford_conjugation_matrix`).
"""

from __future__ import annotations

import numpy as np

from .momenta import rashba
from .multivector import (
    amplitude_inner,
    clifford_conjugation_matrix,
    deformed_generators,
    matvec,
    reversion_matrix,
    stacked,
    time_reverse_matrix,
)
from .spectrum import eigen_amplitudes, eigenvalues, phi_angles


def reverse_amplitudes(amps) -> np.ndarray:
    """T on finite parts, (a1, a2) -> e13 conj(a) = (-a2*, a1*), over (..., 2)
    amplitude arrays."""
    c = np.conj(np.asarray(amps, dtype=complex))
    return stacked((-c[..., 1], c[..., 0]))


def pseudo_hermitian_residual(h_minus_p, h_p):
    """The difference H(p) - H^#(p), (..., 2, 2), of the fixed-momentum form
    of T^-1 H T = H^dagger over the (..., 2, 2) stacks H(-p) and H(p)."""
    return h_p - clifford_conjugation_matrix(h_minus_p)


def generator_reversal(gamma) -> dict[str, np.ndarray]:
    """Differences of the time-reversed generator identities at deformation
    parameters gamma (...): 'vector_rule' (..., 3, 2, 2) and 'listed_set'
    (..., 8, 2, 2).

    'vector_rule' covers T^-1 sigma_m^g T = -sigma_m^{-g} for m = 1, 2, 3;
    'listed_set' compares the conjugated generator set against its closed
    form built from reversion of the deformed basis.  The sign pattern on
    the reversed vector slots is (-, -, -): all three vector generators pick
    up a minus sign under conjugation, while the even slots keep the
    reversion image with a +, and the pseudoscalar flips.
    """
    gamma = np.asarray(gamma, dtype=float)
    generators, mirrored = deformed_generators(np.array([gamma, -gamma]))
    vector_rule = time_reverse_matrix(generators[..., 1:4, :, :]) + mirrored[..., 1:4, :, :]

    reversed_vectors = reversion_matrix(generators[..., :4, :, :])
    one, r1, r2, r3 = (reversed_vectors[..., k, :, :] for k in range(4))
    expected = stacked((
        one,                      # 1 is fixed
        -r1, -r2, -r3,            # vector slots pick up a minus sign
        # even slots: i * reversion of the matching deformed vector generator
        1j * r3,                  # e12 <- sigma3~
        1j * r1,                  # e23 <- sigma1~
        1j * r2,                  # e31 <- sigma2~
        -1j * one,                # the pseudoscalar flips
    ), axis=-3)
    return {"vector_rule": vector_rule, "listed_set": time_reverse_matrix(generators) - expected}


def kramers_pairing(gamma, p):
    """Residuals of the Kramers analogue T psi_+ = dual_- and
    T psi_- = -dual_+, the eigenspinors of R^+_gamma(p) against the duals
    (eigenvectors of the adjoint) at the same momentum label p, elementwise
    over gamma (...) and momenta (..., 2).  The eigenspinors depend on gamma
    and p alone; that the time-reversed state is an eigenvector of
    R^+_{-gamma}(-p) = H^dagger(-p) with the same eigenvalue is
    :func:`reversed_schrodinger_residual`.

    Returns a dict of differences: 'dual_matching' (..., 2, 2), T psi_pm -
    (dual_-, -dual_+) with the branch on axis -2, and 'orthogonality'
    (..., 2), <T psi_pm | psi_pm>.  Both read exactly 0:
    conj(e^{i phi}) and e^{-i phi} round alike (cos is even, sin is odd),
    and the two products of <T psi | psi> are the same products in the
    other order.
    """
    amps = eigen_amplitudes(*phi_angles(gamma, p))
    t_psi = reverse_amplitudes(amps[..., :2, :])          # T psi_+, T psi_-
    return {"dual_matching": t_psi - [[1.0], [-1.0]] * amps[..., 3:1:-1, :],
            "orthogonality": amplitude_inner(t_psi, amps[..., :2, :])}


def noncommutation_witness(gamma, beta, p):
    """The difference (..., 2, 2) between T-conjugation of R^+_gamma and
    R^+_gamma itself at momentum p (elementwise over gamma, beta and
    momenta (..., 2)); nonzero for gamma != 0 (the reason a plain Kramers
    degeneracy argument fails) and zero at gamma = 0."""
    p = np.asarray(p, dtype=float)
    h = rashba(np.asarray(gamma)[..., None], np.asarray(beta)[..., None],
               stacked((-p, p), axis=-2))
    # U conj(H(-p)) U^-1 realizes T^-1 H T at momentum label p
    return time_reverse_matrix(h[..., 0, :, :]) - h[..., 1, :, :]


def reversed_schrodinger_residual(gamma, beta, p):
    """Difference of the reversed Schroedinger equation for the eigenstates of
    R^+_gamma(p), elementwise over gamma, beta (...) and momenta (..., 2).

    An eigenstate psi(t) = e^{-i lambda t} psi with lambda real reverses to
    chi(t) = T psi(-t) = e^{-i lambda t} e13 psi*, so i d(chi)/dt =
    H^dagger(-p) chi holds exactly when H^dagger(-p) e13 psi* = lambda e13
    psi*.  The difference is H^dagger(-p) e13 psi_pm* - lambda_pm e13
    psi_pm*, (..., 2, 2) with the branch on axis -2.  Since
    R^+_{-gamma}(-p) = H^dagger(-p), it is also the eigen-identity term of
    the Kramers analogue.
    """
    p = np.asarray(p, dtype=float)
    chi = reverse_amplitudes(eigen_amplitudes(*phi_angles(gamma, p))[..., :2, :])
    h_adj = reversion_matrix(rashba(gamma, beta, -p))
    lam = stacked(eigenvalues(beta, p))[..., None]
    return matvec(h_adj[..., None, :, :], chi) - lam * chi
