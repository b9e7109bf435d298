"""Fermionic time reversal: action on spinors and momentum-space operators,
pseudo-Hermiticity residuals, time-reversed generators, the Kramers-type
pairing of eigenspinors and the reversed Schroedinger equation, all in
closed form.

The operator is T = e13 * K with K complex conjugation; on a plane-wave
spinor it conjugates the amplitudes and applies the e13 matrix
(:func:`reverse_amplitudes`), and the reversed wave lives at momentum -p.
On a momentum-space operator family H(p) the identity T^-1 H T = H^dagger
becomes the fixed-momentum matrix equation H(-p) U = U H(p)^T with U = e13.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .momenta import cached_generators, rashba
from .multivector import (
    E13,
    matvec,
    reversion_matrix,
    time_reverse_matrix,
)
from .spectrum import amplitude_inner, eigen_amplitudes, eigenvalues, phi_angles


def reverse_amplitudes(amps) -> np.ndarray:
    """T on finite parts, (a1, a2) -> e13 conj(a) = (-a2*, a1*), over (..., 2)
    amplitude arrays."""
    c = np.conj(np.asarray(amps, dtype=complex))
    return np.stack([-c[..., 1], c[..., 0]], axis=-1)


def _maxabs(x, axes):
    """Largest |entry| over ``axes``, per leading index."""
    return np.abs(x).max(axis=axes)[()]


def pseudo_hermitian_residual(h_minus_p, h_p):
    """Max-entry residual of H(-p) U = U H(p)^T, the fixed-momentum form of
    T^-1 H T = H^dagger, per matrix of the (..., 2, 2) stacks H(-p) and H(p)."""
    return _maxabs(h_minus_p @ E13 - E13 @ np.swapaxes(h_p, -1, -2), (-1, -2))


def pseudo_adjoint(x_minus_p) -> np.ndarray:
    """The T-pseudo-adjoint X^#(p) = U X(-p)^T U^-1 of (..., 2n, 2n)
    operators, given X(-p), with U = diag(e13, ..., e13): the T-conjugate of
    X(-p)^dagger."""
    return time_reverse_matrix(np.conj(x_minus_p).swapaxes(-1, -2))


def generator_reversal(gamma) -> dict[str, np.ndarray]:
    """Residuals of the time-reversed generator identities at deformation
    parameters gamma (...), each of shape (...).

    'vector_rule' covers T^-1 sigma_m^g T = -sigma_m^{-g} for m = 1, 2, 3;
    'listed_set' compares the conjugated generator set against its closed
    form built from reversion of the deformed basis.  The sign pattern on
    the reversed vector slots is (-, -, -): all three vector generators pick
    up a minus sign under conjugation, while the even slots keep the
    reversion image with a +, and the pseudoscalar flips.
    """
    gamma = np.asarray(gamma, dtype=float)
    generators = cached_generators(gamma)
    mirrored = cached_generators(-gamma)
    vector_rule = _maxabs(time_reverse_matrix(generators[..., 1:4, :, :])
                          + mirrored[..., 1:4, :, :], (-1, -2, -3))

    one, r1, r2, r3 = np.moveaxis(reversion_matrix(generators[..., :4, :, :]), -3, 0)
    expected = np.stack((
        one,                      # 1 is fixed
        -r1, -r2, -r3,            # vector slots pick up a minus sign
        # even slots: i * reversion of the matching deformed vector generator
        1j * r3,                  # e12 <- sigma3~
        1j * r1,                  # e23 <- sigma1~
        1j * r2,                  # e31 <- sigma2~
        -1j * one,                # the pseudoscalar flips
    ), axis=-3)
    listed_set = _maxabs(time_reverse_matrix(generators) - expected, (-1, -2, -3))
    return {"vector_rule": vector_rule, "listed_set": listed_set}


@dataclass(frozen=True)
class KramersResult:
    """Kramers pairing residuals; fields are arrays over batched inputs."""

    n_plus: int
    n_minus: int
    residual: float
    same_p_residual: float
    flipped_p_residual: float


def kramers_pairing(gamma, beta, p, wave_sign: int = 1) -> KramersResult:
    """Match T psi_pm against the dual family (eigenvectors of the adjoint),
    elementwise over gamma, beta (...) and momenta (..., 2).

    At the amplitude level T psi_+ equals +- the dual_- finite part and
    T psi_- equals +- dual_+; the sign exponent n in the factor (-1)^n is
    measured per branch.  The full time-reversed state lives at momentum -p
    and is checked to be an eigenvector of R^+_{-gamma}(-p) with the same
    eigenvalue; amplitude-level matchings at p and at -p are both computed
    and reported.
    """
    p = np.asarray(p, dtype=float)
    amps = eigen_amplitudes(*phi_angles(gamma, wave_sign * p))
    flipped = eigen_amplitudes(*phi_angles(-gamma, -wave_sign * p))
    t_psi = reverse_amplitudes(amps[..., :2, :])          # T psi_+, T psi_-

    def match(target):
        """Sign exponents and residuals of T psi_pm against target rows."""
        r0 = _maxabs(t_psi - target, -1)
        r1 = _maxabs(t_psi + target, -1)
        return np.where(r0 <= r1, 0, 1), np.where(r0 <= r1, r0, r1).max(axis=-1)

    # Matching against the duals carrying the same momentum label p
    # (dual_-, dual_+), and against the duals of the system at -p.
    n, same_p = match(amps[..., 3:1:-1, :])
    _, flipped_p = match(flipped[..., 3:1:-1, :])

    # Orthogonality <T psi | psi> = 0 at amplitude level.
    ortho = np.abs(amplitude_inner(t_psi, amps[..., :2, :])).max(axis=-1)

    # Eigen-identity: the time-reversed state is an eigenvector of
    # R^+_{-gamma} at the flipped momentum with the unchanged eigenvalue.
    r_flip = rashba(-np.asarray(gamma), beta, -p)
    lam = np.stack(eigenvalues(beta, p), axis=-1)[..., None]
    eig = _maxabs(matvec(r_flip[..., None, :, :], t_psi) - lam * t_psi, (-1, -2))

    residual = np.maximum.reduce([np.minimum(same_p, flipped_p), ortho, eig])
    return KramersResult(
        n_plus=n[..., 0][()], n_minus=n[..., 1][()], residual=residual[()],
        same_p_residual=same_p[()], flipped_p_residual=flipped_p[()],
    )


def noncommutation_witness(gamma, beta, p):
    """Norm of the difference between T-conjugation of R^+_gamma and
    R^+_gamma itself at momentum p (elementwise over gamma, beta and
    momenta (..., 2)); nonzero for gamma != 0 (the reason a plain Kramers
    degeneracy argument fails) and zero at gamma = 0."""
    p = np.asarray(p, dtype=float)
    # U conj(H(-p)) U^-1 realizes T^-1 H T at momentum label p
    return _maxabs(time_reverse_matrix(rashba(gamma, beta, -p))
                   - rashba(gamma, beta, p), (-1, -2))


def reversed_schrodinger_residual(gamma, beta, p):
    """Residual of the reversed Schroedinger equation for the eigenstates of
    R^+_gamma(p), elementwise over gamma, beta (...) and momenta (..., 2).

    An eigenstate psi(t) = e^{-i lambda t} psi with lambda real reverses to
    chi(t) = T psi(-t) = e^{-i lambda t} e13 psi*, so i d(chi)/dt =
    H^dagger(-p) chi holds exactly when H^dagger(-p) e13 psi* = lambda e13
    psi*.  The residual is the largest entry of H^dagger(-p) e13 psi_pm* -
    lambda_pm e13 psi_pm* over both branches, one per row; a row that is
    not finite reads inf.  Since R^+_{-gamma}(-p) = H^dagger(-p), this is
    the eigen-identity term of :func:`kramers_pairing` reached through the
    dynamics.
    """
    p = np.asarray(p, dtype=float)
    chi = reverse_amplitudes(eigen_amplitudes(*phi_angles(gamma, p))[..., :2, :])
    h_adj = reversion_matrix(rashba(gamma, beta, -p))
    lam = np.stack(eigenvalues(beta, p), axis=-1)[..., None]
    worst = _maxabs(matvec(h_adj[..., None, :, :], chi) - lam * chi, (-1, -2))
    return np.where(np.isfinite(worst), worst, np.inf)[()]
