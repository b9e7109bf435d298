"""Fermionic time reversal: action on spinors and momentum-space operators,
pseudo-Hermiticity residuals, time-reversed generators, the Kramers-type
pairing of eigenspinors and the time-reversed Schroedinger check.

The operator is T = e13 * K with K complex conjugation; on a plane-wave
spinor it conjugates the amplitudes and applies the e13 matrix
(:func:`reverse_amplitudes`), and the reversed wave lives at momentum -p.
On a momentum-space operator family H(p) the identity T^-1 H T = H^dagger
becomes the fixed-momentum matrix equation H(-p) U = U H(p)^T with U = e13.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .momenta import MomentumHamiltonian, cached_generators, rashba
from .multivector import (
    E13,
    matvec,
    reversion_matrix,
    time_reverse_matrix,
)
from .spectrum import amplitude_inner, eigen_amplitudes, eigenvalues, phi_angles

_I2 = np.eye(2, dtype=complex)


def reverse_amplitudes(amps) -> np.ndarray:
    """T on finite parts, (a1, a2) -> e13 conj(a) = (-a2*, a1*), over (..., 2)
    amplitude arrays."""
    c = np.conj(np.asarray(amps, dtype=complex))
    return np.stack([-c[..., 1], c[..., 0]], axis=-1)


def _maxabs(x, axes):
    """Largest |entry| over ``axes``, per leading index."""
    return np.abs(x).max(axis=axes)[()]


def conjugated_hamiltonian(h, p) -> np.ndarray:
    """The matrix realizing T^-1 H T at momentum label p: U conj(H(-p)) U^-1."""
    return time_reverse_matrix(h(-np.asarray(p, dtype=float)))


def pseudo_hermitian_residual(h, p):
    """Max-entry residual of H(-p) U = U H(p)^T, the fixed-momentum form of
    T^-1 H T = H^dagger, per momentum of p (..., 2).  ``h`` is any callable
    p -> (..., 2, 2) matrices."""
    p = np.asarray(p, dtype=float)
    return _maxabs(h(-p) @ E13 - E13 @ h(p).swapaxes(-1, -2), (-1, -2))


def pseudo_adjoint(x, p) -> np.ndarray:
    """The T-pseudo-adjoint X^#(p) = U X(-p)^T U^-1 of a family of (..., 2n, 2n)
    operators, U = diag(e13, ..., e13): the T-conjugate of X(-p)^dagger."""
    p = np.asarray(p, dtype=float)
    return time_reverse_matrix(np.conj(x(-p)).swapaxes(-1, -2))


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
    r_flip = rashba(-np.asarray(gamma), beta, 1).evaluate(-p)
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
    h = rashba(gamma, beta, 1)
    return _maxabs(conjugated_hamiltonian(h, p) - h(np.asarray(p)), (-1, -2))


def reversed_schrodinger_check(h: MomentumHamiltonian, p, dt=1e-3, steps: int = 5):
    """Evolve an eigenstate under H at fixed p and verify that the
    time-reversed trajectory chi(t) = T psi(-t) obeys
    i d(chi)/dt = H^dagger(-p) chi by central finite differences.

    One residual per momentum of p (..., 2), with h's gamma and beta
    broadcasting against them, and per time step of ``dt``, which
    broadcasts against the result: ``dt`` of shape (2, 1) over n momenta
    gives residuals (2, n).  The eigenstate is the first eigenpair
    numpy.linalg.eig returns.  A row whose H(p) or residual is not finite
    gets an infinite residual.
    """
    dt = np.asarray(dt, dtype=float)
    if np.any(dt <= 0):
        raise ValueError("time step must be positive")
    p = np.asarray(p, dtype=float)
    hp = h(p)
    finite = np.isfinite(hp).all(axis=(-1, -2))
    # eig rejects a stack holding any non-finite matrix; those rows get a
    # placeholder here and an infinite residual below
    vals, vecs = np.linalg.eig(np.where(finite[..., None, None], hp, _I2))
    lam, v = vals[..., 0], vecs[..., :, 0]

    def chi(t):
        # psi(-t) = exp(i lam t) v, then apply the antilinear operator.
        return matvec(E13, np.conj(np.exp(1j * lam * t)[..., None] * v))

    h_adj = reversion_matrix(h(-p))
    # sample times t = 10 k dt, k = 1..steps, on a new leading axis
    k = np.arange(1, steps + 1).reshape((steps,) + (1,) * max(dt.ndim, lam.ndim))
    t = 10 * k * dt
    deriv = (chi(t + dt) - chi(t - dt)) / (2.0 * dt[..., None])
    worst = np.abs(1j * deriv - matvec(h_adj, chi(t))).max(axis=(0, -1))
    return np.where(finite & np.isfinite(worst), worst, np.inf)[()]
