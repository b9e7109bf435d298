"""Closed-form spectrum of the deformed Rashba Hamiltonian: eigenvalues,
bi-orthogonal eigenspinors, projectors, angle (flip) relations, associated
expectations, spin vectors and the current-density continuity check.

Spinors are their finite parts, complex amplitude arrays (..., 2); the
plane-wave factor e^{ip.x} is carried by the momentum p alongside them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multivector import PAULI, SIGMA1, SIGMA2, deformation_omega, mat2, matvec

_SQRT2 = np.sqrt(2.0)
_T0 = 0.2                # the time at which continuity_residual is evaluated


def amplitude_inner(a, b):
    """<a|b> over the last axis of amplitude arrays (..., n), conjugate-linear
    in a; the same arithmetic as numpy.vdot on a single pair."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Closed-form eigendata of R^+_gamma(p) and its adjoint partner; the
    eigenspinors are the (4, 2) rows psi_+, psi_-, dual_+, dual_- of
    ``amplitudes``.  Equality is identity: a field-wise ``==`` would
    compare the amplitude array elementwise."""

    gamma: float
    beta: float
    momentum: tuple[float, float]
    wave_sign: int
    lambda_plus: float
    lambda_minus: float
    phi_plus: float
    phi_minus: float
    amplitudes: np.ndarray


def _xy(p):
    """Components (p1, p2) of momenta (..., 2): numpy scalars for a single
    momentum, which keeps single-point calls on numpy's scalar fast path."""
    p = np.asarray(p, dtype=float)
    return p[..., 0][()], p[..., 1][()]


def eigenvalues(beta, p):
    """lambda_pm = (p^2 + beta^2)/2 +- beta |p| (closed form), elementwise
    over beta (...) and momenta (..., 2)."""
    pnorm = np.hypot(*_xy(p))
    base = 0.5 * (pnorm * pnorm + beta * beta)
    return base + beta * pnorm, base - beta * pnorm


def eigenvalue_oracle(h: np.ndarray):
    """Roots of the characteristic polynomial of (..., 2, 2) matrices via the
    quadratic formula (independent of the closed-form eigenvalue formula);
    returned sorted descending by real part."""
    tr = h[..., 0, 0] + h[..., 1, 1]
    det = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
    disc = np.sqrt(tr * tr / 4.0 - det + 0j)
    r1, r2 = tr / 2.0 + disc, tr / 2.0 - disc
    swap = r2.real > r1.real
    return np.where(swap, r2, r1)[()], np.where(swap, r1, r2)[()]


def phi_angles(gamma, p):
    """The angles (phi_plus, phi_minus) with the quadrant fixed by the
    two-argument arctangent of (numerator, denominator); this is the branch
    under which the printed eigenspinors satisfy the eigen-identity.
    Elementwise over gamma (...) and momenta (..., 2)."""
    p1, p2 = _xy(p)
    omega = deformation_omega(gamma)
    pnorm = np.hypot(p1, p2)
    return (np.arctan2(omega * omega * p1 * pnorm - gamma * p2 * p2,
                       omega * p2 * pnorm + gamma * omega * p1 * p2),
            np.arctan2(omega * omega * p1 * pnorm + gamma * p2 * p2,
                       omega * p2 * pnorm - gamma * omega * p1 * p2))


def phi_angles_principal(gamma, p):
    """Principal-branch angles tan^-1(num/den), folded into (-pi/2, pi/2].

    The angle relations under momentum and gamma flips hold exactly on this
    branch (they are tan-level identities); the eigen branch above can differ
    from it by pi.
    """
    return tuple((raw + np.pi / 2.0) % np.pi - np.pi / 2.0
                 for raw in phi_angles(gamma, p))


def eigen_amplitudes(phi_plus, phi_minus) -> np.ndarray:
    """Finite parts of (psi_plus, psi_minus, dual_plus, dual_minus) as the
    rows of a (..., 4, 2) array, elementwise over the angles:

    psi_pm = (+-e^{i phi_pm}, 1)/sqrt2,  dual_pm = (+-1, e^{-i phi_mp})/sqrt2.
    """
    out = np.full(np.shape(phi_plus) + (4, 2), 1.0 / _SQRT2, dtype=complex)
    out[..., 0, 0] = np.exp(1j * phi_plus) / _SQRT2
    out[..., 1, 0] = -np.exp(1j * phi_minus) / _SQRT2
    out[..., 2, 1] = np.exp(-1j * phi_minus) / _SQRT2
    out[..., 3, 0] = -1.0 / _SQRT2
    out[..., 3, 1] = np.exp(-1j * phi_plus) / _SQRT2
    return out


def eigensystem(gamma: float, beta: float, p, wave_sign: int = 1) -> EigenSystem:
    """Closed-form eigensystem of R^+_gamma at momentum label p.

    psi_pm are eigenvectors of R^+_gamma(p); dual_pm are the bi-orthogonal
    partners, eigenvectors of R^+_{-gamma}(p) = (R^+_gamma(p))^dagger.  For
    wave_sign = -1 (the e^{-ip.x} family) the finite parts are those of the
    +1 family evaluated at -p, which is the choice that keeps the
    eigen-identity exact.  This is the single-point view of
    :func:`eigenvalues`, :func:`phi_angles` and :func:`eigen_amplitudes`.
    """
    p = np.asarray(p, dtype=float).reshape(2)
    if np.hypot(p[0], p[1]) == 0.0 or beta == 0.0:
        raise ValueError("degenerate splitting")
    if wave_sign not in (1, -1):
        raise ValueError("wave_sign must be +1 or -1")

    fp, fm = phi_angles(gamma, wave_sign * p)
    lam_p, lam_m = eigenvalues(beta, p)
    return EigenSystem(
        gamma=float(gamma), beta=float(beta), momentum=(float(p[0]), float(p[1])),
        wave_sign=wave_sign, lambda_plus=float(lam_p), lambda_minus=float(lam_m),
        phi_plus=float(fp), phi_minus=float(fm),
        amplitudes=eigen_amplitudes(fp, fm),
    )


def projector_matrices(phi_plus, phi_minus):
    """Finite parts (pi1, pi2) of the bi-orthogonal spectral projectors of
    R^+_gamma(p), (..., 2, 2) over angles of shape (...), and the
    normalization e^{i phi+} + e^{i phi-} they divide by; the pair is
    singular where it vanishes.

    Single angles are evaluated as one-element arrays: numpy's scalar
    complex product rounds differently from its array loop, and this keeps
    a single point bit-identical to the same point in a stack."""
    shape = np.broadcast_shapes(np.shape(phi_plus), np.shape(phi_minus))
    ep = np.exp(1j * np.atleast_1d(phi_plus))
    em = np.exp(1j * np.atleast_1d(phi_minus))
    den = ep + em
    with np.errstate(divide="ignore", invalid="ignore"):
        pi1 = mat2(ep, ep * em, 1.0, em) / den[..., None, None]
        pi2 = mat2(em, -ep * em, -1.0, ep) / den[..., None, None]
    return pi1.reshape(shape + (2, 2)), pi2.reshape(shape + (2, 2)), den.reshape(shape)[()]


def flip_relations(gamma, p) -> dict:
    """Residuals (modulo 2 pi) of the angle relations under momentum and
    gamma flips, evaluated on the principal branch, elementwise over gamma
    (...) and momenta (..., 2):

    (a) phi_-+(p, g) = phi_+-(-p, g) = phi_+-(p, -g)
    (b) phi_pm(-p, -g) = phi_pm(p, g)
    (c) phi_pm(-p1, p2) + phi_-+(p1, p2) = 0 = phi_pm(p1, -p2) + phi_pm(p1, p2)
    """
    p = np.asarray(p, dtype=float)

    def wrap(x):
        return np.abs(np.angle(np.exp(1j * x)))

    fp, fm = phi_angles_principal(gamma, p)
    fp_mp, fm_mp = phi_angles_principal(gamma, -p)
    fp_mg, fm_mg = phi_angles_principal(-gamma, p)
    fp_mpmg, fm_mpmg = phi_angles_principal(-gamma, -p)
    fp_m1, fm_m1 = phi_angles_principal(gamma, p * [-1.0, 1.0])
    fp_m2, fm_m2 = phi_angles_principal(gamma, p * [1.0, -1.0])

    res_a = np.maximum.reduce([wrap(fm - fp_mp), wrap(fm - fp_mg),
                               wrap(fp - fm_mp), wrap(fp - fm_mg)])
    res_b = np.maximum(wrap(fp_mpmg - fp), wrap(fm_mpmg - fm))
    res_c = np.maximum.reduce([wrap(fp_m1 + fm), wrap(fm_m1 + fp),
                               wrap(fp_m2 + fp), wrap(fm_m2 + fm)])
    return {"a": res_a, "b": res_b, "c": res_c}


def mixture_expectation(c_plus, c_minus, k, amps):
    """Expectation <assoc | K | psi> / <assoc | psi> for the mixture
    psi = c+ psi_+ + c- psi_- and its associated state built from the duals,
    over (..., 4, 2) stacks of :func:`eigen_amplitudes` rows and operators
    K of shape (..., 2, 2)."""
    a = c_plus * amps[..., 0, :] + c_minus * amps[..., 1, :]
    d = c_plus * amps[..., 2, :] + c_minus * amps[..., 3, :]
    den = amplitude_inner(d, a)
    if np.any(np.abs(den) < 1e-12):
        raise ValueError("vanishing associated norm")
    return amplitude_inner(d, matvec(k, a)) / den


def spin_expectations(amps) -> np.ndarray:
    """Pauli expectations <a|sigma_k|a>, shape (..., 3), of amplitude arrays
    (..., 2) in the conventional inner product."""
    a = np.asarray(amps, dtype=complex)
    return amplitude_inner(a[..., None, :], matvec(PAULI, a[..., None, :])).real


def continuity_residual(gamma: float, beta: float, mix, sample_grid) -> float:
    """Residual of d(rho)/dt + div<J> = 0 for a superposition of plane-wave
    eigenstates of the deformed Rashba model, largest over the points
    ``sample_grid`` (n, 2) at the time t = 0.2.

    ``mix`` is a sequence of (coefficient, amplitudes (2,), momentum (2,),
    energy) entries, each the plane wave c a e^{i(k.x - E t)}; the e^{-ip.x}
    family is written with momentum -p.
    The current has the paramagnetic piece Im psi^dagger d_j psi plus the
    beta-dependent spin piece with weights (-beta sigma2, beta/omega sigma1).
    A plane-wave sum has exact derivatives, so d(rho)/dt = 2 Re psi^dagger
    d_t psi, d_j Im psi^dagger d_j psi = Im psi^dagger d_j^2 psi and
    d_j (psi^dagger A psi) = 2 Re psi^dagger A d_j psi for Hermitian A.
    """
    if not mix:
        raise ValueError("empty mixture")
    c, amps, k, energy = zip(*mix)
    c, amps = np.asarray(c, dtype=complex), np.asarray(amps, dtype=complex)
    k, energy = np.asarray(k, dtype=float), np.asarray(energy, dtype=float)
    x = np.asarray(sample_grid, dtype=float)
    waves = (c[:, None] * amps) * np.exp(1j * (x @ k.T - energy * _T0))[..., None]
    # per wave: the factors of psi, d_t psi, d_1 psi, d_2 psi and the Laplacian
    factors = np.stack([np.ones_like(energy), -1j * energy, 1j * k[:, 0], 1j * k[:, 1],
                        -(k * k).sum(axis=-1)])
    psi, dt_psi, d1_psi, d2_psi, lap_psi = np.einsum("dw,pwi->dpi", factors, waves)
    omega = deformation_omega(gamma)
    residual = (2.0 * amplitude_inner(psi, dt_psi).real
                + amplitude_inner(psi, lap_psi).imag
                - 2.0 * beta * amplitude_inner(psi, matvec(SIGMA2, d1_psi)).real
                + 2.0 * beta / omega * amplitude_inner(psi, matvec(SIGMA1, d2_psi)).real)
    return float(np.abs(residual).max())
