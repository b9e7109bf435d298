"""Closed-form spectrum of the deformed Rashba Hamiltonian: eigenvalues,
bi-orthogonal eigenspinors, projectors, angle (flip) relations, associated
expectations, spin vectors and the current-density continuity check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multivector import PAULI, SIGMA1, SIGMA2, deformation_omega, mat2, matvec

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class FiniteSpinor:
    """Two complex amplitudes tensored with a formal plane-wave label.

    The plane-wave factor e^(i * wave_sign * p.x) is kept as a label
    (momentum, wave_sign); inner products carry a delta factor realized as
    label equality.
    """

    amplitudes: tuple[complex, complex]
    momentum: tuple[float, float]
    wave_sign: int = 1

    def __post_init__(self):
        amps = tuple(map(complex, self.amplitudes))
        mom = tuple(map(float, self.momentum))
        if len(amps) != 2 or len(mom) != 2:
            raise ValueError("finite spinor needs 2 amplitudes and a 2d momentum")
        if self.wave_sign not in (1, -1):
            raise ValueError("wave_sign must be +1 or -1")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "momentum", mom)

    def amplitude_array(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)

    def same_label(self, other: "FiniteSpinor") -> bool:
        return (self.wave_sign == other.wave_sign
                and self.momentum == other.momentum)


def amplitude_inner(a, b):
    """<a|b> over the last axis of amplitude arrays (..., n), conjugate-linear
    in a; the same arithmetic as numpy.vdot on a single pair."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def biortho_inner(a: FiniteSpinor, b: FiniteSpinor) -> complex:
    """Inner product, conjugate-linear in the first argument, with the
    delta-normalized momentum factor reduced to label matching."""
    if not a.same_label(b):
        return 0.0 + 0.0j
    return complex(amplitude_inner(a.amplitude_array(), b.amplitude_array()))


@dataclass(frozen=True)
class EigenSystem:
    """Closed-form eigendata of R^+_gamma(p) and its adjoint partner."""

    gamma: float
    beta: float
    momentum: tuple[float, float]
    wave_sign: int
    lambda_plus: float
    lambda_minus: float
    phi_plus: float
    phi_minus: float
    psi_plus: FiniteSpinor
    psi_minus: FiniteSpinor
    dual_plus: FiniteSpinor
    dual_minus: FiniteSpinor

    @property
    def amplitudes(self) -> np.ndarray:
        """The finite parts as the (4, 2) rows psi_+, psi_-, dual_+, dual_-."""
        return np.array([self.psi_plus.amplitudes, self.psi_minus.amplitudes,
                         self.dual_plus.amplitudes, self.dual_minus.amplitudes])


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
    mom = (float(p[0]), float(p[1]))
    psi_plus, psi_minus, dual_plus, dual_minus = (
        FiniteSpinor(amps, mom, wave_sign)
        for amps in eigen_amplitudes(fp, fm).tolist())

    return EigenSystem(
        gamma=float(gamma), beta=float(beta), momentum=mom, wave_sign=wave_sign,
        lambda_plus=float(lam_p), lambda_minus=float(lam_m),
        phi_plus=float(fp), phi_minus=float(fm),
        psi_plus=psi_plus, psi_minus=psi_minus,
        dual_plus=dual_plus, dual_minus=dual_minus,
    )


@dataclass(frozen=True)
class ProjectorPair:
    pi1: np.ndarray
    pi2: np.ndarray


def projector_matrices(phi_plus, phi_minus):
    """Finite parts (pi1, pi2) of the bi-orthogonal spectral projectors of
    R^+_gamma(p), (..., 2, 2) over angles of shape (...), and the
    normalization e^{i phi+} + e^{i phi-} they divide by; the pair is
    singular where it vanishes."""
    ep = np.exp(1j * np.asarray(phi_plus))
    em = np.exp(1j * np.asarray(phi_minus))
    den = ep + em
    with np.errstate(divide="ignore", invalid="ignore"):
        pi1 = mat2(ep, ep * em, 1.0, em) / den[..., None, None]
        pi2 = mat2(em, -ep * em, -1.0, ep) / den[..., None, None]
    return pi1, pi2, den


def projectors(es: EigenSystem) -> ProjectorPair:
    """Finite parts of the bi-orthogonal spectral projectors of R^+_gamma(p)."""
    pi1, pi2, den = projector_matrices(es.phi_plus, es.phi_minus)
    if abs(den) < 1e-9:
        raise ValueError("projector singular")
    return ProjectorPair(pi1=pi1, pi2=pi2)


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


def associated_expectation(c_plus: complex, c_minus: complex,
                           k: np.ndarray, es: EigenSystem) -> complex:
    """:func:`mixture_expectation` for one eigensystem."""
    return complex(mixture_expectation(c_plus, c_minus, k, es.amplitudes))


def spin_expectations(amps) -> np.ndarray:
    """Pauli expectations <a|sigma_k|a>, shape (..., 3), of amplitude arrays
    (..., 2) in the conventional inner product."""
    a = np.asarray(amps, dtype=complex)
    return amplitude_inner(a[..., None, :], matvec(PAULI, a[..., None, :])).real


def spin_vector(psi: FiniteSpinor) -> tuple[float, float, float]:
    """Pauli expectations of the finite part of one spinor."""
    return tuple(spin_expectations(psi.amplitude_array()).tolist())


def continuity_residual(gamma: float, beta: float, mix, sample_grid,
                        dt: float, dx: float, t0: float = 0.2) -> float:
    """Finite-difference residual of d(rho)/dt + div<J> for a superposition
    of plane-wave eigenstates of the deformed Rashba model.

    ``mix`` is a sequence of (coefficient, FiniteSpinor, energy) triples.
    The current has the paramagnetic piece plus the beta-dependent spin piece
    with weights (-beta sigma2, beta/omega sigma1).  Central differences of
    step dt / dx give a second-order-accurate residual.
    """
    if dt <= 0 or dx <= 0:
        raise ValueError("steps must be positive")
    mix = list(mix)
    if not mix:
        raise ValueError("empty mixture")

    def psi_at(x, t):
        out = np.zeros(2, dtype=complex)
        for c, sp, energy in mix:
            phase = sp.wave_sign * (sp.momentum[0] * x[0] + sp.momentum[1] * x[1])
            out += c * sp.amplitude_array() * np.exp(1j * phase - 1j * energy * t)
        return out

    return _continuity_residual_field(psi_at, sample_grid, dt, dx, t0, gamma, beta)


def _continuity_residual_field(psi_at, sample_grid, dt, dx, t0, gamma, beta):
    omega = deformation_omega(gamma)

    def rho(x, t):
        v = psi_at(x, t)
        return float(np.vdot(v, v).real)

    def current(x, t):
        v = psi_at(x, t)
        vx1p = psi_at((x[0] + dx, x[1]), t)
        vx1m = psi_at((x[0] - dx, x[1]), t)
        vx2p = psi_at((x[0], x[1] + dx), t)
        vx2m = psi_at((x[0], x[1] - dx), t)
        d1 = (vx1p - vx1m) / (2.0 * dx)
        d2 = (vx2p - vx2m) / (2.0 * dx)
        j1 = float(np.vdot(v, d1).imag) - beta * float(np.vdot(v, SIGMA2 @ v).real)
        j2 = float(np.vdot(v, d2).imag) + (beta / omega) * float(np.vdot(v, SIGMA1 @ v).real)
        return j1, j2

    worst = 0.0
    for point in sample_grid:
        x = (float(point[0]), float(point[1]))
        drho = (rho(x, t0 + dt) - rho(x, t0 - dt)) / (2.0 * dt)
        j1p, _ = current((x[0] + dx, x[1]), t0)
        j1m, _ = current((x[0] - dx, x[1]), t0)
        _, j2p = current((x[0], x[1] + dx), t0)
        _, j2m = current((x[0], x[1] - dx), t0)
        div = (j1p - j1m) / (2.0 * dx) + (j2p - j2m) / (2.0 * dx)
        worst = max(worst, abs(drho + div))
    return worst
