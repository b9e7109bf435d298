"""Closed-form spectrum of the deformed Rashba Hamiltonian: eigenvalues,
bi-orthogonal eigenspinors, projectors, angle (flip) relations, associated
expectations, spin vectors and the pair kernel of the current-density
continuity identity.

Spinors are their finite parts, complex amplitude arrays (..., 2), paired by
multivector.amplitude_inner; the plane-wave factor e^{ip.x} is carried by
the momentum p alongside them.
"""

from __future__ import annotations

import numpy as np

from .multivector import (
    PAULI,
    SIGMA1,
    SIGMA2,
    amplitude_inner,
    deformation_omega,
    det2,
    in_plane,
    mat2,
    matvec,
    stacked,
)

_SQRT2 = np.sqrt(2.0)
_FLIP_GAMMA_SIGNS = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0])   # gamma's sign per flip


def _xy(p):
    """Components (p1, p2) of momenta (..., 2): numpy scalars for a single
    momentum, which keeps single-point calls on numpy's scalar fast path.
    Any other shape raises."""
    p = in_plane(p, "momentum")
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
    disc = np.sqrt(tr * tr / 4.0 - det2(h) + 0j)
    r1, r2 = tr / 2.0 + disc, tr / 2.0 - disc
    swap = r2.real > r1.real
    return np.where(swap, r2, r1)[()], np.where(swap, r1, r2)[()]


def eigenvector_oracle(h: np.ndarray, lam) -> np.ndarray:
    """Unit eigenvectors (..., 2) of (..., 2, 2) matrices h at their
    eigenvalues lam (...): of the two closed-form null vectors (b, lam - a)
    and (lam - d, c) of h - lam = [[a - lam, b], [c, d - lam]], the longer,
    scaled to unit length (the phase is left as it comes)."""
    a, b, c, d = h[..., 0, 0], h[..., 0, 1], h[..., 1, 0], h[..., 1, 1]
    first, second = (b, lam - a), (lam - d, c)
    n1, n2 = (np.hypot(np.abs(x), np.abs(y)) for x, y in (first, second))
    longer = n1 >= n2
    norm = np.where(longer, n1, n2)
    return stacked([np.where(longer, x, y) / norm for x, y in zip(first, second)])


def phi_angles(gamma, p):
    """The angles (phi_plus, phi_minus) with the quadrant fixed by the
    two-argument arctangent of (numerator, denominator); this is the branch
    under which the printed eigenspinors satisfy the eigen-identity.
    Elementwise over gamma (...) and momenta (..., 2)."""
    p1, p2 = _xy(p)
    omega = deformation_omega(gamma)
    pnorm = np.hypot(p1, p2)
    num, num_g = omega * omega * p1 * pnorm, gamma * p2 * p2
    den, den_g = omega * p2 * pnorm, gamma * omega * p1 * p2
    return np.arctan2(num - num_g, den + den_g), np.arctan2(num + num_g, den - den_g)


def eigen_amplitudes(phi_plus, phi_minus) -> np.ndarray:
    """Finite parts of (psi_plus, psi_minus, dual_plus, dual_minus) as the
    rows of a (..., 4, 2) array, elementwise over the angles:

    psi_pm = (+-e^{i phi_pm}, 1)/sqrt2,  dual_pm = (+-1, e^{-i phi_mp})/sqrt2.
    """
    out = np.empty(np.broadcast(phi_plus, phi_minus).shape + (4, 2), dtype=complex)
    out[..., 0, 0] = np.exp(1j * phi_plus) / _SQRT2
    out[..., 1, 0] = -np.exp(1j * phi_minus) / _SQRT2
    out[..., :2, 1], out[..., 2:, 0] = 1.0 / _SQRT2, (1.0 / _SQRT2, -1.0 / _SQRT2)
    out[..., 2, 1] = np.exp(-1j * phi_minus) / _SQRT2
    out[..., 3, 1] = np.exp(-1j * phi_plus) / _SQRT2
    return out


def projector_matrices(phi_plus, phi_minus):
    """Finite parts (pi1, pi2) of the bi-orthogonal spectral projectors of
    R^+_gamma(p), (..., 2, 2) over angles of shape (...), and the
    normalization e^{i phi+} + e^{i phi-} they divide by; the pair is
    singular where it vanishes.

    Single angles are evaluated as one-element arrays: numpy's scalar
    complex product rounds differently from its array loop, and this keeps
    a single point bit-identical to the same point in a stack."""
    shape = np.broadcast(phi_plus, phi_minus).shape
    ep = np.exp(1j * np.atleast_1d(phi_plus))
    em = np.exp(1j * np.atleast_1d(phi_minus))
    den = ep + em
    with np.errstate(divide="ignore", invalid="ignore"):
        pi1 = mat2(ep, ep * em, 1.0, em) / den[..., None, None]
        pi2 = mat2(em, -ep * em, -1.0, ep) / den[..., None, None]
    return pi1.reshape(shape + (2, 2)), pi2.reshape(shape + (2, 2)), den.reshape(shape)[()]


def flip_relations(gamma, p) -> dict:
    """Residuals (modulo pi) of the angle relations under momentum and gamma
    flips, elementwise over gamma (...) and momenta (..., 2):

    (a) phi_-+(p, g) = phi_+-(-p, g) = phi_+-(p, -g)
    (b) phi_pm(-p, -g) = phi_pm(p, g)
    (c) phi_pm(-p1, p2) + phi_-+(p1, p2) = 0 = phi_pm(p1, -p2) + phi_pm(p1, p2)

    They are relations between the tangents, and tan is pi-periodic, so they
    hold modulo pi on any branch; the eigen branch of :func:`phi_angles`,
    which can differ by pi, is pinned by the eigen-identity instead.
    """
    p = in_plane(p, "momentum")

    def wrap(x):
        return np.abs(np.angle(np.exp(2j * x))) / 2.0

    # the angles at (p, g), (-p, g), (p, -g), (-p, -g), (-p1, p2) and (p1, -p2),
    # stacked on a trailing axis behind the batch axes of gamma and p
    gammas = np.asarray(gamma, dtype=float)[..., None] * _FLIP_GAMMA_SIGNS
    flipped = stacked((p, -p, p, -p, p * [-1.0, 1.0], p * [1.0, -1.0]), axis=-2)
    plus, minus = phi_angles(gammas, flipped)
    fp, fp_mp, fp_mg, fp_mpmg, fp_m1, fp_m2 = (plus[..., k] for k in range(6))
    fm, fm_mp, fm_mg, fm_mpmg, fm_m1, fm_m2 = (minus[..., k] for k in range(6))

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
    K of shape (..., 2, 2).  NaN where the associated norm <assoc | psi>
    vanishes (below 1e-12)."""
    a = c_plus * amps[..., 0, :] + c_minus * amps[..., 1, :]
    d = c_plus * amps[..., 2, :] + c_minus * amps[..., 3, :]
    den = amplitude_inner(d, a)
    vanishing = np.abs(den) < 1e-12
    return np.where(vanishing, np.nan,
                    amplitude_inner(d, matvec(k, a)) / np.where(vanishing, 1.0, den))


def spin_expectations(amps) -> np.ndarray:
    """Pauli expectations <a|sigma_k|a>, shape (..., 3), of amplitude arrays
    (..., 2) in the conventional inner product."""
    a = np.asarray(amps, dtype=complex)
    return amplitude_inner(a[..., None, :], matvec(PAULI, a[..., None, :])).real


def continuity_residual(gamma, beta, amplitudes, momenta, energies):
    """|K| of the pair kernel of the continuity identity d(rho)/dt + div<J> = 0
    of the deformed Rashba current, elementwise over stacked pairs (...).

    A pair is two plane-wave eigenstates a e^{i theta}, b e^{i theta'} with
    theta = k.x - E t: amplitudes (..., 2, 2), momenta (..., 2, 2) and
    energies (..., 2), the pair on axis -2 (the e^{-ip.x} family is written
    with momentum -p).  The current has the paramagnetic piece
    Im psi^dagger d_j psi plus the spin piece with weights (-beta sigma2,
    beta/omega sigma1), so for psi = c a e^{i theta} + c' b e^{i theta'}

        d(rho)/dt + div<J> = 2 Re psi^dagger d_t psi + Im psi^dagger lap psi
            - 2 beta Re psi^dagger sigma2 d_1 psi + (2 beta/omega) Re psi^dagger sigma1 d_2 psi
          = 2 Re[conj(c) c' e^{i(theta' - theta)} i K],

        K = (E - E' + (|k'|^2 - |k|^2)/2) <a|b> - beta (k'_1 - k_1) <a|sigma2 b>
            + (beta/omega) (k'_2 - k_2) <a|sigma1 b>,

    whose largest value over x and t is 2 |c| |c'| |K|: the coefficients,
    the points and the time drop out.  K(w, w) = 0, so the residual of a
    larger mixture is the sum of its pairs' terms.
    """
    amplitudes, k = np.asarray(amplitudes, dtype=complex), in_plane(momenta, "momentum")
    energies = np.asarray(energies, dtype=float)
    a, b = amplitudes[..., 0, :], amplitudes[..., 1, :]
    dk, k2 = k[..., 1, :] - k[..., 0, :], (k * k).sum(axis=-1)
    weight = energies[..., 0] - energies[..., 1] + 0.5 * (k2[..., 1] - k2[..., 0])
    kernel = (weight * amplitude_inner(a, b)
              - beta * dk[..., 0] * amplitude_inner(a, matvec(SIGMA2, b))
              + beta / deformation_omega(gamma) * dk[..., 1]
              * amplitude_inner(a, matvec(SIGMA1, b)))
    return np.abs(kernel)
