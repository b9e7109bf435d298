"""Spinors as elements of the minimal left ideal M(2,C) g0 of Cl3.

The primitive idempotent g0 = [[1,0],[0,0]] and its companions g1..g3 are
built from gamma-deformed and time-reversed generators; the combinations
are gamma-independent.  Amplitudes (a1, a2) are stored as the matrix
with first column (a1, a2) and zero second column; the basis-flip
anti-involution realizes time reversal on these matrices, and two inner
products C1, C2 live on the ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multivector import (
    E13,
    DeformedBasis,
    clifford_conjugation_matrix,
    reversion_matrix,
    time_reverse_matrix,
)

_E31 = -E13.astype(complex)  # e31 = -e13 in the matrix representation


@dataclass(frozen=True)
class IdealBasis:
    g0: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray


def build_ideal_basis(basis: DeformedBasis) -> IdealBasis:
    """The four ideal generators from the deformed / reversed generator sets.

    g0 = 1/2 + (w/4)(e3 - ĕ3)        g1 = (1/2) e2 + (w/4)(e23 + ĕ23)
    g2 = (1/2) e31 - (w/4)(e1 - ĕ1)  g3 = (1/2) e123 + (w/4)(e12 + ĕ12)

    The gamma-dependence cancels identically: the results are the constant
    matrices [[1,0],[0,0]], [[0,0],[i,0]], [[0,0],[-1,0]], [[i,0],[0,0]].
    """
    w = basis.omega
    i2 = np.eye(2, dtype=complex)
    _, e1, e2, e3, e12, e23, e31, e123 = basis.generators
    _, r1, _, r3, r12, r23, _, _ = basis.reversed_generators

    g0 = 0.5 * i2 + 0.25 * w * (e3 - r3)
    g1 = 0.5 * e2 + 0.25 * w * (e23 + r23)
    g2 = 0.5 * e31 - 0.25 * w * (e1 - r1)
    g3 = 0.5 * e123 + 0.25 * w * (e12 + r12)
    return IdealBasis(g0=g0, g1=g1, g2=g2, g3=g3)


def ideal_matrix(amps) -> np.ndarray:
    """Ideal matrices (..., 2, 2) of amplitude arrays (..., 2): the amplitudes
    as first column, the second column zero."""
    amps = np.asarray(amps, dtype=complex)
    out = np.zeros(amps.shape[:-1] + (2, 2), dtype=complex)
    out[..., :, 0] = amps
    return out


def ideal_components(amps) -> np.ndarray:
    """Real weights (..., 4) = (zeta0..zeta3) of amplitude arrays (..., 2),
    with a1 = z0 + i z3, a2 = -z2 + i z1, so that sum_j zeta_j g_j
    reproduces the ideal matrix."""
    a = np.asarray(amps, dtype=complex)
    a1, a2 = a[..., 0], a[..., 1]
    return np.stack([a1.real, a2.imag, -a2.real, a1.imag], axis=-1)


def basis_flip(u: np.ndarray) -> np.ndarray:
    """The flip anti-involution U -> e13 conj(U) on (..., 2, 2) matrices;
    squares to -identity."""
    return E13 @ np.conj(np.asarray(u, dtype=complex))


def c1_form(a: np.ndarray, b: np.ndarray):
    """C1 = tr(reversion(A) B) of ideal matrices (..., 2, 2) = a1* b1 + a2* b2."""
    return np.trace(reversion_matrix(a) @ b, axis1=-2, axis2=-1)


def c2_form(a: np.ndarray, b: np.ndarray):
    """C2 = tr(e31 conj_cl(A) flip(B)) of ideal matrices (..., 2, 2)
    = a1 b1* + a2 b2*."""
    return np.trace(_E31 @ clifford_conjugation_matrix(a) @ basis_flip(b),
                    axis1=-2, axis2=-1)


def invariance_group_check(u: np.ndarray, tol: float = 1e-10):
    """Membership of (..., 2, 2) matrices in the two invariance groups.

    in_G: reversion(u) u = 1, equivalent to unitarity (preserves C1).
    in_Gprime: conj_cl(u) u_flat = 1 with the flip taken at operator level,
    u_flat = e13 conj(u) e13^-1 (preserves C2); on matrices this again
    carves out the unitary group.
    """
    u = np.asarray(u, dtype=complex)
    i2 = np.eye(2)
    in_g = np.abs(reversion_matrix(u) @ u - i2).max(axis=(-1, -2)) <= tol
    u_flat = time_reverse_matrix(u)
    in_gp = np.abs(clifford_conjugation_matrix(u) @ u_flat - i2).max(axis=(-1, -2)) <= tol
    return in_g[()], in_gp[()]
