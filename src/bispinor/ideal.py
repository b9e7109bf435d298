"""Spinors as elements of the minimal left ideal M(2,C) g0 of Cl3.

The primitive idempotent g0 = [[1,0],[0,0]] and its companions g1..g3 are
built from gamma-deformed and time-reversed generators; the combinations
are gamma-independent.  Amplitudes (a1, a2) are stored as the matrix
with first column (a1, a2) and zero second column; the basis-flip
anti-involution realizes time reversal on these matrices, and two inner
products C1, C2 live on the ideal.
"""

from __future__ import annotations

import numpy as np

from .multivector import (
    E13,
    _ID,
    clifford_conjugation_matrix,
    deformation_omega,
    deformed_generators,
    matmul2,
    reversion_matrix,
    stacked,
    time_reverse_matrix,
)

_E31 = -E13.astype(complex)  # e31 = -e13 in the matrix representation


def build_ideal_basis(gamma) -> np.ndarray:
    """The four ideal generators g0..g3, stacked (..., 4, 2, 2), from the
    deformed / reversed generator sets at deformation parameters gamma (...).

    g0 = 1/2 + (w/4)(e3 - ĕ3)        g1 = (1/2) e2 + (w/4)(e23 + ĕ23)
    g2 = (1/2) e31 - (w/4)(e1 - ĕ1)  g3 = (1/2) e123 + (w/4)(e12 + ĕ12)

    The gamma-dependence cancels identically: the results are the constant
    matrices [[1,0],[0,0]], [[0,0],[i,0]], [[0,0],[-1,0]], [[i,0],[0,0]].
    """
    generators = deformed_generators(gamma)
    w = deformation_omega(gamma)[..., None, None]
    _, e1, e2, e3, e12, e23, e31, e123 = (generators[..., k, :, :] for k in range(8))
    reversed_set = time_reverse_matrix(generators)
    r1, r3, r12, r23 = (reversed_set[..., k, :, :] for k in (1, 3, 4, 5))
    return stacked((0.5 * _ID + 0.25 * w * (e3 - r3),
                    0.5 * e2 + 0.25 * w * (e23 + r23),
                    0.5 * e31 - 0.25 * w * (e1 - r1),
                    0.5 * e123 + 0.25 * w * (e12 + r12)), axis=-3)


def ideal_matrix(amps) -> np.ndarray:
    """Ideal matrices (..., 2, 2) of amplitude arrays (..., 2): the amplitudes
    as first column, the second column zero."""
    amps = np.asarray(amps, dtype=complex)
    out = np.zeros(amps.shape[:-1] + (2, 2), dtype=complex)
    out[..., :, 0] = amps
    return out


def basis_flip(u: np.ndarray) -> np.ndarray:
    """The flip anti-involution U -> e13 conj(U) on (..., 2, 2) matrices;
    squares to -identity."""
    return matmul2(E13, np.conj(np.asarray(u, dtype=complex)))


def c1_form(a: np.ndarray, b: np.ndarray):
    """C1 = tr(reversion(A) B) of ideal matrices (..., 2, 2) = a1* b1 + a2* b2."""
    return matmul2(reversion_matrix(a), b).trace(axis1=-2, axis2=-1)


def c2_form(a: np.ndarray, b: np.ndarray):
    """C2 = tr(e31 conj_cl(A) flip(B)) of ideal matrices (..., 2, 2)
    = a1 b1* + a2 b2*."""
    return matmul2(matmul2(_E31, clifford_conjugation_matrix(a)), basis_flip(b)).trace(
        axis1=-2, axis2=-1)


def invariance_group_defects(u: np.ndarray):
    """The defects (..., 2, 2) of (..., 2, 2) matrices from the two invariance
    groups, each defining product minus the identity.

    G: reversion(u) u = 1, equivalent to unitarity (preserves C1).
    G': conj_cl(u) u_flat = 1 with the flip taken at operator level,
    u_flat = e13 conj(u) e13^-1 (preserves C2); on matrices this again
    carves out the unitary group.
    """
    u = np.asarray(u, dtype=complex)
    u_flat = time_reverse_matrix(u)
    return (matmul2(reversion_matrix(u), u) - _ID,
            matmul2(clifford_conjugation_matrix(u), u_flat) - _ID)
