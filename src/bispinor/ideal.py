"""Spinors as elements of the minimal left ideal M(2,C) g0 of Cl3.

The primitive idempotent g0 = [[1,0],[0,0]] and its companions g1..g3 are
built from gamma-deformed and time-reversed generators; the combinations
are gamma-independent.  A finite spinor (a1, a2) is stored as the matrix
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
from .spectrum import FiniteSpinor

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


@dataclass(frozen=True)
class IdealSpinor:
    """Element of the minimal left ideal: zero second column, plus the
    plane-wave label carried over from the finite spinor."""

    matrix: np.ndarray
    momentum: tuple[float, float]
    wave_sign: int = 1

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex).reshape(2, 2)
        if np.abs(m[:, 1]).max() > 1e-12:
            raise ValueError("ideal spinor must have zero second column")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(
            self, "momentum", (float(self.momentum[0]), float(self.momentum[1]))
        )

    def same_label(self, other: "IdealSpinor") -> bool:
        return (self.wave_sign == other.wave_sign
                and self.momentum == other.momentum)


def ideal_matrix(amps) -> np.ndarray:
    """Ideal matrices (..., 2, 2) of amplitude arrays (..., 2): the amplitudes
    as first column, the second column zero."""
    amps = np.asarray(amps, dtype=complex)
    out = np.zeros(amps.shape[:-1] + (2, 2), dtype=complex)
    out[..., :, 0] = amps
    return out


def to_ideal(psi: FiniteSpinor) -> IdealSpinor:
    return IdealSpinor(matrix=ideal_matrix(psi.amplitudes),
                       momentum=psi.momentum, wave_sign=psi.wave_sign)


def from_ideal(s: IdealSpinor) -> FiniteSpinor:
    return FiniteSpinor(
        (s.matrix[0, 0], s.matrix[1, 0]), s.momentum, s.wave_sign
    )


def ideal_components(psi: FiniteSpinor) -> tuple[float, float, float, float]:
    """Real weights (zeta0..zeta3) with a1 = z0 + i z3, a2 = -z2 + i z1,
    so that sum_j zeta_j g_j reproduces the ideal matrix."""
    a1, a2 = psi.amplitudes
    return (a1.real, a2.imag, -a2.real, a1.imag)


def basis_flip(u: np.ndarray) -> np.ndarray:
    """The flip anti-involution U -> e13 conj(U) on (..., 2, 2) matrices;
    squares to -identity."""
    return E13 @ np.conj(np.asarray(u, dtype=complex))


def flip_spinor(s: IdealSpinor) -> IdealSpinor:
    """Flip with the label bookkeeping of time reversal (momentum negated)."""
    return IdealSpinor(
        matrix=basis_flip(s.matrix),
        momentum=(-s.momentum[0], -s.momentum[1]),
        wave_sign=s.wave_sign,
    )


def c1_form(a: np.ndarray, b: np.ndarray):
    """C1 = tr(reversion(A) B) of ideal matrices (..., 2, 2) = a1* b1 + a2* b2."""
    return np.trace(reversion_matrix(a) @ b, axis1=-2, axis2=-1)


def c2_form(a: np.ndarray, b: np.ndarray):
    """C2 = tr(e31 conj_cl(A) flip(B)) of ideal matrices (..., 2, 2)
    = a1 b1* + a2 b2*."""
    return np.trace(_E31 @ clifford_conjugation_matrix(a) @ basis_flip(b),
                    axis1=-2, axis2=-1)


def inner_c1(a: IdealSpinor, b: IdealSpinor) -> complex:
    """C1 x delta factor (label matching)."""
    if not a.same_label(b):
        return 0.0 + 0.0j
    return complex(c1_form(a.matrix, b.matrix))


def inner_c2(a: IdealSpinor, b: IdealSpinor) -> complex:
    """C2 x delta factor (label matching)."""
    if not a.same_label(b):
        return 0.0 + 0.0j
    return complex(c2_form(a.matrix, b.matrix))


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
