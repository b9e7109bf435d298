"""Real Clifford algebra Cl3 with a faithful 2x2 complex matrix representation.

Multivectors are stored as 8 real coefficients over the ordered basis

    {1, e1, e2, e3, e12, e23, e31, e123}

and are represented by 2x2 complex matrices through the identification
e_m -> sigma_m (Pauli matrices), so that e12 -> i*sigma_3, e23 -> i*sigma_1,
e31 -> i*sigma_2 and e123 -> i*1.

The module also builds the gamma-deformed generator set (a similarity
transform of the Pauli generators controlled by gamma = sin(theta),
omega = sqrt(1 - gamma^2)) together with its time-reversed partner set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

BASIS_NAMES = ("1", "e1", "e2", "e3", "e12", "e23", "e31", "e123")

# grade of each basis slot
GRADES = (0, 1, 1, 1, 2, 2, 2, 3)

_ID = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Matrix representatives of the 8 basis blades, in storage order.
BASIS_MATRICES = (
    _ID,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    1j * SIGMA3,   # e12 = e1 e2
    1j * SIGMA1,   # e23 = e2 e3
    1j * SIGMA2,   # e31 = e3 e1
    1j * _ID,      # e123
)

# Signs of the three classical involutions per grade 0..3.
_INVOLUTION_SIGNS = {
    "grade_inversion": (1, -1, 1, -1),
    "reversion": (1, 1, -1, -1),
    "clifford_conjugation": (1, -1, -1, 1),
}


def _decompose(m: np.ndarray) -> np.ndarray:
    """Coefficients of a 2x2 complex matrix over the 8 basis blades."""
    m = np.asarray(m, dtype=complex)
    a = (m[0, 0] + m[1, 1]) / 2.0          # 1, e123
    b = (m[0, 1] + m[1, 0]) / 2.0          # e1, e23
    c = 1j * (m[0, 1] - m[1, 0]) / 2.0     # e2, e31
    d = (m[0, 0] - m[1, 1]) / 2.0          # e3, e12
    return np.array(
        [a.real, b.real, c.real, d.real, d.imag, b.imag, c.imag, a.imag]
    )


def _build_cayley() -> tuple[np.ndarray, np.ndarray]:
    """Structure constants: index and sign of each basis blade product."""
    idx = np.zeros((8, 8), dtype=int)
    sgn = np.zeros((8, 8))
    for i in range(8):
        for j in range(8):
            coeffs = _decompose(BASIS_MATRICES[i] @ BASIS_MATRICES[j])
            k = int(np.argmax(np.abs(coeffs)))
            idx[i, j] = k
            sgn[i, j] = round(coeffs[k])
    return idx, sgn


_CAYLEY_INDEX, _CAYLEY_SIGN = _build_cayley()


@dataclass(frozen=True)
class Multivector:
    """Element of Cl3 as 8 real coefficients in the standard blade order."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) != 8:
            raise ValueError("a multivector needs exactly 8 coefficients")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[float]) -> "Multivector":
        return cls(tuple(coeffs))

    @classmethod
    def scalar(cls, value: float) -> "Multivector":
        return cls((float(value), 0, 0, 0, 0, 0, 0, 0))

    @classmethod
    def blade(cls, name: str) -> "Multivector":
        k = BASIS_NAMES.index(name)
        return cls(tuple(1.0 if i == k else 0.0 for i in range(8)))

    def as_array(self) -> np.ndarray:
        return np.array(self.coefficients)

    def grade(self, k: int) -> "Multivector":
        return Multivector(
            tuple(c if GRADES[i] == k else 0.0
                  for i, c in enumerate(self.coefficients))
        )

    def __add__(self, other: "Multivector") -> "Multivector":
        return Multivector(
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __sub__(self, other: "Multivector") -> "Multivector":
        return Multivector(
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __neg__(self) -> "Multivector":
        return Multivector(tuple(-a for a in self.coefficients))

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return Multivector(tuple(float(other) * a for a in self.coefficients))

    def __rmul__(self, other):
        return Multivector(tuple(float(other) * a for a in self.coefficients))

    def __repr__(self):
        terms = [
            f"{c:+g}*{name}" if name != "1" else f"{c:+g}"
            for c, name in zip(self.coefficients, BASIS_NAMES)
            if c != 0.0
        ]
        return "Multivector(" + (" ".join(terms) if terms else "0") + ")"


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Geometric (Clifford) product a*b computed from the structure constants."""
    out = np.zeros(8)
    ca, cb = a.coefficients, b.coefficients
    for i in range(8):
        if ca[i] == 0.0:
            continue
        for j in range(8):
            if cb[j] == 0.0:
                continue
            out[_CAYLEY_INDEX[i, j]] += _CAYLEY_SIGN[i, j] * ca[i] * cb[j]
    return Multivector(tuple(out))


def to_matrix(a: Multivector) -> np.ndarray:
    """2x2 complex matrix representative of a multivector."""
    m = np.zeros((2, 2), dtype=complex)
    for c, basis in zip(a.coefficients, BASIS_MATRICES):
        if c != 0.0:
            m = m + c * basis
    return m


def from_matrix(m: np.ndarray) -> Multivector:
    """Inverse of :func:`to_matrix`; defined on all of M(2, C)."""
    return Multivector(tuple(_decompose(m)))


def involute(a: Multivector, kind: str) -> Multivector:
    """Apply one of the three classical involutions.

    kind is one of 'grade_inversion', 'reversion', 'clifford_conjugation';
    each multiplies the grade-k part by a fixed sign:
    (+,-,+,-), (+,+,-,-) and (+,-,-,+) respectively.
    """
    try:
        signs = _INVOLUTION_SIGNS[kind]
    except KeyError:
        raise ValueError(f"unknown involution kind: {kind!r}") from None
    return Multivector(
        tuple(signs[GRADES[i]] * c for i, c in enumerate(a.coefficients))
    )


def grade_inversion_matrix(m: np.ndarray) -> np.ndarray:
    """Matrix form of grade inversion: [[m22*, -m21*], [-m12*, m11*]]."""
    m = np.asarray(m, dtype=complex)
    return np.array(
        [[np.conj(m[1, 1]), -np.conj(m[1, 0])],
         [-np.conj(m[0, 1]), np.conj(m[0, 0])]]
    )


def reversion_matrix(m: np.ndarray) -> np.ndarray:
    """Matrix form of reversion: the conjugate transpose."""
    return np.asarray(m, dtype=complex).conj().T


def clifford_conjugation_matrix(m: np.ndarray) -> np.ndarray:
    """Matrix form of Clifford conjugation: the adjugate [[m22,-m12],[-m21,m11]]."""
    m = np.asarray(m, dtype=complex)
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


MATRIX_INVOLUTIONS = {
    "grade_inversion": grade_inversion_matrix,
    "reversion": reversion_matrix,
    "clifford_conjugation": clifford_conjugation_matrix,
}

# Unitary part of the fermionic time reversal operator: the e13 blade.
E13 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


def time_reverse_matrix(m: np.ndarray) -> np.ndarray:
    """Conjugation of a constant 2n x 2n operator by time reversal:
    U conj(m) U^-1 with U = diag(e13, ..., e13).  As e13^-1 = -e13, each 2x2
    block [[a, b], [c, d]] of conj(m) becomes [[d, -c], [-b, a]]."""
    c = np.conj(np.asarray(m, dtype=complex))
    out = np.empty_like(c)
    out[0::2, 0::2] = c[1::2, 1::2]
    out[0::2, 1::2] = -c[1::2, 0::2]
    out[1::2, 0::2] = -c[0::2, 1::2]
    out[1::2, 1::2] = c[0::2, 0::2]
    return out


def deformation_omega(gamma: float) -> float:
    """omega = sqrt(1 - gamma^2), defined for deformation parameters |gamma| < 1."""
    gamma = float(gamma)
    if not abs(gamma) < 1.0:
        raise ValueError(
            "deformation parameter must satisfy |gamma| < 1 (omega would vanish)"
        )
    return float(np.sqrt(1.0 - gamma * gamma))


@dataclass(frozen=True)
class DeformedBasis:
    """Generator matrices of the deformed set and its time-reversed partner.

    ``generators`` holds {1, e1^g, e2^g, e3^g, e12^g, e23^g, e31^g, e123^g}
    and ``reversed_generators`` the conjugated set e13 conj(g) e13^-1, in the
    same blade order.
    """

    gamma: float
    omega: float
    generators: tuple[np.ndarray, ...] = field(repr=False)
    reversed_generators: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.generators[1:4]


def deformation_transform(gamma: float) -> np.ndarray:
    """Similarity witness for the deformation, gamma = sin(theta):

    T(theta) = cos(theta/2) 1 + sin(theta/2) sigma2   (Hermitian, det = omega).
    """
    theta = np.arcsin(gamma)
    return np.cos(theta / 2.0) * _ID + np.sin(theta / 2.0) * SIGMA2


@lru_cache(maxsize=256)
def make_deformed_basis(gamma: float) -> DeformedBasis:
    """Build the deformed generator set for |gamma| < 1.

    The three vector generators are sigma_m conjugated by the deformation
    transform; bivector and pseudoscalar slots are rebuilt as products of the
    deformed vectors, which keeps every algebraic relation a similarity image
    of the undeformed one.
    """
    gamma = float(gamma)
    omega = deformation_omega(gamma)
    t = deformation_transform(gamma)
    t_inv = np.linalg.inv(t)
    e1, e2, e3 = (t @ s @ t_inv for s in (SIGMA1, SIGMA2, SIGMA3))
    generators = (_ID, e1, e2, e3, e1 @ e2, e2 @ e3, e3 @ e1, e1 @ e2 @ e3)
    reversed_generators = tuple(time_reverse_matrix(g) for g in generators)
    return DeformedBasis(
        gamma=gamma,
        omega=omega,
        generators=generators,
        reversed_generators=reversed_generators,
    )
