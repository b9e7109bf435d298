"""Real Clifford algebra Cl3 with a faithful 2x2 complex matrix representation.

Multivectors are stored as 8 real coefficients over the ordered basis

    {1, e1, e2, e3, e12, e23, e31, e123}

and are represented by 2x2 complex matrices through the identification
e_m -> sigma_m (Pauli matrices), so that e12 -> i*sigma_3, e23 -> i*sigma_1,
e31 -> i*sigma_2 and e123 -> i*1.

The module also builds the gamma-deformed generator set (a similarity
transform of the Pauli generators controlled by gamma = sin(theta),
omega = sqrt(1 - gamma^2)) together with its time-reversed partner set.

Shapes: every kernel works over leading batch axes.  Coefficient arrays are
(..., 8), matrices (..., 2, 2) (or (..., 2n, 2n) for time reversal) and
deformation parameters (...); a :class:`Multivector` is the single-element
view, and the kernels return one when given one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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
_BASIS_STACK = np.array(BASIS_MATRICES)
PAULI = _BASIS_STACK[1:4]

# Signs of the three classical involutions per grade 0..3.
_INVOLUTION_SIGNS = {
    "grade_inversion": (1, -1, 1, -1),
    "reversion": (1, 1, -1, -1),
    "clifford_conjugation": (1, -1, -1, 1),
}


def mat2(a, b, c, d) -> np.ndarray:
    """The (..., 2, 2) complex matrices [[a, b], [c, d]] from broadcastable entries."""
    entries = np.broadcast_arrays(*(np.asarray(x, dtype=complex) for x in (a, b, c, d)))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2))


def matvec(m, v) -> np.ndarray:
    """Matrices (..., n, n) applied to vectors (..., n), broadcasting."""
    return (np.asarray(m) @ np.asarray(v)[..., None])[..., 0]


def decompose(m) -> np.ndarray:
    """Coefficients (..., 8) of (..., 2, 2) complex matrices over the 8 basis blades."""
    m = np.asarray(m, dtype=complex)
    a = (m[..., 0, 0] + m[..., 1, 1]) / 2.0          # 1, e123
    b = (m[..., 0, 1] + m[..., 1, 0]) / 2.0          # e1, e23
    c = 1j * (m[..., 0, 1] - m[..., 1, 0]) / 2.0     # e2, e31
    d = (m[..., 0, 0] - m[..., 1, 1]) / 2.0          # e3, e12
    return np.stack(
        [a.real, b.real, c.real, d.real, d.imag, b.imag, c.imag, a.imag], axis=-1
    )


def _build_cayley() -> np.ndarray:
    """Structure constants as a dense (8, 8, 8) tensor: blade_i blade_j =
    sum_k C[i, j, k] blade_k, with one entry +-1 per (i, j)."""
    return np.round(decompose(_BASIS_STACK[:, None] @ _BASIS_STACK[None, :]))


_CAYLEY = _build_cayley()


_GRADE_OF = np.array(GRADES)
_BLADE_SIGNS = {kind: np.array(signs, dtype=float)[_GRADE_OF]
                for kind, signs in _INVOLUTION_SIGNS.items()}


@dataclass(frozen=True)
class Multivector:
    """Element of Cl3 as 8 real coefficients in the standard blade order."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.shape != (8,):
            raise ValueError("a multivector needs exactly 8 coefficients")
        object.__setattr__(self, "coefficients", tuple(coeffs.tolist()))

    @classmethod
    def scalar(cls, value: float) -> "Multivector":
        return cls((float(value), 0, 0, 0, 0, 0, 0, 0))

    @classmethod
    def blade(cls, name: str) -> "Multivector":
        return cls(np.eye(8)[BASIS_NAMES.index(name)])

    def as_array(self) -> np.ndarray:
        return np.array(self.coefficients)

    def grade(self, k: int) -> "Multivector":
        return Multivector(np.where(_GRADE_OF == k, self.as_array(), 0.0))

    def __add__(self, other: "Multivector") -> "Multivector":
        return Multivector(self.as_array() + other.as_array())

    def __sub__(self, other: "Multivector") -> "Multivector":
        return Multivector(self.as_array() - other.as_array())

    def __neg__(self) -> "Multivector":
        return Multivector(-self.as_array())

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return Multivector(float(other) * self.as_array())

    def __rmul__(self, other):
        return Multivector(float(other) * self.as_array())

    def __repr__(self):
        terms = [
            f"{c:+g}*{name}" if name != "1" else f"{c:+g}"
            for c, name in zip(self.coefficients, BASIS_NAMES)
            if c != 0.0
        ]
        return "Multivector(" + (" ".join(terms) if terms else "0") + ")"


def _coeffs(a) -> np.ndarray:
    return a.as_array() if isinstance(a, Multivector) else np.asarray(a, dtype=float)


def _like(a, coeffs: np.ndarray):
    """``coeffs`` as a Multivector when ``a`` was one, else as the array."""
    return Multivector(coeffs) if isinstance(a, Multivector) else coeffs


def geometric_product(a, b):
    """Geometric (Clifford) product a*b of multivectors or (..., 8) coefficient
    arrays, contracted against the structure constants."""
    return _like(a, np.einsum("...i,...j,ijk->...k", _coeffs(a), _coeffs(b), _CAYLEY))


def to_matrix(a) -> np.ndarray:
    """(..., 2, 2) complex matrix representative of a multivector or of
    (..., 8) coefficient arrays."""
    return np.einsum("...k,kij->...ij", _coeffs(a), _BASIS_STACK)


def from_matrix(m: np.ndarray) -> Multivector:
    """Inverse of :func:`to_matrix` on one matrix; defined on all of M(2, C).
    :func:`decompose` is the same map over stacks."""
    return Multivector(decompose(m))


def involute(a, kind: str):
    """Apply one of the three classical involutions to a multivector or to
    (..., 8) coefficient arrays.

    kind is one of 'grade_inversion', 'reversion', 'clifford_conjugation';
    each multiplies the grade-k part by a fixed sign:
    (+,-,+,-), (+,+,-,-) and (+,-,-,+) respectively.
    """
    try:
        signs = _BLADE_SIGNS[kind]
    except KeyError:
        raise ValueError(f"unknown involution kind: {kind!r}") from None
    return _like(a, signs * _coeffs(a))


def grade_inversion_matrix(m: np.ndarray) -> np.ndarray:
    """Matrix form of grade inversion: [[m22*, -m21*], [-m12*, m11*]]."""
    m = np.conj(np.asarray(m, dtype=complex))
    return mat2(m[..., 1, 1], -m[..., 1, 0], -m[..., 0, 1], m[..., 0, 0])


def reversion_matrix(m: np.ndarray) -> np.ndarray:
    """Matrix form of reversion: the conjugate transpose."""
    return np.asarray(m, dtype=complex).conj().swapaxes(-1, -2)


def clifford_conjugation_matrix(m: np.ndarray) -> np.ndarray:
    """Matrix form of Clifford conjugation: the adjugate [[m22,-m12],[-m21,m11]]."""
    m = np.asarray(m, dtype=complex)
    return mat2(m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0])


MATRIX_INVOLUTIONS = {
    "grade_inversion": grade_inversion_matrix,
    "reversion": reversion_matrix,
    "clifford_conjugation": clifford_conjugation_matrix,
}

# Unitary part of the fermionic time reversal operator: the e13 blade.
E13 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


def time_reverse_matrix(m: np.ndarray) -> np.ndarray:
    """Conjugation of constant (..., 2n, 2n) operators by time reversal:
    U conj(m) U^-1 with U = diag(e13, ..., e13).  As e13^-1 = -e13, each 2x2
    block [[a, b], [c, d]] of conj(m) becomes [[d, -c], [-b, a]]."""
    c = np.conj(np.asarray(m, dtype=complex))
    out = np.empty_like(c)
    out[..., 0::2, 0::2] = c[..., 1::2, 1::2]
    out[..., 0::2, 1::2] = -c[..., 1::2, 0::2]
    out[..., 1::2, 0::2] = -c[..., 0::2, 1::2]
    out[..., 1::2, 1::2] = c[..., 0::2, 0::2]
    return out


def deformation_omega(gamma):
    """omega = sqrt(1 - gamma^2), defined for deformation parameters |gamma| < 1;
    a float for a scalar gamma, elementwise for an array."""
    gamma = np.asarray(gamma, dtype=float)[()]
    inside = abs(gamma) < 1.0
    # a numpy bool for one gamma: skip the reduction, which costs more than
    # the rest of this function on the single-point path
    if not (inside if inside.ndim == 0 else inside.all()):
        raise ValueError(
            "deformation parameter must satisfy |gamma| < 1 (omega would vanish)"
        )
    omega = np.sqrt(1.0 - gamma * gamma)
    return float(omega) if omega.ndim == 0 else omega


@dataclass(frozen=True)
class DeformedBasis:
    """Generator matrices of the deformed set: ``generators`` holds
    {1, e1^g, e2^g, e3^g, e12^g, e23^g, e31^g, e123^g} as a read-only
    (8, 2, 2) array.  Its time-reversed partner set is
    ``time_reverse_matrix(generators)``."""

    gamma: float
    omega: float
    generators: np.ndarray = field(repr=False)

    @property
    def vectors(self) -> np.ndarray:
        return self.generators[1:4]


def deformation_transform(gamma) -> np.ndarray:
    """Similarity witness for the deformation, gamma = sin(theta):

    T(theta) = cos(theta/2) 1 + sin(theta/2) sigma2   (Hermitian, det = omega),

    of shape (..., 2, 2) for gamma of shape (...).
    """
    half = np.arcsin(gamma)[..., None, None] / 2.0
    return np.cos(half) * _ID + np.sin(half) * SIGMA2


def deformed_generators(gamma) -> np.ndarray:
    """The deformed generator set as a (..., 8, 2, 2) array for gamma of
    shape (...), in blade order.

    The three vector generators are sigma_m conjugated by the deformation
    transform T, evaluated in closed form entry by entry:
    e1 = (sigma1 - i gamma sigma3)/omega, e2 = sigma2 and
    e3 = (sigma3 + i gamma sigma1)/omega, one rounding per entry.  Bivector
    and pseudoscalar slots are products of the deformed vectors, which keeps
    every algebraic relation a similarity image of the undeformed one.
    """
    omega = np.asarray(deformation_omega(gamma))[..., None, None]
    ig = 1j * np.asarray(gamma, dtype=float)[..., None, None]
    e1 = (SIGMA1 - ig * SIGMA3) / omega
    e3 = (SIGMA3 + ig * SIGMA1) / omega
    e2 = np.broadcast_to(SIGMA2, e1.shape)
    one = np.broadcast_to(_ID, e1.shape)
    return np.stack((one, e1, e2, e3, e1 @ e2, e2 @ e3, e3 @ e1, e1 @ e2 @ e3), axis=-3)


@lru_cache(maxsize=256)
def make_deformed_basis(gamma: float) -> DeformedBasis:
    """The deformed generator set for one |gamma| < 1 (cached): the
    single-gamma view of :func:`deformed_generators`."""
    gamma = float(gamma)
    generators = deformed_generators(gamma)
    generators.flags.writeable = False
    return DeformedBasis(gamma=gamma, omega=deformation_omega(gamma), generators=generators)
