"""Real Clifford algebra Cl3 with a faithful 2x2 complex matrix representation.

Elements of Cl3 are plain (..., 8) real coefficient arrays over the ordered basis

    {1, e1, e2, e3, e12, e23, e31, e123}

and are represented by 2x2 complex matrices through the identification
e_m -> sigma_m (Pauli matrices), so that e12 -> i*sigma_3, e23 -> i*sigma_1,
e31 -> i*sigma_2 and e123 -> i*1.

The same map at a deformation parameter gamma = sin(theta), with
omega = sqrt(1 - gamma^2), is the similarity image T (.) T^-1 of the Pauli
one.  pauli_matrix(s, v1, v2, v3, gamma) is its one closed form, for a
multivector given as a scalar s plus a vector v (complex parts carry the
bivector and the pseudoscalar); to_matrix(a, gamma) is its front end for
(..., 8) coefficients.  The generator set is the image of the unit blades;
its time-reversed partner set is time_reverse_matrix of it.

Shapes: kernels work over leading batch axes: coefficients (..., 8), matrices
(..., 2, 2), amplitudes (..., 2), deformation parameters (...).  matmul2,
matvec and amplitude_inner are two-term closed forms; the only @ is
geometric_product's contraction with the Cayley table, which is built from
the defining relations alone.
"""

from __future__ import annotations

import numpy as np

BASIS_NAMES = ("1", "e1", "e2", "e3", "e12", "e23", "e31", "e123")

# grade of each basis slot
GRADES = (0, 1, 1, 1, 2, 2, 2, 3)

_ID = np.eye(2, dtype=complex)
_UNIT_BLADES = np.eye(8)          # the coefficients of the eight unit blades
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULI = np.array([SIGMA1, SIGMA2, SIGMA3])

# Signs of the three classical involutions per grade 0..3.
_INVOLUTION_SIGNS = {
    "grade_inversion": (1, -1, 1, -1),
    "reversion": (1, 1, -1, -1),
    "clifford_conjugation": (1, -1, -1, 1),
}


def mat2(a, b, c, d) -> np.ndarray:
    """The (..., 2, 2) complex matrices [[a, b], [c, d]] from broadcastable entries."""
    out = np.empty(np.broadcast(a, b, c, d).shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def stacked(parts, axis: int = -1) -> np.ndarray:
    """np.stack(parts, axis) of broadcastable array or scalar parts at a
    negative axis, each written into one np.empty result without np.stack's
    per-part Python work."""
    shape = np.broadcast(*parts).shape
    cut = len(shape) + axis + 1
    out = np.empty(shape[:cut] + (len(parts),) + shape[cut:], dtype=np.result_type(*parts))
    for k, part in enumerate(parts):
        out[(..., k) + (slice(None),) * (-1 - axis)] = part
    return out


def matmul2(a, b) -> np.ndarray:
    """Products a b of (..., 2, 2) matrices, broadcasting, in closed form:
    entry (i, k) is a_i0 b_0k + a_i1 b_1k, as whole-array operations rather
    than one BLAS call per matrix.  Same error bound as np.matmul, not the
    same bits."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def det2(m) -> np.ndarray:
    """Determinants (...) of (..., 2, 2) matrices: m00 m11 - m01 m10."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def inv2(m) -> np.ndarray:
    """Inverses of (..., 2, 2) matrices: the adjugate
    (:func:`clifford_conjugation_matrix`) over the determinant (inf or NaN
    entries where it vanishes)."""
    return clifford_conjugation_matrix(m) / det2(m)[..., None, None]


def _largest_part(z) -> np.ndarray:
    """max(|Re z|, |Im z|), elementwise."""
    return np.maximum(np.abs(z.real), np.abs(z.imag))


def _ldexp(z, exponent) -> np.ndarray:
    """z 2^exponent of complex z, exact where no part leaves the normal
    range: the real and imaginary parts are scaled apart."""
    out = np.empty(np.broadcast(z, exponent).shape, dtype=complex)
    out.real, out.imag = np.ldexp(z.real, exponent), np.ldexp(z.imag, exponent)
    return out


def unitary2(m) -> np.ndarray:
    """The unitary factor Q of m = QR, R upper triangular with a positive
    diagonal, for (..., 2, 2) matrices: Gram-Schmidt on the two columns.
    The first column of Q is m's first over its norm; in C^2 the second is
    the unit normal (-conj(q10), conj(q00)) of the first times the phase of
    det m, the direction Gram-Schmidt leaves.  R itself is not formed (NaN
    where m is singular).

    The batch is evaluated as one flat stack, so a single matrix gets the
    bits of its row in a stack (numpy's scalar complex arithmetic rounds
    differently from its array loop).  Each matrix is first scaled by the
    power of two that puts its largest part in [1/2, 1): Q does not change,
    and a subnormal m no longer overflows its quotient by the norm or
    underflows its determinant."""
    m = np.asarray(m, dtype=complex)
    flat = m.reshape(-1, 2, 2)
    _, exponent = np.frexp(_largest_part(flat).max(axis=(1, 2)))
    flat = _ldexp(flat, -exponent[:, None, None])
    first = flat[:, :, 0] / np.hypot(np.abs(flat[:, 0, 0]), np.abs(flat[:, 1, 0]))[:, None]
    det = det2(flat)
    phase = det / np.abs(det)
    q = mat2(first[:, 0], -np.conj(first[:, 1]) * phase, first[:, 1], np.conj(first[:, 0]) * phase)
    return q.reshape(m.shape)


def matvec(m, v) -> np.ndarray:
    """m_i0 v_0 + m_i1 v_1: matrices (..., 2, 2) on vectors (..., 2), broadcasting."""
    return m[..., :, 0] * v[..., :1] + m[..., :, 1] * v[..., 1:]


def amplitude_inner(a, b) -> np.ndarray:
    """<a|b> = conj(a_0) b_0 + conj(a_1) b_1 of amplitudes (..., 2), broadcasting."""
    products = np.conj(a) * b
    return products[..., 0] + products[..., 1]


def decompose(m) -> np.ndarray:
    """Coefficients (..., 8) of (..., 2, 2) complex matrices over the 8 basis blades."""
    m = np.asarray(m, dtype=complex)
    a = (m[..., 0, 0] + m[..., 1, 1]) / 2.0          # 1, e123
    b = (m[..., 0, 1] + m[..., 1, 0]) / 2.0          # e1, e23
    c = 1j * (m[..., 0, 1] - m[..., 1, 0]) / 2.0     # e2, e31
    d = (m[..., 0, 0] - m[..., 1, 1]) / 2.0          # e3, e12
    return stacked((a.real, b.real, c.real, d.real, d.imag, b.imag, c.imag, a.imag))


_BLADE_SIGNS = {kind: np.array(signs, dtype=float)[list(GRADES)]
                for kind, signs in _INVOLUTION_SIGNS.items()}


def involute(a, kind: str) -> np.ndarray:
    """Apply one of the three classical involutions to (..., 8) coefficient
    arrays.

    kind is one of 'grade_inversion', 'reversion', 'clifford_conjugation';
    each multiplies the grade-k part by a fixed sign:
    (+,-,+,-), (+,+,-,-) and (+,-,-,+) respectively.
    """
    try:
        signs = _BLADE_SIGNS[kind]
    except KeyError:
        raise ValueError(f"unknown involution kind: {kind!r}") from None
    return signs * a


def reversion_matrix(m: np.ndarray) -> np.ndarray:
    """Matrix form of reversion: the conjugate transpose."""
    return np.asarray(m, dtype=complex).conj().swapaxes(-1, -2)


# Unitary part of the fermionic time reversal operator: the e13 blade.
E13 = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


def clifford_conjugation_matrix(m: np.ndarray) -> np.ndarray:
    """Matrix form of Clifford conjugation on (..., 2, 2) matrices, the
    adjugate [[m11, -m01], [-m10, m00]] = e13 m^T e13^-1.  For an operator
    family X(p), the T-pseudo-adjoint X^#(p) is the Clifford conjugate of
    X(-p)."""
    return mat2(m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0])


def time_reverse_matrix(m: np.ndarray) -> np.ndarray:
    """Conjugation of constant (..., 2, 2) operators by time reversal,
    e13 conj(m) e13^-1 = [[conj m11, -conj m10], [-conj m01, conj m00]]:
    the reversion of the Clifford conjugate, and so the matrix form of
    grade inversion."""
    return reversion_matrix(clifford_conjugation_matrix(m))


MATRIX_INVOLUTIONS = {
    "grade_inversion": time_reverse_matrix,
    "reversion": reversion_matrix,
    "clifford_conjugation": clifford_conjugation_matrix,
}


def deformation_omega(gamma):
    """omega = sqrt(1 - gamma^2), elementwise, defined for deformation
    parameters |gamma| < 1."""
    gamma = np.asarray(gamma, dtype=float)
    omega_squared = 1.0 - gamma * gamma
    # for a double, 1 - gamma^2 > 0 exactly when |gamma| < 1 (false on NaN)
    if not (omega_squared > 0.0).all():
        raise ValueError(
            "deformation parameter must satisfy |gamma| < 1 (omega would vanish)"
        )
    return np.sqrt(omega_squared)


def in_plane(x, name: str) -> np.ndarray:
    """In-plane vectors (..., 2), such as momenta, as floats; any other
    shape raises."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (2,):
        raise ValueError(f"{name} must have 2 components")
    return x


def deformation_transform(gamma) -> np.ndarray:
    """Similarity witness for the deformation, gamma = sin(theta):

    T(theta) = cos(theta/2) 1 + sin(theta/2) sigma2   (Hermitian, det = omega),

    of shape (..., 2, 2) for gamma of shape (...).  |gamma| >= 1 or NaN
    raises (see :func:`deformation_omega`).
    """
    deformation_omega(gamma)
    half = np.arcsin(gamma)[..., None, None] / 2.0
    return np.cos(half) * _ID + np.sin(half) * SIGMA2


def pauli_matrix(s, v1, v2, v3, gamma=0.0) -> np.ndarray:
    """(..., 2, 2) complex matrices of the multivectors s + v.e over the
    generators at deformation parameter gamma, for broadcastable complex (or
    real) s, v1, v2, v3 and gamma (...): with A = 1/omega and B = i gamma/omega
    the similarity image T (s + v.sigma) T^-1 (see
    :func:`deformation_transform`) is, in closed form,

        [[s + A v3 - B v1,     A v1 + B v3 - i v2],
         [A v1 + B v3 + i v2,  s - A v3 + B v1   ]].

    Each entry is written straight into the result.  |gamma| >= 1 or NaN
    raises (see :func:`deformation_omega`).
    """
    omega = deformation_omega(gamma)
    big_a = 1.0 / omega
    big_b = 1j * np.asarray(gamma, dtype=float) / omega
    iv2 = 1j * v2
    diag = big_a * v3 - big_b * v1
    off = big_a * v1 + big_b * v3
    out = np.empty(np.broadcast(s, diag, iv2).shape + (2, 2), dtype=complex)
    np.add(s, diag, out=out[..., 0, 0])
    np.subtract(off, iv2, out=out[..., 0, 1])
    np.add(off, iv2, out=out[..., 1, 0])
    np.subtract(s, diag, out=out[..., 1, 1])
    return out


def to_matrix(a, gamma=0.0) -> np.ndarray:
    """(..., 2, 2) complex matrices of (..., 8) coefficient arrays, real or
    complex (the complexified algebra), over the generators at deformation
    parameter gamma (...): the :func:`pauli_matrix` of

        s = a_1 + i a_123,  v = (a_e1 + i a_e23, a_e2 + i a_e31, a_e3 + i a_e12),

    as e12 = i e3, e23 = i e1, e31 = i e2 and e123 = i.  At gamma = 0 this
    is the Pauli map, whose inverse is :func:`decompose`.
    """
    a = np.asarray(a)
    return pauli_matrix(a[..., 0] + 1j * a[..., 7], a[..., 1] + 1j * a[..., 5],
                        a[..., 2] + 1j * a[..., 6], a[..., 3] + 1j * a[..., 4], gamma)


def deformed_generators(gamma) -> np.ndarray:
    """The deformed generator set as a (..., 8, 2, 2) array for gamma of
    shape (...), in blade order: the images of the unit blades under
    :func:`to_matrix`, e.g. e1 = [[-B, A], [A, B]] and e3 = [[A, B], [B, -A]].
    |gamma| >= 1 or NaN raises (see :func:`deformation_omega`).
    """
    return to_matrix(_UNIT_BLADES, np.asarray(gamma, dtype=float)[..., None])


# Each basis slot as +-1 times a sorted blade, the bitmap of its generators
# (e1, e2, e3 = bits 1, 2, 4): e31 = -e13.
_BITMAPS = np.array([0, 1, 2, 4, 3, 6, 5, 7])
_ORIENTATIONS = np.array([1, 1, 1, 1, 1, 1, -1, 1])


def _cayley_table() -> np.ndarray:
    """Structure constants as a dense (8, 8, 8) tensor, blade_i blade_j =
    sum_k C[i, j, k] blade_k with one entry +-1 per (i, j), from e_i^2 = 1
    and e_i e_j = -e_j e_i alone: the product of two sorted blades is the
    blade of their bitmaps' XOR, signed by the parity of the swaps that sort
    its generators (the bitmap blade product of Dorst, Fontijne and Mann,
    Geometric Algebra for Computer Science, 2007, ch. 19)."""
    left, right = _BITMAPS[:, None], _BITMAPS[None, :]
    bit_count = np.array([0, 1, 1, 2, 1, 2, 2, 3])
    # each generator of the left blade passes the right blade's lower ones
    swaps = sum(((left >> k) & 1) * bit_count[right & ((1 << k) - 1)] for k in (1, 2))
    slot = np.argsort(_BITMAPS)[left ^ right]
    table = np.zeros((8, 8, 8))
    table[np.arange(8)[:, None], np.arange(8), slot] = (
        _ORIENTATIONS[:, None] * _ORIENTATIONS * _ORIENTATIONS[slot] * (-1) ** swaps)
    return table


_CAYLEY = _cayley_table()
_CAYLEY_64 = _CAYLEY.reshape(64, 8)


def geometric_product(a, b) -> np.ndarray:
    """Geometric (Clifford) product a*b of (..., 8) coefficient arrays: the
    products a_i b_j, as (..., 64), contracted against the structure
    constants with one matrix product.  Each term a_i b_j C[i, j, k] is
    exact beyond the product a_i b_j (C is +-1 or 0), and the terms are
    summed in (i, j) order, as the einsum over the (8, 8, 8) table does."""
    outer = a[..., :, None] * b[..., None, :]
    return outer.reshape(outer.shape[:-2] + (64,)) @ _CAYLEY_64
