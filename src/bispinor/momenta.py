"""Galilean linearization matrices, Clifford momenta and the Hamiltonian
factories (generalized, Rashba and magnetic/Zeeman variants).

All operators act on plane waves, so each is a function that returns its
(..., 2, 2) matrices at the classical momentum label p (hbar = m = 1, unit
charge), evaluated over leading batch axes of p, gamma and the shifts alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .multivector import deformed_generators


@dataclass(frozen=True)
class LinearizationSet:
    """The 4x4 matrices of the first-order (linearized) Schroedinger system."""

    l: np.ndarray
    l_prime: np.ndarray
    n: np.ndarray
    n_prime: np.ndarray
    m: tuple[np.ndarray, ...]           # M_1..M_5
    m_prime: tuple[np.ndarray, ...]     # M_1'..M_5'
    lam: np.ndarray                     # Lambda = offdiag(1, 1)


def build_linearization(gamma: float = 0.0) -> LinearizationSet:
    """Construct the linearization matrices; the defining relations

    L'L = 0,  N'N = 0,  L'N + N'L = 2,  L'M_j + M_j'L = 0,
    N'M_i + M_i'N = 0,  M_i'M_j + M_j'M_i = -2 delta_ij

    hold for every deformation parameter since they are similarity images of
    the undeformed system.
    """
    e1, e2, e3 = cached_generators(gamma)[1:4]
    z2 = np.zeros((2, 2), dtype=complex)
    i2 = np.eye(2, dtype=complex)

    def offdiag(a, b):
        return np.block([[z2, a], [b, z2]])

    gammas = tuple(offdiag(e, e) for e in (e1, e2, e3))
    gamma4 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    lam = offdiag(i2, i2)
    lam_inv = lam  # Lambda is its own inverse

    m5 = -1j * lam
    m5_prime = -1j * lam_inv
    m4 = lam @ gamma4
    m4_prime = -gamma4 @ lam_inv
    m = tuple(lam @ g for g in gammas) + (m4, m5)
    m_prime = tuple(-g @ lam_inv for g in gammas) + (m4_prime, m5_prime)

    # Invert the identifications M4 = i(L + N/2), M5 = L - N/2.
    l = (m5 - 1j * m4) / 2.0
    n = -1j * m4 - m5
    l_prime = (m5_prime - 1j * m4_prime) / 2.0
    n_prime = -1j * m4_prime - m5_prime

    return LinearizationSet(
        l=l, l_prime=l_prime, n=n, n_prime=n_prime,
        m=m, m_prime=m_prime, lam=lam,
    )


def cached_generators(gamma) -> np.ndarray:
    """(..., 8, 2, 2) deformed generators for gamma of shape (...), read-only.

    One cache serves every gamma, a single value included.  It is keyed by
    content (shape and float64 bytes, never identity, so a stack mutated in
    place is rebuilt) and holds two entries: a check alternates at most
    between gamma and -gamma, and memory stays bounded at two stacks, 512
    bytes per gamma each.  A failed build (|gamma| >= 1 or NaN) raises and
    is never cached.
    """
    # np.asarray keeps a single gamma 0-d, so it gives (8, 2, 2)
    gamma = np.asarray(gamma, dtype=float)
    return _stack_generators(gamma.shape, gamma.tobytes())


@lru_cache(maxsize=2)
def _stack_generators(shape: tuple[int, ...], data: bytes) -> np.ndarray:
    generators = deformed_generators(np.frombuffer(data).reshape(shape))
    generators.flags.writeable = False
    return generators


def _pad3(p) -> np.ndarray:
    """Momenta (..., 2) or (..., 3) as (..., 3), the third component 0 if absent."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1:] == (2,):
        return np.concatenate([p, np.zeros(p.shape[:-1] + (1,))], axis=-1)
    if p.shape[-1:] != (3,):
        raise ValueError("momentum must have 2 or 3 components")
    return p


def _vec3(x, y, z) -> np.ndarray:
    """Broadcastable components stacked into (..., 3) complex vectors."""
    out = np.empty(np.broadcast(x, y, z).shape + (3,), dtype=complex)
    out[..., 0], out[..., 1], out[..., 2] = x, y, z
    return out


def _per_matrix(x) -> np.ndarray:
    """Coefficients of shape (...) made to scale (..., 2, 2) matrices."""
    return np.asarray(x)[..., None, None]


def clifford_momentum(gamma, shift, p) -> np.ndarray:
    """The shifted momentum 1-blade sum_j e_j^gamma (p_j + Q_j) at momenta p.

    gamma (...), shifts Q (..., 3) and momenta p (..., 2) or (..., 3)
    broadcast; the result is (..., 2, 2).
    """
    q = _pad3(p) + np.asarray(shift)
    e = cached_generators(gamma)
    return (e[..., 1, :, :] * _per_matrix(q[..., 0])
            + e[..., 2, :, :] * _per_matrix(q[..., 1])
            + e[..., 3, :, :] * _per_matrix(q[..., 2]))


def momentum_product(gamma, left_shift, right_shift, p, zeeman=0.0) -> np.ndarray:
    """(1/2) P_left(p) P_right(p) + zeeman e3^gamma, (..., 2, 2), assembled
    from a kinetic scalar and the bivector coefficients over {e12, e23, e31}.
    gamma and zeeman (...), the shifts (..., 3) and momenta p (..., 2) or
    (..., 3) broadcast; H^AB = (1/2) P^B P^A takes (shift_b, shift_a)."""
    p3 = _pad3(p)
    l = p3 + np.asarray(left_shift)
    r = p3 + np.asarray(right_shift)
    e = cached_generators(gamma)
    kinetic = 0.5 * (l[..., 0] * r[..., 0] + l[..., 1] * r[..., 1] + l[..., 2] * r[..., 2])
    e12 = 0.5 * (l[..., 0] * r[..., 1] - l[..., 1] * r[..., 0])
    e23 = 0.5 * (l[..., 1] * r[..., 2] - l[..., 2] * r[..., 1])
    e31 = 0.5 * (l[..., 2] * r[..., 0] - l[..., 0] * r[..., 2])
    return (_per_matrix(kinetic) * e[..., 0, :, :]
            + _per_matrix(e12) * e[..., 4, :, :]
            + _per_matrix(e23) * e[..., 5, :, :]
            + _per_matrix(e31) * e[..., 6, :, :]
            + _per_matrix(zeeman) * e[..., 3, :, :])


def rashba_shifts(beta, sign):
    """The (left, right) shifts (..., 3) of R^sign, those of P^B and P^A:
    B = +i(0, 0, sign beta), A = -i(0, 0, sign beta)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    b3 = 1j * np.asarray(beta) * sign
    return _vec3(0.0, 0.0, b3), _vec3(0.0, 0.0, -b3)


def rashba(gamma, beta, p, *, sign: int = 1) -> np.ndarray:
    """The deformed Rashba Hamiltonian R^sign_gamma(p) = (1/2) P^B P^A,
    (..., 2, 2) for broadcastable gamma, beta (...) and momenta p (..., 2).

    sign=-1 flips beta.  The adjoint of the +gamma operator equals the
    -gamma one entrywise.
    """
    return momentum_product(gamma, *rashba_shifts(beta, sign), p)


def magnetic_shifts(beta, a_vec, branch):
    """The (left, right) shifts (..., 3) of the magnetic Hamiltonian: the gauge
    shift a_vec (..., 2) in plane and +-i branch beta on the third component."""
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    a_vec = np.asarray(a_vec, dtype=float)
    if a_vec.shape[-1:] != (2,):
        raise ValueError("gauge shift must have 2 components")
    shift3 = 1j * np.asarray(beta) * branch
    return (_vec3(a_vec[..., 0], a_vec[..., 1], shift3),
            _vec3(a_vec[..., 0], a_vec[..., 1], -shift3))


def magnetic(gamma, beta, a_vec, b3, p, *, branch: int = 1) -> np.ndarray:
    """Rashba Hamiltonian with a constant in-plane gauge shift and Zeeman term,

    H^branch = (1/2)[(p1+A1)^2 + (p2+A2)^2 + beta^2]
               + branch * i beta [e31 (p1+A1) - e23 (p2+A2)] + e3 B3,

    half the ordered product of the two shifted Clifford momenta
    p_j + A_j +- i beta delta_j3, plus the Zeeman coefficient.  gamma, beta
    and B3 (...), a_vec (..., 2) and momenta p (..., 2) broadcast; the
    result is (..., 2, 2).
    """
    return momentum_product(gamma, *magnetic_shifts(beta, a_vec, branch), p,
                            zeeman=np.asarray(b3, dtype=float))
