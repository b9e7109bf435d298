"""Galilean linearization matrices, Clifford momenta and the Hamiltonian
factories (generalized, Rashba and magnetic/Zeeman variants).

All operators act on plane waves, so they are realized as matrix-valued
functions of the classical momentum label p (hbar = m = 1, unit charge),
evaluated over leading batch axes of p, gamma and the shifts alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .multivector import deformation_omega, deformed_generators, make_deformed_basis


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
    basis = make_deformed_basis(gamma)
    e1, e2, e3 = basis.vectors
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
    """(..., 8, 2, 2) deformed generators, read-only.

    A single gamma is served from the basis cache.  A gamma stack is served
    from a cache keyed by its content (shape and float64 bytes, never its
    identity, so a stack mutated in place is rebuilt).  The stack cache holds
    two entries: a check alternates at most between gamma and -gamma, and
    memory stays bounded at two stacks, 512 bytes per gamma each.  The
    registry reads its configured and drawn gamma stacks through it too.  A
    failed build (|gamma| >= 1 or NaN) raises and is never cached.
    """
    if np.ndim(gamma) == 0:
        return make_deformed_basis(float(gamma)).generators
    gamma = np.ascontiguousarray(gamma, dtype=float)
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


@dataclass(frozen=True)
class CliffordMomentum:
    """The shifted momentum 1-blade p -> sum_j e_j^gamma (p_j + Q_j).

    ``gamma`` may be an array and ``shift`` a (..., 3) array; evaluate(p)
    broadcasts them against momenta of shape (..., 2) or (..., 3) and
    returns (..., 2, 2) matrices.
    """

    gamma: float
    shift: tuple[complex, complex, complex] = (0.0, 0.0, 0.0)

    def evaluate(self, p) -> np.ndarray:
        q = _pad3(p) + np.asarray(self.shift)
        e = cached_generators(self.gamma)
        return (e[..., 1, :, :] * _per_matrix(q[..., 0])
                + e[..., 2, :, :] * _per_matrix(q[..., 1])
                + e[..., 3, :, :] * _per_matrix(q[..., 2]))

    def __call__(self, p) -> np.ndarray:
        return self.evaluate(p)


@dataclass(frozen=True)
class MomentumHamiltonian:
    """Half the product of two Clifford momenta, stored structurally.

    evaluate(p) assembles the matrix from the structured coefficients:
    a kinetic scalar, three bivector interaction coefficients over
    {e12, e23, e31}, and a Zeeman coefficient on e3^gamma.  ``left_shift``
    belongs to the left factor of the product and ``right_shift`` to the
    right one.  Like :class:`CliffordMomentum` it broadcasts array-valued
    gamma, shifts and Zeeman coefficient against momenta (..., 2) or
    (..., 3), returning (..., 2, 2) matrices.
    """

    gamma: float
    left_shift: tuple[complex, complex, complex]
    right_shift: tuple[complex, complex, complex]
    zeeman: float = 0.0
    beta: float = 0.0
    sign: int = 0

    def evaluate(self, p) -> np.ndarray:
        p3 = _pad3(p)
        l = p3 + np.asarray(self.left_shift)
        r = p3 + np.asarray(self.right_shift)
        e = cached_generators(self.gamma)
        kinetic = 0.5 * (l[..., 0] * r[..., 0] + l[..., 1] * r[..., 1] + l[..., 2] * r[..., 2])
        e12 = 0.5 * (l[..., 0] * r[..., 1] - l[..., 1] * r[..., 0])
        e23 = 0.5 * (l[..., 1] * r[..., 2] - l[..., 2] * r[..., 1])
        e31 = 0.5 * (l[..., 2] * r[..., 0] - l[..., 0] * r[..., 2])
        return (_per_matrix(kinetic) * e[..., 0, :, :]
                + _per_matrix(e12) * e[..., 4, :, :]
                + _per_matrix(e23) * e[..., 5, :, :]
                + _per_matrix(e31) * e[..., 6, :, :]
                + _per_matrix(self.zeeman) * e[..., 3, :, :])

    def __call__(self, p) -> np.ndarray:
        return self.evaluate(p)


def factorize(a: CliffordMomentum, b: CliffordMomentum):
    """Hamiltonians H^AB = (1/2) B(p) A(p) and H^BA = (1/2) A(p) B(p)."""
    if np.any(np.asarray(a.gamma) != np.asarray(b.gamma)):
        raise ValueError("mismatched deformation parameters")
    h_ab = MomentumHamiltonian(gamma=a.gamma, left_shift=b.shift, right_shift=a.shift)
    h_ba = MomentumHamiltonian(gamma=a.gamma, left_shift=a.shift, right_shift=b.shift)
    return h_ab, h_ba


def rashba(gamma, beta, sign: int = 1) -> MomentumHamiltonian:
    """The deformed Rashba Hamiltonian R^sign_gamma (gamma and beta may be
    broadcastable arrays).

    sign=+1 gives (1/2) P^B P^A with A = -i(0,0,beta), B = +i(0,0,beta);
    sign=-1 flips beta.  The adjoint of the +gamma operator equals the
    -gamma one entrywise.
    """
    deformation_omega(gamma)  # rejects |gamma| >= 1
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    b3 = 1j * np.asarray(beta) * sign
    return MomentumHamiltonian(
        gamma=gamma,
        left_shift=_vec3(0.0, 0.0, b3),
        right_shift=_vec3(0.0, 0.0, -b3),
        beta=beta,
        sign=sign,
    )


def magnetic(gamma, beta, a_vec, b3, branch: int = 1) -> MomentumHamiltonian:
    """Rashba Hamiltonian with a constant in-plane gauge shift and Zeeman term.

    H^branch = (1/2)[(p1+A1)^2 + (p2+A2)^2 + beta^2]
               + branch * i beta [e31 (p1+A1) - e23 (p2+A2)] + e3 B3,

    realized as half the ordered product of the two shifted Clifford momenta
    p_j + A_j +- i beta delta_j3, plus the Zeeman coefficient.  gamma, beta
    and B3 may be broadcastable arrays and ``a_vec`` of shape (..., 2).
    """
    deformation_omega(gamma)  # rejects |gamma| >= 1
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    a_vec = np.asarray(a_vec, dtype=float)
    if a_vec.shape[-1:] != (2,):
        raise ValueError("gauge shift must have 2 components")
    shift3 = 1j * np.asarray(beta) * branch
    return MomentumHamiltonian(
        gamma=gamma,
        left_shift=_vec3(a_vec[..., 0], a_vec[..., 1], shift3),
        right_shift=_vec3(a_vec[..., 0], a_vec[..., 1], -shift3),
        zeeman=np.asarray(b3, dtype=float)[()],
        beta=beta,
        sign=branch,
    )


def momentum_factors(h: MomentumHamiltonian) -> tuple[CliffordMomentum, CliffordMomentum]:
    """The (left, right) Clifford momentum factors of a structured Hamiltonian."""
    return (
        CliffordMomentum(gamma=h.gamma, shift=h.left_shift),
        CliffordMomentum(gamma=h.gamma, shift=h.right_shift),
    )
