"""Galilean linearization matrices, Clifford momenta and the Hamiltonian
factories (generalized, Rashba and magnetic/Zeeman variants).

All operators act on plane waves, so each is a function that returns its
(..., 2, 2) matrices at the classical momentum label p (hbar = m = 1, unit
charge), evaluated over leading batch axes of p, gamma and the shifts alike.
Each operator is a multivector, a scalar s plus a vector v, which it hands
straight to :func:`~bispinor.multivector.pauli_matrix` at gamma.

The SUSY structure over the two Rashba sectors R^+ (beta) and R^- (-beta)
is a set of identities between the 2x2 Clifford momenta P^B and P^A (the
factors :func:`rashba_shifts` gives).  The 4x4 supercharges
Theta+ = [[0, P^B], [0, 0]] / sqrt 2 and Theta- = [[0, 0], [P^A, 0]] / sqrt 2
anticommute to

    H = {Theta+, Theta-} = diag((1/2) P^B P^A, (1/2) P^A P^B) = diag(R^+, R^-),

and [H, Theta+-] = 0, for any blocks.  Pseudo-SUSY keeps Lambda+ = Theta+;
its T-pseudo-adjoint Lambda- is Theta- because (P^B)^#(p), the Clifford
conjugate of P^B(-p)
(:func:`~bispinor.multivector.clifford_conjugation_matrix`), is P^A(p).
The intertwinings R^+ P^B = P^B R^- and R^- P^A = P^A R^+ then hold by
associativity.
"""

from __future__ import annotations

import numpy as np

from .multivector import deformed_generators, in_plane, pauli_matrix, stack_variants

# The gamma-free linearization matrices from their 2x2 blocks: L = L' =
# -i E21 (x) 1 and N = N' = 2i E12 (x) 1, then M4 = M4' = i(L + N/2) and
# M5 = M5' = L - N/2.  Read-only, as build_linearization hands them out.
_L = np.kron([[0, 0], [-1j, 0]], np.eye(2))
_N = np.kron([[0, 2j], [0, 0]], np.eye(2))
_M4_M5 = np.array([1j * (_L + _N / 2.0), _L - _N / 2.0])
for _constant in (_L, _N, _M4_M5):
    _constant.flags.writeable = False


def build_linearization(gamma: float = 0.0):
    """The 4x4 matrices (l, l_prime, n, n_prime, m, m_prime) of the
    first-order (linearized) Schroedinger system, with m = M_1..M_5 and
    m_prime = M_1'..M_5' stacked (5, 4, 4); the defining relations

    L'L = 0,  N'N = 0,  L'N + N'L = 2,  L'M_j + M_j'L = 0,
    N'M_i + M_i'N = 0,  M_i'M_j + M_j'M_i = -2 delta_ij

    hold for every deformation parameter.  Only the spatial M_j =
    diag(e_j, e_j) = -M_j' depend on gamma, through the deformed
    generators e_j; l = l_prime, n = n_prime and M_4, M_5 (equal to their
    primes) are read-only constants.  The spatial rows of the last relation
    are -diag({e_i, e_j}, {e_i, e_j}), the deformed Clifford relations.
    """
    e = deformed_generators(gamma)[1:4]
    m = np.zeros((2, 5, 4, 4), dtype=complex)
    m[0, :3, :2, :2] = m[0, :3, 2:, 2:] = e
    m[1, :3, :2, :2] = m[1, :3, 2:, 2:] = -e
    m[:, 3:] = _M4_M5
    return _L, _L, _N, _N, m[0], m[1]


def _pad3(p) -> np.ndarray:
    """Momenta (..., 2) as (..., 3), the third component 0."""
    p = in_plane(p, "momentum")
    return np.concatenate([p, np.zeros(p.shape[:-1] + (1,))], axis=-1)


def _branch_sign(branch):
    """The branch of rashba(sign=) and magnetic(branch=), once checked to be
    +1, -1 or an array of them."""
    if not (branch in (1, -1) if np.isscalar(branch)
            else np.logical_or(branch == 1, branch == -1).all()):
        raise ValueError(f"branch sign must be +1 or -1, got {branch!r}")
    return branch


def clifford_momentum(gamma, shift, p) -> np.ndarray:
    """The shifted momentum 1-blade sum_j e_j^gamma (p_j + Q_j) at momenta p.

    gamma (...), shifts Q (..., 3) and momenta p (..., 2) broadcast; the
    result is (..., 2, 2).
    """
    # + 0j is the zero imaginary part to_matrix adds to each coefficient: it
    # turns -0 into +0, so the matrices keep its bits
    q = _pad3(p) + np.asarray(shift) + 0j
    return pauli_matrix(0j, q[..., 0], q[..., 1], q[..., 2], gamma)


def momentum_product(gamma, left_shift, right_shift, p) -> np.ndarray:
    """(1/2) P_left(p) P_right(p), (..., 2, 2): with l = p + left_shift and
    r = p + right_shift, the multivector s + v.e with s = l.r / 2 and
    v = (i/2) l x r (the bivector l ^ r / 2 over {e12, e23, e31} is i/2
    times l x r).  gamma (...), the shifts (..., 3) and momenta p (..., 2)
    broadcast; H^AB = (1/2) P^B P^A takes (shift_b, shift_a)."""
    p3 = _pad3(p)
    l = p3 + np.asarray(left_shift)
    r = p3 + np.asarray(right_shift)
    kinetic = 0.5 * (l[..., 0] * r[..., 0] + l[..., 1] * r[..., 1] + l[..., 2] * r[..., 2])
    e12 = 0.5 * (l[..., 0] * r[..., 1] - l[..., 1] * r[..., 0])
    e23 = 0.5 * (l[..., 1] * r[..., 2] - l[..., 2] * r[..., 1])
    e31 = 0.5 * (l[..., 2] * r[..., 0] - l[..., 0] * r[..., 2])
    # each as to_matrix forms it from the coefficients, + 0j included
    return pauli_matrix(kinetic + 0j, 1j * e23 + 0j, 1j * e31 + 0j, 1j * e12 + 0j, gamma)


def rashba_shifts(beta):
    """The left and right shifts of R^+, those of P^B and P^A, stacked
    (2, ..., 3): B = +i(0, 0, beta), A = -i(0, 0, beta), the zero-field
    magnetic shifts."""
    return magnetic_shifts(beta, (0.0, 0.0), 1)


def rashba(gamma, beta, p, *, sign: int = 1) -> np.ndarray:
    """The deformed Rashba Hamiltonian R^sign_gamma(p) = (1/2) P^B P^A,
    (..., 2, 2) for broadcastable gamma, beta (...) and momenta p (..., 2):
    the zero-field magnetic Hamiltonian.

    sign=-1 flips beta; an array of signs broadcasts with beta.  The adjoint
    of the +gamma operator equals the -gamma one entrywise.
    """
    return magnetic(gamma, beta, (0.0, 0.0), 0.0, p, branch=sign)


def rashba_signs(gamma, beta, p) -> np.ndarray:
    """R^+ and R^- stacked (2, ..., 2, 2) from one :func:`rashba` call over
    both signs; each slice equals its single-sign call bit for bit."""
    ndim = np.broadcast(gamma, beta, np.asarray(p)[..., 0]).ndim
    return rashba(gamma, beta, p, sign=stack_variants((1, -1), ndim))


def magnetic_shifts(beta, a_vec, branch):
    """The left and right shifts of the magnetic Hamiltonian, stacked
    (2, ..., 3): the gauge shift a_vec (..., 2) in plane and +-i branch beta
    on the third component; branch is +1, -1 or an array of them that
    broadcasts with beta."""
    a_vec = in_plane(a_vec, "gauge shift")
    shift3 = 1j * np.asarray(beta) * _branch_sign(branch)
    shifts = np.empty((2,) + np.broadcast(a_vec[..., 0], shift3).shape + (3,), dtype=complex)
    shifts[..., :2] = a_vec
    shifts[0, ..., 2] = shift3
    np.negative(shift3, out=shifts[1, ..., 2])
    return shifts


def magnetic(gamma, beta, a_vec, b3, p, *, branch: int = 1) -> np.ndarray:
    """Rashba Hamiltonian with a constant in-plane gauge shift and Zeeman term,

    H^branch = (1/2)[(p1+A1)^2 + (p2+A2)^2 + beta^2]
               + branch beta [(p2+A2) e1 - (p1+A1) e2] + B3 e3,

    the real closed form of (1/2) P_l P_r + B3 e3 for the two shifted
    Clifford momenta l, r = p + A +- i branch beta e3 (their shifts are
    :func:`magnetic_shifts`), handed to pauli_matrix as s and v.  At
    B3 = 0 it has the bits of :func:`momentum_product` of those shifts on
    finite inputs whose products do not overflow.  gamma, beta and B3
    (...), a_vec (..., 2) and momenta p (..., 2) broadcast; the result is
    (..., 2, 2).
    """
    q = in_plane(p, "momentum") + in_plane(a_vec, "gauge shift")
    u, w = q[..., 0], q[..., 1]
    beta = np.asarray(beta, dtype=float)
    b_beta = _branch_sign(branch) * beta
    # + 0.0 turns a -0 in v1 into +0, as the product form's + 0j does; with
    # v1 at +0, a -0 in v2 or v3 does not reach the matrix
    return pauli_matrix(0.5 * (u * u + w * w + beta * beta), b_beta * w + 0.0,
                        -b_beta * u, np.asarray(b3, dtype=float), gamma)
