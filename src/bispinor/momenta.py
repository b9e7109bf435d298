"""Clifford momenta, the Hamiltonian factories (generalized, Rashba and
magnetic/Zeeman variants) and the 2x2 factors of the Galilean linearization.

All operators act on plane waves, so each is a function that returns its
(..., 2, 2) matrices at the classical momentum label p (hbar = m = 1, unit
charge), evaluated over leading batch axes of p, gamma and the shifts alike.
Each operator is a multivector, a scalar s plus a vector v, which it hands
straight to :func:`~bispinor.multivector.pauli_matrix` at gamma.

The SUSY structure over the two Rashba sectors R^+ (beta) and R^- (-beta),
:func:`rashba` at beta and at -beta (beta alone carries the sector),
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

The first-order (Levy-Leblond) linearization is made of Kronecker products
of 2x2 blocks: L = L' = ELL (x) 1 with ELL = -i E21, N = N' = NU (x) 1 with
NU = 2i E12, M_j = -M_j' = 1 (x) e_j^gamma (j = 1..3),
M4 = M4' = i(ELL + NU/2) (x) 1 and M5 = M5' = (ELL - NU/2) (x) 1.  As
(A (x) B)(C (x) D) = AC (x) BD, its defining relations

    L'L = 0,  N'N = 0,  L'N + N'L = 2,  L'M_j + M_j'L = 0,
    N'M_j + M_j'N = 0,  M_i'M_j + M_j'M_i = -2 delta_ij

reduce to ELL^2 = NU^2 = 0 and {ELL, NU} = 2, to the deformed Clifford
relations {e_i, e_j} = 2 delta_ij, and to cross terms that vanish for any
blocks.  So the library keeps only the two factors ELL and NU, read-only.
"""

from __future__ import annotations

import numpy as np

from .multivector import in_plane, pauli_matrix

# The 2x2 factors of the linearization: L = L' = ELL (x) 1 and N = N' = NU (x) 1.
ELL = np.array([[0.0, 0.0], [-1j, 0.0]])        # -i E21
NU = np.array([[0.0, 2j], [0.0, 0.0]])          # 2i E12
ELL.flags.writeable = NU.flags.writeable = False


def _pad3(p) -> np.ndarray:
    """Momenta (..., 2) as (..., 3), the third component 0."""
    p = in_plane(p, "momentum")
    return np.concatenate([p, np.zeros(p.shape[:-1] + (1,))], axis=-1)


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
    return magnetic_shifts(beta, (0.0, 0.0))


def rashba(gamma, beta, p) -> np.ndarray:
    """The deformed Rashba Hamiltonian R_gamma(p) = (1/2) P^B P^A,
    (..., 2, 2) for broadcastable gamma, beta (...) and momenta p (..., 2):
    the zero-field magnetic Hamiltonian.

    The sector lives in beta: R^+ is rashba(gamma, beta, p) and its SUSY
    partner R^- = (1/2) P^A P^B is rashba(gamma, -beta, p).  The adjoint of
    the +gamma operator equals the -gamma one entrywise.
    """
    return magnetic(gamma, beta, (0.0, 0.0), 0.0, p)


def magnetic_shifts(beta, a_vec):
    """The left and right shifts of the magnetic Hamiltonian, stacked
    (2, ..., 3): the gauge shift a_vec (..., 2) in plane and +-i beta on the
    third component; beta (...) broadcasts with a_vec."""
    a_vec = in_plane(a_vec, "gauge shift")
    shift3 = 1j * np.asarray(beta)
    shifts = np.empty((2,) + np.broadcast(a_vec[..., 0], shift3).shape + (3,), dtype=complex)
    shifts[..., :2] = a_vec
    shifts[0, ..., 2] = shift3
    np.negative(shift3, out=shifts[1, ..., 2])
    return shifts


def magnetic(gamma, beta, a_vec, b3, p) -> np.ndarray:
    """Rashba Hamiltonian with a constant in-plane gauge shift and Zeeman term,

    H = (1/2)[(p1+A1)^2 + (p2+A2)^2 + beta^2]
        + beta [(p2+A2) e1 - (p1+A1) e2] + B3 e3,

    the real closed form of (1/2) P_l P_r + B3 e3 for the two shifted
    Clifford momenta l, r = p + A +- i beta e3 (their shifts are
    :func:`magnetic_shifts`), handed to pauli_matrix as s and v.  The sector
    lives in beta: -beta swaps l and r.  At B3 = 0 it has the bits of
    :func:`momentum_product` of those shifts on finite inputs whose products
    do not overflow.  gamma, beta and B3 (...), a_vec (..., 2) and momenta
    p (..., 2) broadcast; the result is (..., 2, 2).
    """
    q = in_plane(p, "momentum") + in_plane(a_vec, "gauge shift")
    u, w = q[..., 0], q[..., 1]
    beta = np.asarray(beta, dtype=float)
    # + 0.0 turns a -0 in v1 into +0, as the product form's + 0j does; with
    # v1 at +0, a -0 in v2 or v3 does not reach the matrix
    return pauli_matrix(0.5 * (u * u + w * w + beta * beta), beta * w + 0.0,
                        -beta * u, np.asarray(b3, dtype=float), gamma)
