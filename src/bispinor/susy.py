"""Supercharges over the two Rashba sectors R^+ (beta) and R^- (-beta).

Theta+ = offdiag-upper(P^B) / sqrt 2 and Theta- = offdiag-lower(P^A) / sqrt 2
are (..., 4, 4) arrays built from the Clifford momenta P^B and P^A
(..., 2, 2), so every SUSY statement is an identity between 2x2 blocks:

    H = {Theta+, Theta-} = diag((1/2) P^B P^A, (1/2) P^A P^B) = diag(R^+, R^-),

and [H, Theta+-] = 0 holds for any blocks.  Pseudo-SUSY keeps
Lambda+ = Theta+; its T-pseudo-adjoint Lambda- is Theta- because
(P^B)^#(p), the Clifford conjugate of P^B(-p)
(:func:`~bispinor.multivector.clifford_conjugation_matrix`), is P^A(p).
The intertwinings R^+ P^B = P^B R^- and R^- P^A = P^A R^+ then hold by
associativity.
"""

from __future__ import annotations

import numpy as np

from .momenta import clifford_momentum, rashba_shifts
from .multivector import offdiag, stack_variants

_SQRT2 = np.sqrt(2.0)


def supercharges(gamma, beta, p) -> tuple[np.ndarray, np.ndarray]:
    """Theta^+ and Theta^-, of shape (..., 4, 4) for gamma, beta (...) and
    momenta (..., 2), from one Clifford-momentum call."""
    ndim = np.broadcast(gamma, beta, np.asarray(p)[..., 0]).ndim
    shifts = stack_variants(rashba_shifts(beta), ndim, core=1)
    p_b, p_a = clifford_momentum(gamma, shifts, p)
    return offdiag(upper=p_b / _SQRT2), offdiag(lower=p_a / _SQRT2)


def anticommutator(a, b) -> np.ndarray:
    """{a, b} = a b + b a of (..., 4, 4) operators."""
    return a @ b + b @ a
