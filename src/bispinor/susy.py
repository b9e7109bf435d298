"""Supercharges and the pseudo-SUSY charge, all as plain (..., 4, 4) arrays
over the two Rashba sectors R^+ (beta) and R^- (-beta): the SUSY
Hamiltonian {Theta+, Theta-} holds them as h[..., :2, :2] and
h[..., 2:, 2:].  Pseudo-SUSY keeps Lambda+ = Theta+ and adds Lambda-, the
T-pseudo-adjoint of Lambda+, with time reversal acting blockwise as
diag(e13, e13) (:func:`~bispinor.timereversal.pseudo_adjoint`).

Each charge is built from Clifford-momentum arrays P^B and P^A (..., 2, 2),
so a caller that needs several evaluates the momenta once;
:func:`supercharges` is the front end at (gamma, beta, p).
"""

from __future__ import annotations

import numpy as np

from .momenta import clifford_momentum, rashba_shifts
from .multivector import matmul2, stack_variants
from .timereversal import pseudo_adjoint

_SQRT2 = np.sqrt(2.0)


def _offdiag(upper=None, lower=None) -> np.ndarray:
    """The (..., 4, 4) operators [[0, upper], [lower, 0]] for (..., 2, 2)
    blocks (a missing block is zero)."""
    block = upper if upper is not None else lower
    out = np.zeros(np.shape(block)[:-2] + (4, 4), dtype=complex)
    if upper is not None:
        out[..., :2, 2:] = upper
    if lower is not None:
        out[..., 2:, :2] = lower
    return out


def theta_plus(p_b) -> np.ndarray:
    """Theta^+ = (1/sqrt 2) offdiag-upper(P^B), (..., 4, 4), from the
    Clifford momenta P^B (..., 2, 2)."""
    return _offdiag(upper=p_b / _SQRT2)


def theta_minus(p_a) -> np.ndarray:
    """Theta^- = (1/sqrt 2) offdiag-lower(P^A), (..., 4, 4), from P^A."""
    return _offdiag(lower=p_a / _SQRT2)


def supercharges(gamma, beta, p) -> tuple[np.ndarray, np.ndarray]:
    """Theta^+ and Theta^-, of shape (..., 4, 4) for gamma, beta (...) and
    momenta (..., 2), from one Clifford-momentum call."""
    ndim = np.broadcast(gamma, beta, np.asarray(p)[..., 0]).ndim
    shifts = stack_variants(rashba_shifts(beta, 1), ndim, core=1)
    p_b, p_a = clifford_momentum(gamma, shifts, p)
    return theta_plus(p_b), theta_minus(p_a)


def anticommutator(a, b) -> np.ndarray:
    """{a, b} = a b + b a of (..., 4, 4) operators."""
    return a @ b + b @ a


def pseudo_susy(p_b_minus_p) -> np.ndarray:
    """The pseudo-SUSY charge Lambda- = (Lambda+)^# (..., 4, 4), given P^B
    at -p: the pseudo-adjoint of Lambda+ = Theta+ taken at -p.  It carries
    (Delta^B)^# = P^A in the lower off-diagonal block, so it is Theta- and
    {Lambda+, Lambda-} is the SUSY Hamiltonian."""
    return pseudo_adjoint(theta_plus(p_b_minus_p))


def intertwining_residuals(r_plus, r_minus, p_b, p_b_minus_p):
    """Residuals of R^+ P^B = P^B R^- and R^- (P^B)^# = (P^B)^# R^+, per
    matrix, from R^+, R^- and P^B at p and at -p (..., 2, 2)."""
    p_b_sharp = pseudo_adjoint(p_b_minus_p)
    r1 = np.abs(matmul2(r_plus, p_b) - matmul2(p_b, r_minus)).max(axis=(-1, -2))[()]
    r2 = np.abs(matmul2(r_minus, p_b_sharp)
                - matmul2(p_b_sharp, r_plus)).max(axis=(-1, -2))[()]
    return r1, r2
