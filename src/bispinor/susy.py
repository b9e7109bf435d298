"""Supercharges, SUSY / pseudo-SUSY Hamiltonians, Witten parity and the
super time-reversal operator, all as plain (..., 4, 4) arrays over the two
Rashba sectors R^+ (beta) and R^- (-beta); the sectors are h[..., :2, :2]
and h[..., 2:, 2:].
"""

from __future__ import annotations

import numpy as np

from .momenta import clifford_momentum, rashba, rashba_shifts
from .multivector import E13
from .timereversal import pseudo_adjoint

_SQRT2 = np.sqrt(2.0)

_SUPER_U = np.kron(np.eye(2), E13)


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


def supercharges(gamma, beta, p) -> tuple[np.ndarray, np.ndarray]:
    """Theta^+ = (1/sqrt 2) offdiag-upper(P^B), Theta^- = lower(P^A), of shape
    (..., 4, 4) for gamma, beta (...) and momenta (..., 2)."""
    shift_b, shift_a = rashba_shifts(beta, 1)
    return (_offdiag(upper=clifford_momentum(gamma, shift_b, p) / _SQRT2),
            _offdiag(lower=clifford_momentum(gamma, shift_a, p) / _SQRT2))


def susy_hamiltonian(gamma, beta, p) -> np.ndarray:
    """H = {Theta+, Theta-} = diag(R^+(p), R^-(p))."""
    tp, tm = supercharges(gamma, beta, p)
    return tp @ tm + tm @ tp


def witten_parity() -> np.ndarray:
    return np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)


def super_time_reversal() -> np.ndarray:
    """Unitary part of the block time reversal, diag(e13, e13); squares to -1."""
    return _SUPER_U.copy()


def pseudo_susy(gamma, beta, p):
    """Pseudo-SUSY data (Lambda+, Lambda-, H_pSUSY), each (..., 4, 4).

    Lambda+ carries Delta^B = P^B in the upper off-diagonal block and
    Lambda- its pseudo-adjoint (Delta^B)^# = P^A in the lower one, so the
    anticommutator reproduces the SUSY Hamiltonian.
    """
    shift_b, _ = rashba_shifts(beta, 1)
    p = np.asarray(p, dtype=float)
    lambda_plus = _offdiag(upper=clifford_momentum(gamma, shift_b, p) / _SQRT2)
    delta_sharp = pseudo_adjoint(clifford_momentum(gamma, shift_b, -p))
    lambda_minus = _offdiag(lower=delta_sharp / _SQRT2)
    h_psusy = lambda_plus @ lambda_minus + lambda_minus @ lambda_plus
    return lambda_plus, lambda_minus, h_psusy


def intertwining_residuals(gamma, beta, p):
    """Residuals of R^+ P^B = P^B R^- and R^- (P^B)^# = (P^B)^# R^+ at p,
    per momentum of p (..., 2)."""
    shift_b, _ = rashba_shifts(beta, 1)
    p = np.asarray(p, dtype=float)
    r_plus = rashba(gamma, beta, p)
    r_minus = rashba(gamma, beta, p, sign=-1)
    delta = clifford_momentum(gamma, shift_b, p)
    delta_sharp = pseudo_adjoint(clifford_momentum(gamma, shift_b, -p))
    r1 = np.abs(r_plus @ delta - delta @ r_minus).max(axis=(-1, -2))[()]
    r2 = np.abs(r_minus @ delta_sharp - delta_sharp @ r_plus).max(axis=(-1, -2))[()]
    return r1, r2
