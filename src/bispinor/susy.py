"""Supercharges, SUSY / pseudo-SUSY Hamiltonians, Witten parity and the
super time-reversal operator, all as plain 4x4 arrays over the two Rashba
sectors R^+ (beta) and R^- (-beta); the sectors are h[:2, :2] and h[2:, 2:].
"""

from __future__ import annotations

import numpy as np

from .momenta import momentum_factors, rashba
from .multivector import E13
from .timereversal import pseudo_adjoint

_Z2 = np.zeros((2, 2), dtype=complex)
_SQRT2 = np.sqrt(2.0)

_SUPER_U = np.block([[E13, _Z2], [_Z2, E13]])


def _offdiag(upper=_Z2, lower=_Z2) -> np.ndarray:
    """The 4x4 operator [[0, upper], [lower, 0]]."""
    return np.block([[_Z2, upper], [lower, _Z2]])


def supercharges(gamma: float, beta: float, p) -> tuple[np.ndarray, np.ndarray]:
    """Theta^+ = (1/sqrt 2) offdiag-upper(P^B), Theta^- = lower(P^A)."""
    pb, pa = momentum_factors(rashba(gamma, beta, 1))
    p = np.asarray(p, dtype=float)
    return _offdiag(upper=pb(p) / _SQRT2), _offdiag(lower=pa(p) / _SQRT2)


def susy_hamiltonian(gamma: float, beta: float, p) -> np.ndarray:
    """H = {Theta+, Theta-} = diag(R^+(p), R^-(p))."""
    tp, tm = supercharges(gamma, beta, p)
    return tp @ tm + tm @ tp


def witten_parity() -> np.ndarray:
    return np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)


def super_time_reversal() -> np.ndarray:
    """Unitary part of the block time reversal, diag(e13, e13); squares to -1."""
    return _SUPER_U.copy()


def pseudo_susy(gamma: float, beta: float, p):
    """Pseudo-SUSY data (Lambda+, Lambda-, H_pSUSY).

    Lambda+ carries Delta^B = P^B in the upper off-diagonal block and
    Lambda- its pseudo-adjoint (Delta^B)^# = P^A in the lower one, so the
    anticommutator reproduces the SUSY Hamiltonian.
    """
    pb, _ = momentum_factors(rashba(gamma, beta, 1))
    p = np.asarray(p, dtype=float)
    lambda_plus = _offdiag(upper=pb(p) / _SQRT2)
    lambda_minus = _offdiag(lower=pseudo_adjoint(pb, p) / _SQRT2)
    h_psusy = lambda_plus @ lambda_minus + lambda_minus @ lambda_plus
    return lambda_plus, lambda_minus, h_psusy


def intertwining_residuals(gamma: float, beta: float, p) -> tuple[float, float]:
    """Residuals of R^+ P^B = P^B R^- and R^- (P^B)^# = (P^B)^# R^+ at p."""
    pb, _ = momentum_factors(rashba(gamma, beta, 1))
    p = np.asarray(p, dtype=float)
    r_plus = rashba(gamma, beta, 1).evaluate(p)
    r_minus = rashba(gamma, beta, -1).evaluate(p)
    delta = pb(p)
    delta_sharp = pseudo_adjoint(pb, p)
    r1 = float(np.abs(r_plus @ delta - delta @ r_minus).max())
    r2 = float(np.abs(r_minus @ delta_sharp - delta_sharp @ r_plus).max())
    return r1, r2
