"""Supercharges and the pseudo-SUSY charge, all as plain (..., 4, 4) arrays
over the two Rashba sectors R^+ (beta) and R^- (-beta): the SUSY
Hamiltonian {Theta+, Theta-} holds them as h[..., :2, :2] and
h[..., 2:, 2:].  Pseudo-SUSY keeps Lambda+ = Theta+ and adds Lambda-, the
T-pseudo-adjoint of Lambda+, with time reversal acting blockwise as
diag(e13, e13) (:func:`~bispinor.timereversal.pseudo_adjoint`).
"""

from __future__ import annotations

import numpy as np

from .momenta import clifford_momentum, rashba_shifts, rashba_signs
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


def _batch_ndim(gamma, beta, p) -> int:
    return np.broadcast(gamma, beta, np.asarray(p)[..., 0]).ndim


def supercharges(gamma, beta, p) -> tuple[np.ndarray, np.ndarray]:
    """Theta^+ = (1/sqrt 2) offdiag-upper(P^B), Theta^- = lower(P^A), of shape
    (..., 4, 4) for gamma, beta (...) and momenta (..., 2)."""
    shifts = stack_variants(rashba_shifts(beta, 1), _batch_ndim(gamma, beta, p), core=1)
    p_b, p_a = clifford_momentum(gamma, shifts, p) / _SQRT2
    return _offdiag(upper=p_b), _offdiag(lower=p_a)


def anticommutator(a, b) -> np.ndarray:
    """{a, b} = a b + b a of (..., 4, 4) operators."""
    return a @ b + b @ a


def pseudo_susy(gamma, beta, p) -> np.ndarray:
    """The pseudo-SUSY charge Lambda- = (Lambda+)^# (..., 4, 4): the
    pseudo-adjoint of Lambda+ = Theta+ taken at -p.  It carries
    (Delta^B)^# = P^A in the lower off-diagonal block, so it is Theta- and
    {Lambda+, Lambda-} is the SUSY Hamiltonian."""
    return pseudo_adjoint(supercharges(gamma, beta, -np.asarray(p, dtype=float))[0])


def intertwining_residuals(gamma, beta, p):
    """Residuals of R^+ P^B = P^B R^- and R^- (P^B)^# = (P^B)^# R^+ at p,
    per momentum of p (..., 2)."""
    p = np.asarray(p, dtype=float)
    r_plus, r_minus = rashba_signs(gamma, beta, p)
    shift_b, _ = rashba_shifts(beta, 1)
    # Delta^B = P^B at p and at -p from one call
    mirrored = stack_variants((p, -p), _batch_ndim(gamma, beta, p), core=1)
    delta, delta_minus_p = clifford_momentum(gamma, shift_b, mirrored)
    delta_sharp = pseudo_adjoint(delta_minus_p)
    r1 = np.abs(matmul2(r_plus, delta) - matmul2(delta, r_minus)).max(axis=(-1, -2))[()]
    r2 = np.abs(matmul2(r_minus, delta_sharp)
                - matmul2(delta_sharp, r_plus)).max(axis=(-1, -2))[()]
    return r1, r2
