"""Fermionic time reversal: action on spinors and momentum-space operators,
pseudo-Hermiticity residuals, time-reversed generators, the Kramers-type
pairing of eigenspinors and the time-reversed Schroedinger check.

The operator is T = e13 * K with K complex conjugation; on a plane-wave
spinor it conjugates the amplitudes, applies the e13 matrix and flips the
momentum label.  On a momentum-space operator family H(p) the identity
T^-1 H T = H^dagger becomes the fixed-momentum matrix equation
H(-p) U = U H(p)^T with U = e13.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .momenta import MomentumHamiltonian, rashba
from .multivector import (
    E13,
    DeformedBasis,
    make_deformed_basis,
    reversion_matrix,
    time_reverse_matrix,
)
from .spectrum import EigenSystem, FiniteSpinor, eigensystem


@dataclass(frozen=True)
class TimeReversal:
    """The fermionic time reversal operator T = e13 K, with T^2 = -1."""

    @property
    def unitary_part(self) -> np.ndarray:
        return E13.copy()

    def apply(self, psi: FiniteSpinor) -> FiniteSpinor:
        a1, a2 = psi.amplitudes
        return FiniteSpinor(
            (-np.conj(a2), np.conj(a1)),
            (-psi.momentum[0], -psi.momentum[1]),
            psi.wave_sign,
        )

    def __call__(self, psi: FiniteSpinor) -> FiniteSpinor:
        return self.apply(psi)

    def on_matrix(self, m: np.ndarray) -> np.ndarray:
        """T-conjugation of a constant (momentum-independent) operator."""
        return time_reverse_matrix(m)


TIME_REVERSAL = TimeReversal()


def conjugated_hamiltonian(h, p) -> np.ndarray:
    """The matrix realizing T^-1 H T at momentum label p: U conj(H(-p)) U^-1."""
    return time_reverse_matrix(h(-np.asarray(p, dtype=float)))


def pseudo_hermitian_residual(h, p) -> float:
    """Max-entry residual of H(-p) U = U H(p)^T, the fixed-momentum form of
    T^-1 H T = H^dagger.  ``h`` is any callable p -> 2x2 matrix."""
    p = np.asarray(p, dtype=float)
    return float(np.abs(h(-p) @ E13 - E13 @ h(p).T).max())


def pseudo_adjoint(x, p) -> np.ndarray:
    """The T-pseudo-adjoint X^#(p) = U X(-p)^T U^-1 of a family of 2n x 2n
    operators, U = diag(e13, ..., e13): the T-conjugate of X(-p)^dagger."""
    p = np.asarray(p, dtype=float)
    return time_reverse_matrix(np.conj(x(-p)).T)


def generator_reversal(basis: DeformedBasis) -> dict[str, float]:
    """Residual report for the time-reversed generator identities.

    'vector_rule' covers T^-1 sigma_m^g T = -sigma_m^{-g} for m = 1, 2, 3;
    'listed_set' compares the conjugated generator set against its closed
    form built from reversion of the mirrored basis.  The sign pattern on
    the reversed vector slots is (-, -, -): all three vector generators pick
    up a minus sign under conjugation, while the even slots keep the
    reversion image with a +, and the pseudoscalar flips.
    """
    mirrored = make_deformed_basis(-basis.gamma)
    tr = TIME_REVERSAL

    vector_rule = max(
        float(np.abs(tr.on_matrix(g) + gm).max())
        for g, gm in zip(basis.generators[1:4], mirrored.generators[1:4])
    )

    rev = [reversion_matrix(g) for g in basis.generators]
    expected = (
        rev[0],                   # 1 is fixed
        -rev[1],                  # vector slots pick up a minus sign
        -rev[2],
        -rev[3],
        _expected_even(basis, 0),  # e12 slot
        _expected_even(basis, 1),  # e23 slot
        _expected_even(basis, 2),  # e31 slot
        -1j * np.eye(2, dtype=complex),
    )
    listed_set = max(
        float(np.abs(br - want).max())
        for br, want in zip(basis.reversed_generators, expected)
    )
    return {"vector_rule": vector_rule, "listed_set": listed_set}


def _expected_even(basis: DeformedBasis, which: int) -> np.ndarray:
    """Closed forms of the reversed even generators: i * reversion of the
    matching deformed vector generator (e12 -> i sigma3~, e23 -> i sigma1~,
    e31 -> i sigma2~)."""
    vec = {0: 2, 1: 0, 2: 1}[which] + 1  # e12<-sigma3, e23<-sigma1, e31<-sigma2
    return 1j * reversion_matrix(basis.generators[vec])


@dataclass(frozen=True)
class KramersResult:
    n_plus: int
    n_minus: int
    residual: float
    same_p_residual: float
    flipped_p_residual: float


def kramers_analogue(es: EigenSystem) -> KramersResult:
    """Match T psi_pm against the dual family (eigenvectors of the adjoint).

    At the amplitude level T psi_+ equals +- the dual_- finite part and
    T psi_- equals +- dual_+; the sign exponent n in the factor (-1)^n is
    measured per branch.  The full time-reversed state lives at momentum -p
    and is checked to be an eigenvector of R^+_{-gamma}(-p) with the same
    eigenvalue; amplitude-level matchings at p and at -p are both computed
    and reported.
    """
    tr = TIME_REVERSAL
    t_plus = tr.apply(es.psi_plus)
    t_minus = tr.apply(es.psi_minus)

    flipped = eigensystem(-es.gamma, es.beta,
                          (-es.momentum[0], -es.momentum[1]), es.wave_sign)

    def match(cand: np.ndarray, target: np.ndarray) -> tuple[int, float]:
        r0 = float(np.abs(cand - target).max())
        r1 = float(np.abs(cand + target).max())
        return (0, r0) if r0 <= r1 else (1, r1)

    # Matching against the duals carrying the same momentum label p:
    n_plus, rp = match(t_plus.amplitude_array(), es.dual_minus.amplitude_array())
    n_minus, rm = match(t_minus.amplitude_array(), es.dual_plus.amplitude_array())
    same_p = max(rp, rm)

    # Alternative: duals of the system at the flipped momentum label.
    _, fp = match(t_plus.amplitude_array(), flipped.dual_minus.amplitude_array())
    _, fm = match(t_minus.amplitude_array(), flipped.dual_plus.amplitude_array())
    flipped_p = max(fp, fm)

    # Orthogonality <T psi | psi> = 0 at amplitude level.
    ortho = max(
        abs(np.vdot(t_plus.amplitude_array(), es.psi_plus.amplitude_array())),
        abs(np.vdot(t_minus.amplitude_array(), es.psi_minus.amplitude_array())),
    )

    # Eigen-identity: the time-reversed state is an eigenvector of
    # R^+_{-gamma} at the flipped momentum with the unchanged eigenvalue.
    r_flip = rashba(-es.gamma, es.beta, 1).evaluate(np.array(t_plus.momentum))
    eig = max(
        float(np.abs(r_flip @ t_plus.amplitude_array()
                     - es.lambda_plus * t_plus.amplitude_array()).max()),
        float(np.abs(r_flip @ t_minus.amplitude_array()
                     - es.lambda_minus * t_minus.amplitude_array()).max()),
    )

    residual = max(min(same_p, flipped_p), ortho, eig)
    return KramersResult(
        n_plus=n_plus, n_minus=n_minus, residual=residual,
        same_p_residual=same_p, flipped_p_residual=flipped_p,
    )


def noncommutation_witness(gamma: float, beta: float, p) -> float:
    """Norm of the difference between T-conjugation of R^+_gamma and
    R^+_gamma itself at momentum p; nonzero for gamma != 0 (the reason a
    plain Kramers degeneracy argument fails) and zero at gamma = 0."""
    h = rashba(gamma, beta, 1)
    return float(np.abs(conjugated_hamiltonian(h, p) - h(np.asarray(p))).max())


def reversed_schrodinger_check(h: MomentumHamiltonian, p, dt: float = 1e-3,
                               steps: int = 5) -> float:
    """Evolve an eigenstate under H at fixed p and verify that the
    time-reversed trajectory chi(t) = T psi(-t) obeys
    i d(chi)/dt = H^dagger(-p) chi by central finite differences."""
    if dt <= 0:
        raise ValueError("time step must be positive")
    p = np.asarray(p, dtype=float)
    hp = h(p)
    vals, vecs = np.linalg.eig(hp)
    lam = vals[0]
    v = vecs[:, 0]

    def chi(t):
        # psi(-t) = exp(i lam t) v, then apply the antilinear operator.
        return E13 @ np.conj(np.exp(1j * lam * t) * v)

    h_adj = h(-p).conj().T
    worst = 0.0
    for k in range(1, steps + 1):
        t = k * 10 * dt
        deriv = (chi(t + dt) - chi(t - dt)) / (2.0 * dt)
        worst = max(worst, float(np.abs(1j * deriv - h_adj @ chi(t)).max()))
    return worst
