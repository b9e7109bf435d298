"""End-to-end acceptance checks.

Each test covers one acceptance criterion, computes a worst-case residual
over its sweep, and prints a single PASS/FAIL line with the residual and
the tolerance before asserting.
"""

import numpy as np

from bispinor.ideal import (
    basis_flip,
    build_ideal_basis,
    c1_form,
    c2_form,
    ideal_matrix,
)
from bispinor.momenta import (
    ELL,
    NU,
    clifford_momentum,
    rashba,
    rashba_shifts,
)
from bispinor.multivector import (
    E13,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    amplitude_inner,
    clifford_conjugation_matrix,
    deformed_generators,
    matmul2,
    time_reverse_matrix,
)
from bispinor.spectrum import (
    continuity_residual,
    eigen_amplitudes,
    eigenvalue_oracle,
    eigenvalues,
    flip_relations,
    phi_angles,
    projector_matrices,
)
from bispinor.timereversal import (
    kramers_pairing,
    pseudo_hermitian_residual,
    reverse_amplitudes,
)

GAMMAS = (0.0, 0.3, -0.3, 0.6, -0.6, 0.9, -0.9)


def _sweep(rng, n=200):
    for _ in range(n):
        g = float(rng.uniform(-0.999, 0.999))
        beta = float(rng.uniform(0.1, 5.0))
        angle = float(rng.uniform(0, 2 * np.pi))
        radius = float(rng.uniform(0.1, 10.0))
        p = radius * np.array([np.cos(angle), np.sin(angle)])
        yield g, beta, p


def _report(name: str, residual: float, tol: float) -> None:
    verdict = "PASS" if residual <= tol else "FAIL"
    print(f"{verdict} {name}: max residual {residual:.3e} (tol {tol:.0e})")
    assert residual <= tol, f"{name}: {residual} > {tol}"


def test_criterion_01_deformed_generators():
    worst = 0.0
    for g in GAMMAS:
        omega = np.sqrt(1.0 - g * g)
        want = ((SIGMA1 - 1j * g * SIGMA3) / omega,
                SIGMA2,
                (SIGMA3 + 1j * g * SIGMA1) / omega)
        got = deformed_generators(g)[1:4]
        for a, b in zip(got, want):
            worst = max(worst, float(np.abs(a - b).max()))
        for i in range(3):
            for j in range(3):
                anti = got[i] @ got[j] + got[j] @ got[i]
                anti -= 2.0 * (i == j) * np.eye(2)
                worst = max(worst, float(np.abs(anti).max()))
    _report("deformed-generator reproduction", worst, 1e-12)


def test_criterion_02_spectrum():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for g, beta, p in _sweep(rng):
        lp, lm = eigenvalues(beta, p)
        for gg in (g, -g, 0.0):
            op, om = eigenvalue_oracle(rashba(gg, beta, p))
            worst = max(worst, abs(lp - op), abs(lm - om))
    _report("closed-form spectrum vs oracle", worst, 1e-10)


def test_criterion_03_biorthogonality():
    rng = np.random.default_rng(2025)
    worst = 0.0
    for g, beta, p in _sweep(rng):
        amps = eigen_amplitudes(*phi_angles(g, p))
        worst = max(worst,
                    abs(amplitude_inner(amps[3], amps[0])),
                    abs(amplitude_inner(amps[2], amps[1])))
        pp, pm, dp, dm = ideal_matrix(amps)
        worst = max(worst, abs(c1_form(dm, pp)), abs(c1_form(dp, pm)),
                    abs(c2_form(dm, pp)), abs(c2_form(dp, pm)))
    _report("bi-orthogonality (direct, C1, C2)", worst, 1e-12)


def test_criterion_04_projectors():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for g, beta, p in _sweep(rng):
        pi1, pi2, den = projector_matrices(*phi_angles(g, p))
        assert abs(den) >= 1e-9, "projector singular"
        h = rashba(g, beta, p)
        lam_p, lam_m = eigenvalues(beta, p)
        worst = max(
            worst,
            float(np.abs(pi1 + pi2 - np.eye(2)).max()),
            float(np.abs(pi1 @ pi2).max()),
            float(np.abs(pi1 @ pi1 - pi1).max()),
            float(np.abs(pi2 @ pi2 - pi2).max()),
            float(np.abs(h - lam_p * pi1 - lam_m * pi2).max())
            / max(1.0, abs(lam_p)),
        )
    _report("spectral projectors", worst, 1e-12)


def test_criterion_05_pseudo_hermiticity():
    rng = np.random.default_rng(2027)
    worst = 0.0
    for g, beta, p in _sweep(rng):
        for gg in (g, -g):
            for b in (beta, -beta):
                h_minus_p, h_p = (rashba(gg, b, q) for q in (-p, p))
                worst = max(worst, pseudo_hermitian_residual(h_minus_p, h_p))
        adj = rashba(g, beta, p).conj().T
        worst = max(worst, float(np.abs(adj - rashba(-g, beta, p)).max()))
    _report("pseudo-Hermiticity", worst, 1e-12)


def test_criterion_06_time_reversal():
    rng = np.random.default_rng(2028)
    worst = 0.0
    for _ in range(50):
        rng.uniform(-3, 3, size=2)        # the momentum draw, kept for the stream
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        tpsi = reverse_amplitudes(psi)
        worst = max(worst,
                    float(np.abs(reverse_amplitudes(tpsi) + psi).max()),
                    abs(np.vdot(tpsi, psi)))
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        lhs = np.vdot(reverse_amplitudes(phi), tpsi)
        worst = max(worst, abs(lhs - np.vdot(psi, phi)))
    for g in GAMMAS:
        generators, mirror = deformed_generators(g), deformed_generators(-g)
        for m in (1, 2, 3):
            conj = time_reverse_matrix(generators[m])
            worst = max(worst,
                        float(np.abs(conj + mirror[m]).max()))
    for g, beta, p in _sweep(rng, 100):
        worst = max(worst, *kramers_pairing(g, beta, p).values())
    _report("time reversal and Kramers analogue", worst, 1e-10)


def test_criterion_07_flip_relations():
    rng = np.random.default_rng(2029)
    worst = 0.0
    for g, _, p in _sweep(rng):
        worst = max(worst, max(flip_relations(g, p).values()))
    for sign in (1.0, -1.0):
        angles = [phi_angles(0.45, r * np.array([1.0, sign]) / np.sqrt(2))
                  for r in (0.5, 1.0, 3.0)]
        for other in angles[1:]:
            worst = max(worst,
                        float(np.abs(np.array(other) - np.array(angles[0])).max()))
    _report("angle flip relations", worst, 1e-10)


def _linearization(g):
    """The 4x4 matrices (L, L', N, N', M, M') from their 2x2 factors at g:
    L = L' = ELL (x) 1, N = N' = NU (x) 1, M_j = -M_j' = 1 (x) e_j,
    M4 = M4' = i(ELL + NU/2) (x) 1 and M5 = M5' = (ELL - NU/2) (x) 1."""
    i2 = np.eye(2)
    l, n = np.kron(ELL, i2), np.kron(NU, i2)
    m = np.array([np.kron(i2, e) for e in deformed_generators(g)[1:4]]
                 + [1j * (l + n / 2.0), l - n / 2.0])
    return l, l, n, n, m, np.array([-1.0, -1.0, -1.0, 1.0, 1.0])[:, None, None] * m


def test_criterion_08_linearization():
    worst = 0.0
    for g in (0.0, 0.5):
        l, l_prime, n, n_prime, m, m_prime = _linearization(g)
        worst = max(worst,
                    float(np.abs(l_prime @ l).max()),
                    float(np.abs(n_prime @ n).max()),
                    float(np.abs(l_prime @ n + n_prime @ l - 2.0 * np.eye(4)).max()))
        for i in range(3):
            worst = max(worst,
                        float(np.abs(l_prime @ m[i] + m_prime[i] @ l).max()),
                        float(np.abs(n_prime @ m[i] + m_prime[i] @ n).max()))
        for i in range(5):
            for j in range(5):
                anti = m_prime[i] @ m[j] + m_prime[j] @ m[i]
                anti += 2.0 * (i == j) * np.eye(4)
                worst = max(worst, float(np.abs(anti).max()))
    _report("first-order linearization relations", worst, 1e-12)


def test_criterion_09_susy():
    # H = {Theta+, Theta-} = diag((1/2) P^B P^A, (1/2) P^A P^B) for any
    # blocks (tests/test_symbolic.py), so the sweep checks the blocks
    rng = np.random.default_rng(2030)
    worst = 0.0
    for g, beta, p in _sweep(rng, 50):
        p_b, p_a = clifford_momentum(g, rashba_shifts(beta), p)
        r_plus, r_minus = rashba(g, beta, p), rashba(g, -beta, p)
        # residuals measured relative to the operator scale, which grows
        # like |p|^2 over the sweep
        scale = max(1.0, float(np.abs(r_plus).max()), float(np.abs(r_minus).max()))
        worst = max(
            worst,
            float(np.abs(0.5 * matmul2(p_b, p_a) - r_plus).max()) / scale,
            float(np.abs(0.5 * matmul2(p_a, p_b) - r_minus).max()) / scale,
        )
        # Lambda- = (Lambda+)^# with Lambda+ = Theta+: its block is the
        # Clifford conjugate of P^B at -p, and {Lambda+, Lambda-} = H
        p_b_sharp = clifford_conjugation_matrix(clifford_momentum(g, rashba_shifts(beta)[0], -p))
        worst = max(worst,
                    float(np.abs(0.5 * matmul2(p_b, p_b_sharp) - r_plus).max()) / scale,
                    float(np.abs(0.5 * matmul2(p_b_sharp, p_b) - r_minus).max()) / scale)
        # the intertwinings R^+ P^B = P^B R^- and R^- (P^B)^# = (P^B)^# R^+
        worst = max(worst,
                    float(np.abs(matmul2(r_plus, p_b) - matmul2(p_b, r_minus)).max()) / scale,
                    float(np.abs(matmul2(r_minus, p_b_sharp)
                                 - matmul2(p_b_sharp, r_plus)).max()) / scale)
        # (P^B(-p))^# = P^A(p): Lambda- = (Lambda+)^# is Theta-
        worst = max(worst, float(np.abs(p_b_sharp - p_a).max()))
    _report("SUSY and pseudo-SUSY structure", worst, 1e-12)


def test_criterion_10_ideal_layer():
    rng = np.random.default_rng(2031)
    worst = 0.0
    g_want = np.array([[[1, 0], [0, 0]], [[0, 0], [1j, 0]],
                       [[0, 0], [-1, 0]], [[1j, 0], [0, 0]]])
    for g in rng.uniform(-0.99, 0.99, size=20):
        worst = max(worst, float(np.abs(build_ideal_basis(float(g)) - g_want).max()))
    for _ in range(200):
        u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s = ideal_matrix(rng.normal(size=2) + 1j * rng.normal(size=2))
        worst = max(worst, float(np.abs((u @ s)[:, 1]).max()))
        worst = max(worst, float(np.abs(basis_flip(basis_flip(u)) + u).max()))
    for _ in range(100):
        rng.uniform(-3, 3, size=2)        # the momentum draw, kept for the stream
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        worst = max(worst, abs(c1_form(ideal_matrix(a), ideal_matrix(b))
                               - amplitude_inner(a, b)))
        via_flip = basis_flip(ideal_matrix(a))[:, 0]
        worst = max(worst, float(np.abs(via_flip - reverse_amplitudes(a)).max()))
    _report("minimal-left-ideal spinor layer", worst, 1e-12)


def test_criterion_11_continuity():
    g, beta = 0.4, 1.0
    p = np.array([[1.1, 0.8], [0.6, -0.8]])
    amps = eigen_amplitudes(*phi_angles(g, p))[:, 0]
    residual = continuity_residual(g, beta, amps, p, eigenvalues(beta, p)[0])
    _report("probability continuity", residual, 1e-12)


def test_criterion_12_gamma_zero_degeneration():
    rng = np.random.default_rng(2032)
    worst = 0.0
    for _, beta, p in _sweep(rng, 50):
        h = rashba(0.0, beta, p)
        worst = max(worst, float(np.abs(h - h.conj().T).max()))
        angles = phi_angles(0.0, p)
        amps = eigen_amplitudes(*angles)
        worst = max(worst, abs(np.vdot(amps[0], amps[1])))
        pi1, pi2, den = projector_matrices(*angles)
        assert abs(den) >= 1e-9, "projector singular"
        worst = max(worst,
                    float(np.abs(pi1 - pi1.conj().T).max()),
                    float(np.abs(pi2 - pi2.conj().T).max()))
        u = E13
        worst = max(worst,
                    float(np.abs(rashba(0.0, beta, -p) @ u
                                 - u @ h.T).max()))
    _report("Hermitian degeneration at gamma = 0", worst, 1e-12)
