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
from bispinor.momenta import build_linearization, rashba
from bispinor.multivector import (
    E13,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    deformed_generators,
    time_reverse_matrix,
)
from bispinor.spectrum import (
    amplitude_inner,
    continuity_residual,
    eigensystem,
    eigenvalue_oracle,
    eigenvalues,
    flip_relations,
    phi_angles,
    projector_matrices,
)
from bispinor.susy import (
    intertwining_residuals,
    pseudo_susy,
    supercharges,
    susy_hamiltonian,
    witten_parity,
)
from bispinor.timereversal import (
    kramers_pairing,
    pseudo_adjoint,
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
        amps = eigensystem(g, beta, p).amplitudes
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
        es = eigensystem(g, beta, p)
        pi1, pi2, den = projector_matrices(es.phi_plus, es.phi_minus)
        assert abs(den) >= 1e-9, "projector singular"
        h = rashba(g, beta, p)
        worst = max(
            worst,
            float(np.abs(pi1 + pi2 - np.eye(2)).max()),
            float(np.abs(pi1 @ pi2).max()),
            float(np.abs(pi1 @ pi1 - pi1).max()),
            float(np.abs(pi2 @ pi2 - pi2).max()),
            float(np.abs(h - es.lambda_plus * pi1
                         - es.lambda_minus * pi2).max())
            / max(1.0, abs(es.lambda_plus)),
        )
    _report("spectral projectors", worst, 1e-12)


def test_criterion_05_pseudo_hermiticity():
    rng = np.random.default_rng(2027)
    worst = 0.0
    for g, beta, p in _sweep(rng):
        for gg in (g, -g):
            for sign in (1, -1):
                h_minus_p, h_p = (rashba(gg, beta, q, sign=sign) for q in (-p, p))
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
        worst = max(worst, kramers_pairing(g, beta, p).residual)
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


def test_criterion_08_linearization():
    worst = 0.0
    for g in (0.0, 0.5):
        lin = build_linearization(g)
        worst = max(worst,
                    float(np.abs(lin.l_prime @ lin.l).max()),
                    float(np.abs(lin.n_prime @ lin.n).max()),
                    float(np.abs(lin.l_prime @ lin.n + lin.n_prime @ lin.l
                                 - 2.0 * np.eye(4)).max()))
        for i in range(3):
            worst = max(
                worst,
                float(np.abs(lin.l_prime @ lin.m[i]
                             + lin.m_prime[i] @ lin.l).max()),
                float(np.abs(lin.n_prime @ lin.m[i]
                             + lin.m_prime[i] @ lin.n).max()))
        for i in range(5):
            for j in range(5):
                anti = lin.m_prime[i] @ lin.m[j] + lin.m_prime[j] @ lin.m[i]
                anti += 2.0 * (i == j) * np.eye(4)
                worst = max(worst, float(np.abs(anti).max()))
    _report("first-order linearization relations", worst, 1e-12)


def test_criterion_09_susy():
    rng = np.random.default_rng(2030)
    worst = 0.0
    for g, beta, p in _sweep(rng, 50):
        tp, tm = supercharges(g, beta, p)
        h = susy_hamiltonian(g, beta, p)
        w = witten_parity()
        # residuals measured relative to the operator scale, which grows
        # like |p|^2 over the sweep
        scale = max(1.0, float(np.abs(h).max()))
        worst = max(
            worst,
            float(np.abs(tp @ tp).max()) / scale,
            float(np.abs(tm @ tm).max()) / scale,
            float(np.abs(h[:2, :2] - rashba(g, beta, p)).max()) / scale,
            float(np.abs(h[2:, 2:] - rashba(g, beta, p, sign=-1)).max()) / scale,
            float(np.abs(h @ tp - tp @ h).max()) / scale,
            float(np.abs(h @ tm - tm @ h).max()) / scale,
            float(np.abs(w @ tp + tp @ w).max()) / scale,
            float(np.abs(w @ h - h @ w).max()) / scale,
        )
        lam_plus, lam_minus, h_psusy = pseudo_susy(g, beta, p)
        worst = max(worst, float(np.abs(h_psusy - h).max()) / scale)
        worst = max(worst, *(r / scale for r in intertwining_residuals(g, beta, p)))
        sharp = pseudo_adjoint(pseudo_susy(g, beta, -p)[0])
        worst = max(worst, float(np.abs(sharp - lam_minus).max()))
    _report("SUSY and pseudo-SUSY structure", worst, 1e-12)


def test_criterion_10_ideal_layer():
    rng = np.random.default_rng(2031)
    worst = 0.0
    g_want = (np.array([[1, 0], [0, 0]]), np.array([[0, 0], [1j, 0]]),
              np.array([[0, 0], [-1, 0]]), np.array([[1j, 0], [0, 0]]))
    for g in rng.uniform(-0.99, 0.99, size=20):
        ib = build_ideal_basis(float(g))
        for got, want in zip((ib.g0, ib.g1, ib.g2, ib.g3), g_want):
            worst = max(worst, float(np.abs(got - want).max()))
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
    p = np.array([1.1, 0.8])
    q = np.array([0.6, -0.8])
    es_p = eigensystem(g, beta, p)
    es_q = eigensystem(g, beta, q)
    mix = ((0.8, es_p.amplitudes[0], p, es_p.lambda_plus),
           (0.6, es_q.amplitudes[0], q, es_q.lambda_plus))
    grid = [(0.1 * i, 0.07 * j) for i in range(-2, 3) for j in range(-2, 3)]
    _report("probability continuity", continuity_residual(g, beta, mix, grid), 1e-12)


def test_criterion_12_gamma_zero_degeneration():
    rng = np.random.default_rng(2032)
    worst = 0.0
    for _, beta, p in _sweep(rng, 50):
        h = rashba(0.0, beta, p)
        worst = max(worst, float(np.abs(h - h.conj().T).max()))
        es = eigensystem(0.0, beta, p)
        worst = max(worst, abs(np.vdot(es.amplitudes[0], es.amplitudes[1])))
        pi1, pi2, den = projector_matrices(es.phi_plus, es.phi_minus)
        assert abs(den) >= 1e-9, "projector singular"
        worst = max(worst,
                    float(np.abs(pi1 - pi1.conj().T).max()),
                    float(np.abs(pi2 - pi2.conj().T).max()))
        u = E13
        worst = max(worst,
                    float(np.abs(rashba(0.0, beta, -p) @ u
                                 - u @ h.T).max()))
    _report("Hermitian degeneration at gamma = 0", worst, 1e-12)
