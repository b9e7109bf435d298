"""End-to-end acceptance checks.

Each test covers one acceptance criterion: it evaluates the criterion's
identities as named terms over its sweep, stacked where the draws allow,
and judges them with ``assert_small`` against the criterion's tolerance.
A failure names the term and its worst residual.
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
    reversed_schrodinger_residual,
)

from conftest import assert_small, random_spinor, uniform_draws

GAMMAS = np.array([0.0, 0.3, -0.3, 0.6, -0.6, 0.9, -0.9])


def _sweep(rng, n=200):
    """n points (g, beta, p) as arrays (n,), (n,) and (n, 2), p at a uniform
    angle and radius in [0.1, 10)."""
    g, beta, angle, radius = uniform_draws(rng, n, (-0.999, 0.1, 0.0, 0.1),
                                           (0.999, 5.0, 2 * np.pi, 10.0)).T
    return g, beta, radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)


def _adjoint(m):
    """Conjugate transposes of (..., 2, 2) matrices."""
    return np.swapaxes(m.conj(), -1, -2)


def _projectors(angles):
    """The spectral projectors at the angles, after asserting that their
    common denominator does not vanish."""
    assert (np.abs(sum(np.exp(1j * phi) for phi in angles)) >= 1e-9).all(), "projector singular"
    return projector_matrices(*angles)


def test_criterion_01_deformed_generators():
    omega = np.sqrt(1.0 - GAMMAS * GAMMAS)[:, None, None]
    g = GAMMAS[:, None, None]
    want = np.stack(np.broadcast_arrays((SIGMA1 - 1j * g * SIGMA3) / omega, SIGMA2,
                                        (SIGMA3 + 1j * g * SIGMA1) / omega), axis=1)
    got = deformed_generators(GAMMAS)[:, 1:4]
    products = got[:, :, None] @ got[:, None, :]
    assert_small({"reproduction": got - want,
                  "anticommutators": products + np.swapaxes(products, 1, 2)
                  - 2.0 * np.eye(3)[:, :, None, None] * np.eye(2)}, 1e-12)


def test_criterion_02_spectrum():
    g, beta, p = _sweep(np.random.default_rng(2024))
    lp, lm = eigenvalues(beta, p)
    terms = {}
    for name, gg in (("g", g), ("-g", -g), ("0", 0.0 * g)):
        op, om = eigenvalue_oracle(rashba(gg, beta, p))
        terms |= {f"lambda_plus at {name}": lp - op, f"lambda_minus at {name}": lm - om}
    assert_small(terms, 1e-10)


def test_criterion_03_biorthogonality():
    g, _, p = _sweep(np.random.default_rng(2025))
    amps = eigen_amplitudes(*phi_angles(g, p))
    pp, pm, dp, dm = np.moveaxis(ideal_matrix(amps), -3, 0)
    assert_small({"direct -+": amplitude_inner(amps[:, 3], amps[:, 0]),
                  "direct +-": amplitude_inner(amps[:, 2], amps[:, 1]),
                  "C1 -+": c1_form(dm, pp), "C1 +-": c1_form(dp, pm),
                  "C2 -+": c2_form(dm, pp), "C2 +-": c2_form(dp, pm)}, 1e-12)


def test_criterion_04_projectors():
    g, beta, p = _sweep(np.random.default_rng(2026))
    pi1, pi2 = _projectors(phi_angles(g, p))
    lam_p, lam_m = (lam[:, None, None] for lam in eigenvalues(beta, p))
    assert_small({"resolution": pi1 + pi2 - np.eye(2),
                  "orthogonality": pi1 @ pi2,
                  "idempotence 1": pi1 @ pi1 - pi1,
                  "idempotence 2": pi2 @ pi2 - pi2,
                  "spectral decomposition": np.abs(rashba(g, beta, p) - lam_p * pi1 - lam_m * pi2)
                  / np.maximum(1.0, np.abs(lam_p))}, 1e-12)


def test_criterion_05_pseudo_hermiticity():
    g, beta, p = _sweep(np.random.default_rng(2027))
    terms = {f"H^# = H at {sg}g, {sb}beta": pseudo_hermitian_residual(
        rashba(sg * g, sb * beta, -p), rashba(sg * g, sb * beta, p))
        for sg in (1, -1) for sb in (1, -1)}
    terms["H^dagger(g) = H(-g)"] = _adjoint(rashba(g, beta, p)) - rashba(-g, beta, p)
    assert_small(terms, 1e-12)


def test_criterion_06_time_reversal():
    rng = np.random.default_rng(2028)
    for _ in range(50):
        rng.uniform(-3, 3, size=2)        # the momentum draw, kept for the stream
        psi = random_spinor(rng)
        tpsi = reverse_amplitudes(psi)
        phi = random_spinor(rng)
        assert_small({"T^2 = -1": reverse_amplitudes(tpsi) + psi,
                      "<T psi|psi> = 0": np.vdot(tpsi, psi),
                      "antiunitarity": np.vdot(reverse_amplitudes(phi), tpsi) - np.vdot(psi, phi)},
                     1e-10)
    g, beta, p = _sweep(rng, 100)
    assert_small({"generators": time_reverse_matrix(deformed_generators(GAMMAS)[:, 1:4])
                  + deformed_generators(-GAMMAS)[:, 1:4],
                  **kramers_pairing(g, p),
                  "reversed Schrodinger": reversed_schrodinger_residual(g, beta, p)}, 1e-10)


def test_criterion_07_flip_relations():
    g, _, p = _sweep(np.random.default_rng(2029))
    # the diagonal momenta r (1, +-1) / sqrt 2 at r = 0.5, 1, 3
    r = np.array([0.5, 1.0, 3.0])[:, None, None]
    angles = np.array(phi_angles(0.45, r * np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)))
    assert_small({**flip_relations(g, p),
                  "diagonal independence": angles[:, 1:] - angles[:, :1]}, 1e-10)


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
    terms = {}
    for g in (0.0, 0.5):
        l, l_prime, n, n_prime, m, m_prime = _linearization(g)
        products = m_prime[:, None] @ m[None, :]
        terms |= {f"L'L at {g}": l_prime @ l,
                  f"N'N at {g}": n_prime @ n,
                  f"L'N + N'L at {g}": l_prime @ n + n_prime @ l - 2.0 * np.eye(4),
                  f"L'M + M'L at {g}": l_prime @ m[:3] + m_prime[:3] @ l,
                  f"N'M + M'N at {g}": n_prime @ m[:3] + m_prime[:3] @ n,
                  f"M'M + M'M at {g}": products + np.swapaxes(products, 0, 1)
                  + 2.0 * np.eye(5)[:, :, None, None] * np.eye(4)}
    assert_small(terms, 1e-12)


def test_criterion_09_susy():
    # H = {Theta+, Theta-} = diag((1/2) P^B P^A, (1/2) P^A P^B) for any
    # blocks (tests/test_symbolic.py), so the sweep checks the blocks
    g, beta, p = _sweep(np.random.default_rng(2030), 50)
    p_b, p_a = clifford_momentum(g, rashba_shifts(beta), p)
    r_plus, r_minus = rashba(g, beta, p), rashba(g, -beta, p)
    # residuals measured relative to the operator scale, which grows
    # like |p|^2 over the sweep
    scale = np.maximum(1.0, np.maximum(np.abs(r_plus).max(axis=(-2, -1)),
                                       np.abs(r_minus).max(axis=(-2, -1))))[:, None, None]
    # Lambda- = (Lambda+)^# with Lambda+ = Theta+: its block is the
    # Clifford conjugate of P^B at -p, and {Lambda+, Lambda-} = H
    p_b_sharp = clifford_conjugation_matrix(clifford_momentum(g, rashba_shifts(beta)[0], -p))
    relative = {
        "P^B P^A / 2 = R+": 0.5 * matmul2(p_b, p_a) - r_plus,
        "P^A P^B / 2 = R-": 0.5 * matmul2(p_a, p_b) - r_minus,
        "P^B (P^B)^# / 2 = R+": 0.5 * matmul2(p_b, p_b_sharp) - r_plus,
        "(P^B)^# P^B / 2 = R-": 0.5 * matmul2(p_b_sharp, p_b) - r_minus,
        # the intertwinings R^+ P^B = P^B R^- and R^- (P^B)^# = (P^B)^# R^+
        "R+ P^B = P^B R-": matmul2(r_plus, p_b) - matmul2(p_b, r_minus),
        "R- (P^B)^# = (P^B)^# R+": matmul2(r_minus, p_b_sharp) - matmul2(p_b_sharp, r_plus),
    }
    assert_small({**{name: np.abs(x) / scale for name, x in relative.items()},
                  # (P^B(-p))^# = P^A(p): Lambda- = (Lambda+)^# is Theta-
                  "(P^B(-p))^# = P^A(p)": p_b_sharp - p_a}, 1e-12)


def test_criterion_10_ideal_layer():
    rng = np.random.default_rng(2031)
    g_want = np.array([[[1, 0], [0, 0]], [[0, 0], [1j, 0]],
                       [[0, 0], [-1, 0]], [[1j, 0], [0, 0]]])
    g = rng.uniform(-0.99, 0.99, size=20)
    # per sample, u's real and imaginary parts, then the spinor's
    z = rng.normal(size=(200, 12))
    u = (z[:, 0:4] + 1j * z[:, 4:8]).reshape(200, 2, 2)
    s = ideal_matrix(z[:, 8:10] + 1j * z[:, 10:12])
    assert_small({"basis": build_ideal_basis(g) - g_want,
                  "left ideal": (u @ s)[..., 1],
                  "double flip": basis_flip(basis_flip(u)) + u}, 1e-12)
    for _ in range(100):
        rng.uniform(-3, 3, size=2)        # the momentum draw, kept for the stream
        a, b = random_spinor(rng), random_spinor(rng)
        assert_small({"C1 = <a|b>": c1_form(ideal_matrix(a), ideal_matrix(b))
                      - amplitude_inner(a, b),
                      "flip = T": basis_flip(ideal_matrix(a))[:, 0] - reverse_amplitudes(a)},
                     1e-12)


def test_criterion_11_continuity():
    g, beta = 0.4, 1.0
    p = np.array([[1.1, 0.8], [0.6, -0.8]])
    amps = eigen_amplitudes(*phi_angles(g, p))[:, 0]
    assert_small(continuity_residual(g, beta, amps, p, eigenvalues(beta, p)[0]), 1e-12)


def test_criterion_12_gamma_zero_degeneration():
    _, beta, p = _sweep(np.random.default_rng(2032), 50)
    h = rashba(0.0, beta, p)
    angles = phi_angles(0.0, p)
    amps = eigen_amplitudes(*angles)
    pi1, pi2 = _projectors(angles)
    assert_small({"H Hermitian": h - _adjoint(h),
                  "eigenvectors orthogonal": amplitude_inner(amps[:, 0], amps[:, 1]),
                  "projector 1 Hermitian": pi1 - _adjoint(pi1),
                  "projector 2 Hermitian": pi2 - _adjoint(pi2),
                  "E13 intertwines H(-p) and H^T": rashba(0.0, beta, -p) @ E13
                  - E13 @ np.swapaxes(h, -1, -2)}, 1e-12)
