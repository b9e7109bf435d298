"""The SUSY and pseudo-SUSY identities on the 2x2 Clifford momenta.

With Theta+ = [[0, P^B], [0, 0]] / sqrt 2 and Theta- = [[0, 0], [P^A, 0]] / sqrt 2,
H = {Theta+, Theta-} = diag((1/2) P^B P^A, (1/2) P^A P^B) for any blocks
(tests/test_symbolic.py proves the 4x4 statement), so each test below is a
statement about the two blocks: they are R^+ and R^-, and P^A, P^B carry
eigenvectors from one sector to the other.
"""

import numpy as np

from bispinor.momenta import clifford_momentum, rashba, rashba_shifts
from bispinor.multivector import clifford_conjugation_matrix, matmul2
from bispinor.spectrum import eigenvalues

TOL = 1e-12


def momenta_pair(g, beta, p):
    """P^B and P^A, the Clifford momenta Theta+ and Theta- carry."""
    return clifford_momentum(g, rashba_shifts(beta), p)


def susy_blocks(g, beta, p):
    """The diagonal blocks (1/2) P^B P^A and (1/2) P^A P^B of H = {Theta+, Theta-}."""
    p_b, p_a = momenta_pair(g, beta, p)
    return 0.5 * matmul2(p_b, p_a), 0.5 * matmul2(p_a, p_b)


def lambda_minus_block(g, beta, p):
    """The block of Lambda- = (Lambda+)^#: the Clifford conjugate of P^B at -p."""
    return clifford_conjugation_matrix(clifford_momentum(g, rashba_shifts(beta)[0], -p))


def intertwining(g, beta, p):
    """Residuals of R^+ P^B = P^B R^- and R^- (P^B)^# = (P^B)^# R^+, with
    (P^B)^#(p) the Clifford conjugate of P^B(-p)."""
    r_plus, r_minus = rashba(g, beta, p), rashba(g, -beta, p)
    p_b, p_b_minus_p = clifford_momentum(g, rashba_shifts(beta)[0], np.array([p, -p]))
    p_b_sharp = clifford_conjugation_matrix(p_b_minus_p)
    return (np.abs(matmul2(r_plus, p_b) - matmul2(p_b, r_minus)).max(),
            np.abs(matmul2(r_minus, p_b_sharp) - matmul2(p_b_sharp, r_plus)).max())


def _cases(rng, n):
    for _ in range(n):
        yield (float(rng.uniform(-0.95, 0.95)),
               float(rng.uniform(0.1, 3.0)),
               rng.uniform(-3, 3, size=2))


class TestAlgebra:
    def test_anticommutator_is_sector_diagonal(self):
        # the diagonal blocks of {Theta+, Theta-} are R^+ and R^-
        rng = np.random.default_rng(167)
        for g, beta, p in _cases(rng, 30):
            upper, lower = susy_blocks(g, beta, p)
            assert np.abs(upper - rashba(g, beta, p)).max() < 1e-11
            assert np.abs(lower - rashba(g, -beta, p)).max() < 1e-11


class TestSpectrum:
    def test_four_eigenvalues_are_two_rashba_doublets(self):
        rng = np.random.default_rng(179)
        for g, beta, p in _cases(rng, 30):
            got = np.sort(np.linalg.eigvals(np.array(susy_blocks(g, beta, p))).real.ravel())
            lp, lm = eigenvalues(beta, p)
            lp2, lm2 = eigenvalues(-beta, p)
            want = np.sort([lp, lm, lp2, lm2])
            assert np.abs(got - want).max() < 1e-10

    def test_gamma_zero_is_hermitian(self):
        for h in susy_blocks(0.0, 1.0, np.array([0.7, 0.2])):
            assert np.abs(h - h.conj().T).max() < TOL


class TestPseudoSusy:
    def test_reproduces_susy_hamiltonian(self):
        # {Lambda+, Lambda-} with Lambda+ = Theta+ has the blocks
        # (1/2) P^B (P^B)^# and (1/2) (P^B)^# P^B
        rng = np.random.default_rng(181)
        for g, beta, p in _cases(rng, 30):
            p_b = momenta_pair(g, beta, p)[0]
            lam = lambda_minus_block(g, beta, p)
            assert np.abs(0.5 * matmul2(p_b, lam) - rashba(g, beta, p)).max() < 1e-11
            assert np.abs(0.5 * matmul2(lam, p_b) - rashba(g, -beta, p)).max() < 1e-11

    def test_lambda_minus_is_pseudo_adjoint_of_lambda_plus(self):
        g, beta = 0.6, 1.3
        p = np.array([1.2, -0.4])

        # (P^B(-p))^# = P^A(p): Lambda- is Theta-, bit for bit
        assert np.array_equal(lambda_minus_block(g, beta, p), momenta_pair(g, beta, p)[1])

    def test_intertwining(self):
        rng = np.random.default_rng(191)
        for g, beta, p in _cases(rng, 30):
            r1, r2 = intertwining(g, beta, p)
            assert r1 < 1e-10
            assert r2 < 1e-10

    def test_hamiltonian_block_pseudo_hermitian(self):
        # H(p) = H^#(p) block by block: each block is the Clifford
        # conjugate of itself at -p
        g, beta = 0.5, 0.9

        p = np.array([1.0, 1.5])
        for h_p, h_minus_p in zip(susy_blocks(g, beta, p), susy_blocks(g, beta, -p)):
            assert np.abs(clifford_conjugation_matrix(h_minus_p) - h_p).max() < 1e-11


class TestSectorPairing:
    def test_theta_minus_maps_plus_sector_to_minus_sector(self):
        # Theta- takes (psi, 0) to (0, P^A psi / sqrt 2)
        g, beta = 0.4, 1.2
        p = np.array([1.1, -0.7])
        upper, lower = susy_blocks(g, beta, p)
        p_a = momenta_pair(g, beta, p)[1]
        vals, vecs = np.linalg.eig(upper)
        for k in range(2):
            mapped = p_a @ vecs[:, k] / np.sqrt(2.0)
            if np.linalg.norm(mapped) < 1e-9:
                continue
            resid = lower @ mapped - vals[k] * mapped
            assert np.abs(resid).max() < 1e-9

    def test_theta_plus_maps_minus_sector_to_plus_sector(self):
        # Theta+ takes (0, psi) to (P^B psi / sqrt 2, 0)
        g, beta = -0.3, 0.8
        p = np.array([0.6, 1.4])
        upper, lower = susy_blocks(g, beta, p)
        p_b = momenta_pair(g, beta, p)[0]
        vals, vecs = np.linalg.eig(lower)
        for k in range(2):
            mapped = p_b @ vecs[:, k] / np.sqrt(2.0)
            if np.linalg.norm(mapped) < 1e-9:
                continue
            resid = upper @ mapped - vals[k] * mapped
            assert np.abs(resid).max() < 1e-9
