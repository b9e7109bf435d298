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

from conftest import TOL, assert_small, uniform_draws


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
    """Differences of R^+ P^B = P^B R^- and R^- (P^B)^# = (P^B)^# R^+, with
    (P^B)^#(p) the Clifford conjugate of P^B(-p)."""
    r_plus, r_minus = rashba(g, beta, p), rashba(g, -beta, p)
    p_b, p_b_minus_p = clifford_momentum(g, rashba_shifts(beta)[0], np.array([p, -p]))
    p_b_sharp = clifford_conjugation_matrix(p_b_minus_p)
    return {"r_plus_p_b": matmul2(r_plus, p_b) - matmul2(p_b, r_minus),
            "r_minus_p_b_sharp": matmul2(r_minus, p_b_sharp) - matmul2(p_b_sharp, r_plus)}


def _cases(rng, n):
    """n cases (g, beta, p) as arrays (n,), (n,) and (n, 2)."""
    g, beta, *p = uniform_draws(rng, n, (-0.95, 0.1, -3.0, -3.0), (0.95, 3.0, 3.0, 3.0)).T
    return g, beta, np.stack(p, axis=-1)


class TestAlgebra:
    def test_anticommutator_is_sector_diagonal(self):
        # the diagonal blocks of {Theta+, Theta-} are R^+ and R^-
        g, beta, p = _cases(np.random.default_rng(167), 30)
        upper, lower = susy_blocks(g, beta, p)
        assert_small({"upper": upper - rashba(g, beta, p), "lower": lower - rashba(g, -beta, p)}, 1e-11)


class TestSpectrum:
    def test_four_eigenvalues_are_two_rashba_doublets(self):
        g, beta, p = _cases(np.random.default_rng(179), 30)
        vals = np.linalg.eigvals(np.array(susy_blocks(g, beta, p))).real      # (block, case, 2)
        got = np.sort(np.concatenate([vals[0], vals[1]], axis=-1), axis=-1)
        want = np.sort(np.stack([*eigenvalues(beta, p), *eigenvalues(-beta, p)], axis=-1), axis=-1)
        assert_small(got - want, 1e-10)

    def test_gamma_zero_is_hermitian(self):
        for h in susy_blocks(0.0, 1.0, np.array([0.7, 0.2])):
            assert_small(h - h.conj().T, TOL)


class TestPseudoSusy:
    def test_reproduces_susy_hamiltonian(self):
        # {Lambda+, Lambda-} with Lambda+ = Theta+ has the blocks
        # (1/2) P^B (P^B)^# and (1/2) (P^B)^# P^B
        g, beta, p = _cases(np.random.default_rng(181), 30)
        p_b, lam = momenta_pair(g, beta, p)[0], lambda_minus_block(g, beta, p)
        assert_small({"upper": 0.5 * matmul2(p_b, lam) - rashba(g, beta, p),
                      "lower": 0.5 * matmul2(lam, p_b) - rashba(g, -beta, p)}, 1e-11)

    def test_lambda_minus_is_pseudo_adjoint_of_lambda_plus(self):
        g, beta = 0.6, 1.3
        p = np.array([1.2, -0.4])

        # (P^B(-p))^# = P^A(p): Lambda- is Theta-, bit for bit
        assert np.array_equal(lambda_minus_block(g, beta, p), momenta_pair(g, beta, p)[1])

    def test_intertwining(self):
        assert_small(intertwining(*_cases(np.random.default_rng(191), 30)), 1e-10)

    def test_hamiltonian_block_pseudo_hermitian(self):
        # H(p) = H^#(p) block by block: each block is the Clifford
        # conjugate of itself at -p
        g, beta = 0.5, 0.9

        p = np.array([1.0, 1.5])
        h_p, h_minus_p = np.array(susy_blocks(g, beta, p)), np.array(susy_blocks(g, beta, -p))
        assert_small(clifford_conjugation_matrix(h_minus_p) - h_p, 1e-11)


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
            assert_small(resid, 1e-9)

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
            assert_small(resid, 1e-9)
