import numpy as np

from bispinor.momenta import rashba
from bispinor.spectrum import eigenvalues
from bispinor.susy import (
    intertwining_residuals,
    pseudo_susy,
    super_time_reversal,
    supercharges,
    susy_hamiltonian,
    witten_parity,
)
from bispinor.timereversal import pseudo_adjoint

TOL = 1e-12


def _cases(rng, n):
    for _ in range(n):
        yield (float(rng.uniform(-0.95, 0.95)),
               float(rng.uniform(0.1, 3.0)),
               rng.uniform(-3, 3, size=2))


class TestAlgebra:
    def test_supercharges_nilpotent(self):
        rng = np.random.default_rng(163)
        for g, beta, p in _cases(rng, 30):
            tp, tm = supercharges(g, beta, p)
            assert np.abs(tp @ tp).max() < TOL
            assert np.abs(tm @ tm).max() < TOL

    def test_anticommutator_is_sector_diagonal(self):
        rng = np.random.default_rng(167)
        for g, beta, p in _cases(rng, 30):
            h = susy_hamiltonian(g, beta, p)
            assert np.abs(h[:2, 2:]).max() < TOL
            assert np.abs(h[2:, :2]).max() < TOL
            assert np.abs(h[:2, :2] - rashba(g, beta, p)).max() < 1e-11
            assert np.abs(h[2:, 2:] - rashba(g, beta, p, sign=-1)).max() < 1e-11

    def test_supercharges_commute_with_hamiltonian(self):
        rng = np.random.default_rng(173)
        for g, beta, p in _cases(rng, 30):
            h = susy_hamiltonian(g, beta, p)
            for q in supercharges(g, beta, p):
                assert np.abs(h @ q - q @ h).max() < 1e-10

    def test_witten_parity_relations(self):
        w = witten_parity()
        assert np.abs(w @ w - np.eye(4)).max() < TOL
        g, beta, p = 0.4, 1.1, np.array([0.8, -0.5])
        tp, tm = supercharges(g, beta, p)
        for q in (tp, tm):
            assert np.abs(w @ q + q @ w).max() < TOL
        h = susy_hamiltonian(g, beta, p)
        assert np.abs(w @ h - h @ w).max() < TOL


class TestSpectrum:
    def test_four_eigenvalues_are_two_rashba_doublets(self):
        rng = np.random.default_rng(179)
        for g, beta, p in _cases(rng, 30):
            got = np.sort(np.linalg.eigvals(susy_hamiltonian(g, beta, p)).real)
            lp, lm = eigenvalues(beta, p)
            lp2, lm2 = eigenvalues(-beta, p)
            want = np.sort([lp, lm, lp2, lm2])
            assert np.abs(got - want).max() < 1e-10

    def test_gamma_zero_is_hermitian(self):
        h = susy_hamiltonian(0.0, 1.0, np.array([0.7, 0.2]))
        assert np.abs(h - h.conj().T).max() < TOL


class TestPseudoSusy:
    def test_reproduces_susy_hamiltonian(self):
        rng = np.random.default_rng(181)
        for g, beta, p in _cases(rng, 30):
            _, _, h_psusy = pseudo_susy(g, beta, p)
            h = susy_hamiltonian(g, beta, p)
            assert np.abs(h_psusy - h).max() < 1e-11

    def test_lambda_minus_is_pseudo_adjoint_of_lambda_plus(self):
        g, beta = 0.6, 1.3
        p = np.array([1.2, -0.4])

        lam_minus = pseudo_susy(g, beta, p)[1]
        sharp = pseudo_adjoint(pseudo_susy(g, beta, -p)[0])
        assert np.abs(sharp - lam_minus).max() < TOL

    def test_intertwining(self):
        rng = np.random.default_rng(191)
        for g, beta, p in _cases(rng, 30):
            r1, r2 = intertwining_residuals(g, beta, p)
            assert r1 < 1e-10
            assert r2 < 1e-10

    def test_super_time_reversal_squares_to_minus_one(self):
        u = super_time_reversal()
        assert np.abs(u @ u.conj() + np.eye(4)).max() < TOL

    def test_hamiltonian_block_pseudo_hermitian(self):
        g, beta = 0.5, 0.9

        p = np.array([1.0, 1.5])
        h_p, h_minus_p = susy_hamiltonian(g, beta, p), susy_hamiltonian(g, beta, -p)
        assert np.abs(pseudo_adjoint(h_minus_p) - h_p).max() < 1e-11


class TestSectorPairing:
    def test_theta_minus_maps_plus_sector_to_minus_sector(self):
        g, beta = 0.4, 1.2
        p = np.array([1.1, -0.7])
        h = susy_hamiltonian(g, beta, p)
        _, tm = supercharges(g, beta, p)
        vals, vecs = np.linalg.eig(h[:2, :2])
        for k in range(2):
            v4 = np.concatenate([vecs[:, k], np.zeros(2)])
            mapped = (tm @ v4)[2:]
            if np.linalg.norm(mapped) < 1e-9:
                continue
            resid = h[2:, 2:] @ mapped - vals[k] * mapped
            assert np.abs(resid).max() < 1e-9

    def test_theta_plus_maps_minus_sector_to_plus_sector(self):
        g, beta = -0.3, 0.8
        p = np.array([0.6, 1.4])
        h = susy_hamiltonian(g, beta, p)
        tp, _ = supercharges(g, beta, p)
        vals, vecs = np.linalg.eig(h[2:, 2:])
        for k in range(2):
            v4 = np.concatenate([np.zeros(2), vecs[:, k]])
            mapped = (tp @ v4)[:2]
            if np.linalg.norm(mapped) < 1e-9:
                continue
            resid = h[:2, :2] @ mapped - vals[k] * mapped
            assert np.abs(resid).max() < 1e-9
