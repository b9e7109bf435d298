import numpy as np
import pytest

from bispinor.biortho import build_pair, canonical_pair, synthesize_generators
from bispinor.multivector import SIGMA1, SIGMA2, SIGMA3, deformation_transform, deformed_generators

TOL = 1e-12


def test_identity_transform_fixed_points():
    v1 = np.array([1.0, 0.0])
    v2 = np.array([0.0, 1.0])
    pair = build_pair(v1, v2, np.eye(2))
    for got, want in zip(pair.phi + pair.chi, (v1, v2, v1, v2)):
        assert np.abs(got - want).max() == 0.0


def test_canonical_seeds_with_deformation_transform():
    pair = canonical_pair(np.pi / 6)
    assert np.abs(pair.gram() - np.eye(2)).max() < TOL


def test_random_gram_identity():
    rng = np.random.default_rng(17)
    for _ in range(50):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(z)
        t = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(t)) < 1e-3:
            t = t + 2 * np.eye(2)
        pair = build_pair(q[:, 0], q[:, 1], t)
        assert np.abs(pair.gram() - np.eye(2)).max() < 1e-10


def test_hermitian_transform_branch():
    # transform equal to its own adjoint: the construction of the theorem
    t = deformation_transform(0.45)
    assert np.abs(t - t.conj().T).max() < TOL
    pair = canonical_pair(np.arcsin(0.45))
    assert np.abs(pair.gram() - np.eye(2)).max() < TOL


def test_singular_transform_rejected():
    with pytest.raises(ValueError, match="non-invertible"):
        build_pair(np.array([1, 0]), np.array([0, 1]),
                   np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_bad_seeds_rejected():
    with pytest.raises(ValueError, match="not orthonormal"):
        build_pair(np.array([1.0, 0.0]), np.array([1.0, 0.1]), np.eye(2))
    with pytest.raises(ValueError, match="not orthonormal"):
        build_pair(np.array([2.0, 0.0]), np.array([0.0, 1.0]), np.eye(2))


def test_synthesis_theta_zero_gives_pauli():
    made = synthesize_generators(canonical_pair(0.0))
    for got, want in zip(made, (SIGMA1, SIGMA2, SIGMA3)):
        assert np.abs(got - want).max() < TOL


def test_synthesis_printed_sigma3():
    theta = np.arcsin(0.6)
    made = synthesize_generators(canonical_pair(theta))
    want = np.array([[1.25, 0.75j], [0.75j, -1.25]])
    assert np.abs(made[2] - want).max() < TOL


def test_synthesis_matches_deformed_basis():
    for g in (-0.9, -0.3, 0.0, 0.5, 0.95):
        made = synthesize_generators(canonical_pair(np.arcsin(g)))
        want = deformed_generators(g)[1:4]
        for a, b in zip(made, want):
            assert np.abs(a - b).max() < TOL


def test_synthesis_squares_to_identity():
    made = synthesize_generators(canonical_pair(0.8))
    for m in made:
        assert np.abs(m @ m - np.eye(2)).max() < TOL


def test_synthesis_clifford_relations():
    made = synthesize_generators(canonical_pair(-0.4))
    for i in range(3):
        for j in range(3):
            anti = made[i] @ made[j] + made[j] @ made[i]
            assert np.abs(anti - 2.0 * (i == j) * np.eye(2)).max() < TOL


def test_wrong_seed_family_rejected():
    pair = build_pair(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.eye(2))
    with pytest.raises(ValueError, match="unsupported seed"):
        synthesize_generators(pair)


def test_synthesis_equals_rank_one_loop():
    """The contraction equals the sum of c^(m)_jk |phi_j><chi_k| written as a
    loop over nonzero coefficients, bit for bit."""
    coeffs = ([[-1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [1.0, 0.0]],
              [[0.0, 1.0], [1.0, 0.0]])
    for g in np.linspace(-0.999, 0.999, 403):
        pair = canonical_pair(np.arcsin(g))
        for m, (made, c) in enumerate(zip(synthesize_generators(pair), coeffs), start=1):
            acc = np.zeros((2, 2), dtype=complex)
            for j in range(2):
                for k in range(2):
                    if c[j][k] != 0.0:
                        acc += c[j][k] * np.outer(pair.phi[j], np.conj(pair.chi[k]))
            assert made.tobytes() == ((1j) ** (m + 1) * acc).tobytes()
