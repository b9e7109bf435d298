import numpy as np
import pytest

from bispinor.biortho import build_pair, canonical_pair, gram, synthesize_generators
from bispinor.multivector import SIGMA1, SIGMA2, SIGMA3, deformation_transform, deformed_generators

TOL = 1e-12


def test_identity_transform_fixed_points():
    v1 = np.array([1.0, 0.0])
    v2 = np.array([0.0, 1.0])
    phi, chi = build_pair(v1, v2, np.eye(2))
    for got in (phi, chi):
        assert np.abs(got - np.eye(2)).max() == 0.0


def test_canonical_seeds_with_deformation_transform():
    assert np.abs(gram(*canonical_pair(0.5)) - np.eye(2)).max() < TOL


def test_random_gram_identity():
    rng = np.random.default_rng(17)
    for _ in range(50):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(z)
        t = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(t)) < 1e-3:
            t = t + 2 * np.eye(2)
        assert np.abs(gram(*build_pair(q[:, 0], q[:, 1], t)) - np.eye(2)).max() < 1e-10


def test_hermitian_transform_branch():
    # transform equal to its own adjoint: the construction of the theorem
    t = deformation_transform(0.45)
    assert np.abs(t - t.conj().T).max() < TOL
    assert np.abs(gram(*canonical_pair(0.45)) - np.eye(2)).max() < TOL


def test_singular_transform_rejected():
    with pytest.raises(ValueError, match="non-invertible"):
        build_pair(np.array([1, 0]), np.array([0, 1]),
                   np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_bad_seeds_rejected():
    with pytest.raises(ValueError, match="not orthonormal"):
        build_pair(np.array([1.0, 0.0]), np.array([1.0, 0.1]), np.eye(2))
    with pytest.raises(ValueError, match="not orthonormal"):
        build_pair(np.array([2.0, 0.0]), np.array([0.0, 1.0]), np.eye(2))


# Each guard of build_pair just either side of its threshold, so a mutant that
# moves the threshold (2e-12, scale / scale, no floor, a 2e-10 seed tolerance)
# fails one of these.
@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_determinant_guard_edge(scale):
    # reject |det T| < 1e-12 scale^2, scale the largest |entry| of T
    seeds = np.eye(2)
    for factor, rejected in ((0.9, True), (1.1, False)):
        t = np.diag([scale, factor * 1e-12 * scale])
        if rejected:
            with pytest.raises(ValueError, match="non-invertible"):
                build_pair(*seeds, t)
        else:
            build_pair(*seeds, t)


def test_determinant_guard_scale_floor():
    # the scale is at least 1: without the floor 1e-7 I (det 1e-14, scale 1e-7)
    # would pass 1e-12 scale^2 = 1e-26
    with pytest.raises(ValueError, match="non-invertible"):
        build_pair(*np.eye(2), 1e-7 * np.eye(2))


def test_seed_tolerance_edge():
    # the seeds (1, 0) and (d, 1) are d off orthonormal: <v1|v2> = d, |v2|^2 - 1 = d^2
    build_pair(np.array([1.0, 0.0]), np.array([0.9e-10, 1.0]), np.eye(2))
    with pytest.raises(ValueError, match="not orthonormal"):
        build_pair(np.array([1.0, 0.0]), np.array([1.1e-10, 1.0]), np.eye(2))


def test_synthesis_theta_zero_gives_pauli():
    made = synthesize_generators(0.0)
    for got, want in zip(made, (SIGMA1, SIGMA2, SIGMA3)):
        assert np.abs(got - want).max() < TOL


def test_synthesis_printed_sigma3():
    made = synthesize_generators(0.6)
    want = np.array([[1.25, 0.75j], [0.75j, -1.25]])
    assert np.abs(made[2] - want).max() < TOL


def test_synthesis_matches_deformed_basis():
    for g in (-0.9, -0.3, 0.0, 0.5, 0.95):
        made = synthesize_generators(g)
        want = deformed_generators(g)[1:4]
        for a, b in zip(made, want):
            assert np.abs(a - b).max() < TOL


def test_synthesis_squares_to_identity():
    made = synthesize_generators(0.8)
    for m in made:
        assert np.abs(m @ m - np.eye(2)).max() < TOL


def test_synthesis_clifford_relations():
    made = synthesize_generators(-0.4)
    for i in range(3):
        for j in range(3):
            anti = made[i] @ made[j] + made[j] @ made[i]
            assert np.abs(anti - 2.0 * (i == j) * np.eye(2)).max() < TOL


def test_synthesis_equals_rank_one_loop():
    """The contraction equals the sum of c^(m)_jk |phi_j><chi_k| written as a
    loop over nonzero coefficients, bit for bit."""
    coeffs = ([[-1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [1.0, 0.0]],
              [[0.0, 1.0], [1.0, 0.0]])
    for g in np.linspace(-0.999, 0.999, 403):
        phi, chi = canonical_pair(g)
        for m, (made, c) in enumerate(zip(synthesize_generators(g), coeffs), start=1):
            acc = np.zeros((2, 2), dtype=complex)
            for j in range(2):
                for k in range(2):
                    if c[j][k] != 0.0:
                        acc += c[j][k] * np.outer(phi[j], np.conj(chi[k]))
            assert made.tobytes() == ((1j) ** (m + 1) * acc).tobytes()
