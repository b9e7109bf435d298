"""Bi-orthogonal vector pairs in C^2 and rank-one synthesis of the deformed
generators.

Given orthonormal seed vectors v1, v2 and an invertible transform T, the
families phi_j = T v_j and chi_j = (T^-1)^dagger v_j satisfy
<phi_j | chi_k> = <v_j | v_k> identically, so orthonormal seeds give a
bi-orthogonal system for any invertible T (Hermiticity of T is not needed).
A pair is two arrays (phi, chi), each (..., 2, 2) with rows phi_j and chi_j.
"""

from __future__ import annotations

import numpy as np

from .multivector import _ID, amplitude_inner, deformation_transform, det2, inv2, matmul2, stacked

_SEED_TOL = 1e-10

# The canonical seeds v_j = (1, (-1)^(j-1))/sqrt(2), one per row.
_CANONICAL_SEEDS = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def gram(phi: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """Matrices (..., 2, 2) of inner products <phi_j | chi_k> of the rows of
    phi and chi (..., 2, 2)."""
    return amplitude_inner(phi[..., :, None, :], chi[..., None, :, :])


def build_pair(v1: np.ndarray, v2: np.ndarray, transform: np.ndarray):
    """The pair (phi, chi) with rows T v_j and (T^-1)^dagger v_j, from
    orthonormal seeds v_j (..., 2) and transforms T (..., 2, 2)."""
    v1 = np.asarray(v1, dtype=complex)
    v2 = np.asarray(v2, dtype=complex)
    t = np.asarray(transform, dtype=complex)
    if v1.shape[-1:] != (2,) or v2.shape[-1:] != (2,) or t.shape[-2:] != (2, 2):
        raise ValueError("need seed vectors in C^2 and 2x2 transforms")

    scale = np.maximum(np.abs(t).max(axis=(-1, -2)), 1.0)
    if (np.abs(det2(t)) < 1e-12 * scale * scale).any():
        raise ValueError("non-invertible transform")

    seeds = stacked((v1, v2), axis=-2)
    if (np.abs(gram(seeds, seeds) - _ID) > _SEED_TOL).any():
        raise ValueError("seed vectors not orthonormal")

    # the rows T v_j and (T^-1)^dagger v_j: the seed rows times T^T and conj(T^-1)
    return matmul2(seeds, t.swapaxes(-1, -2)), matmul2(seeds, np.conj(inv2(t)))


def canonical_pair(gamma):
    """The pair (phi, chi) from the canonical seeds and the deformation
    transforms at deformation parameters gamma (...)."""
    v1, v2 = _CANONICAL_SEEDS
    return build_pair(v1, v2, deformation_transform(gamma))


# Coefficient tables c^(m)_{jk} of the rank-one synthesis
# sigma_m = i^(m+1) sum_jk c^(m)_{jk} |phi_j><chi_k|,
# pinned by the requirement that gamma = 0 reproduces the Pauli matrices.
_SYNTH_COEFFS = np.array([
    [[-1.0, 0.0], [0.0, 1.0]],   # m=1: (-1)^j delta_jk
    [[0.0, -1.0], [1.0, 0.0]],   # m=2: (-1)^j (1 - delta_jk)
    [[0.0, 1.0], [1.0, 0.0]],    # m=3: (1 - delta_jk)
])
# i^(m+1) as exact Python powers (1j ** array rounds differently)
_SYNTH_PHASES = np.array([(1j) ** (m + 1) for m in (1, 2, 3)])


def synthesize_generators(gamma) -> np.ndarray:
    """The three deformed vector generators at deformation parameters gamma
    (...), stacked (..., 3, 2, 2), assembled from the rank-one projectors of
    the canonical pair as i^(m+1) phi^T c^(m) conj(chi), rows phi_j, chi_k."""
    phi, chi = canonical_pair(gamma)
    sums = matmul2(matmul2(phi.swapaxes(-1, -2)[..., None, :, :], _SYNTH_COEFFS),
                   np.conj(chi)[..., None, :, :])
    return _SYNTH_PHASES[:, None, None] * sums
