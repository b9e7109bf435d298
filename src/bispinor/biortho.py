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

from .multivector import deformation_transform, det2, inv2, matvec, reversion_matrix, stacked
from .spectrum import amplitude_inner

_SEED_TOL = 1e-10
_I2 = np.eye(2)

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
    if (np.abs(gram(seeds, seeds) - _I2) > _SEED_TOL).any():
        raise ValueError("seed vectors not orthonormal")

    t_inv_dag = reversion_matrix(inv2(t))
    return (stacked((matvec(t, v1), matvec(t, v2)), axis=-2),
            stacked((matvec(t_inv_dag, v1), matvec(t_inv_dag, v2)), axis=-2))


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
    the canonical pair."""
    phi, chi = canonical_pair(gamma)
    # |phi_j><chi_k| over (..., j, k, a, b)
    outer = phi[..., :, None, :, None] * np.conj(chi)[..., None, :, None, :]
    return _SYNTH_PHASES[:, None, None] * np.einsum("mjk,...jkab->...mab", _SYNTH_COEFFS, outer)
