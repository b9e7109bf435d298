"""Bi-orthogonal vector pairs in C^2 and rank-one synthesis of the deformed
generators.

Given orthonormal seed vectors v1, v2 and an invertible transform T, the
families phi_j = T v_j and chi_j = (T^-1)^dagger v_j satisfy
<phi_j | chi_k> = <v_j | v_k> identically, so orthonormal seeds give a
bi-orthogonal system for any invertible T (Hermiticity of T is not needed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multivector import deformation_transform, matvec
from .spectrum import amplitude_inner

_SEED_TOL = 1e-10


@dataclass(frozen=True)
class BiorthoPair:
    """A bi-orthogonal pair of bases of C^2 produced by one transform; over
    batched inputs each vector is (..., 2) and the transform (..., 2, 2)."""

    phi: tuple[np.ndarray, np.ndarray]
    chi: tuple[np.ndarray, np.ndarray]
    source: tuple[np.ndarray, np.ndarray]
    transform: np.ndarray

    def gram(self) -> np.ndarray:
        """Matrices (..., 2, 2) of inner products <phi_j | chi_k>."""
        phi = np.stack(self.phi, axis=-2)[..., :, None, :]
        chi = np.stack(self.chi, axis=-2)[..., None, :, :]
        return amplitude_inner(phi, chi)


def build_pair(v1: np.ndarray, v2: np.ndarray, transform: np.ndarray) -> BiorthoPair:
    """Construct the pair (T v_j, (T^-1)^dagger v_j) from orthonormal seeds
    v_j (..., 2) and transforms T (..., 2, 2)."""
    v1 = np.asarray(v1, dtype=complex)
    v2 = np.asarray(v2, dtype=complex)
    t = np.asarray(transform, dtype=complex)
    if v1.shape[-1:] != (2,) or v2.shape[-1:] != (2,) or t.shape[-2:] != (2, 2):
        raise ValueError("need seed vectors in C^2 and 2x2 transforms")

    scale = np.maximum(np.abs(t).max(axis=(-1, -2)), 1.0)
    if np.any(np.abs(np.linalg.det(t)) < 1e-12 * scale * scale):
        raise ValueError("non-invertible transform")

    seeds = np.stack((v1, v2), axis=-2)
    gram = amplitude_inner(seeds[..., :, None, :], seeds[..., None, :, :])
    if np.any(np.abs(gram - np.eye(2)) > _SEED_TOL):
        raise ValueError("seed vectors not orthonormal")

    t_inv_dag = np.linalg.inv(t).conj().swapaxes(-1, -2)
    return BiorthoPair(
        phi=(matvec(t, v1), matvec(t, v2)),
        chi=(matvec(t_inv_dag, v1), matvec(t_inv_dag, v2)),
        source=(v1, v2),
        transform=t,
    )


# Coefficient tables c^(m)_{jk} of the rank-one synthesis
# sigma_m = i^(m+1) sum_jk c^(m)_{jk} |phi_j><chi_k|,
# pinned by the requirement that theta = 0 reproduces the Pauli matrices.
_SYNTH_COEFFS = np.array([
    [[-1.0, 0.0], [0.0, 1.0]],   # m=1: (-1)^j delta_jk
    [[0.0, -1.0], [1.0, 0.0]],   # m=2: (-1)^j (1 - delta_jk)
    [[0.0, 1.0], [1.0, 0.0]],    # m=3: (1 - delta_jk)
])
# i^(m+1) as exact Python powers (1j ** array rounds differently)
_SYNTH_PHASES = np.array([(1j) ** (m + 1) for m in (1, 2, 3)])


def synthesize_generators(pair: BiorthoPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the three deformed vector generators, each (..., 2, 2) over
    the pair's batch axes, from rank-one projectors.

    Requires the canonical seed family v_j = (1, (-1)^(j-1))/sqrt(2); any
    other seed family is rejected.
    """
    expected = (
        np.array([1.0, 1.0]) / np.sqrt(2.0),
        np.array([1.0, -1.0]) / np.sqrt(2.0),
    )
    for v, want in zip(pair.source, expected):
        if np.abs(v - want).max() > _SEED_TOL:
            raise ValueError("unsupported seed")

    phi, chi = np.stack(pair.phi, axis=-2), np.stack(pair.chi, axis=-2)
    # |phi_j><chi_k| over (..., j, k, a, b)
    outer = phi[..., :, None, :, None] * np.conj(chi)[..., None, :, None, :]
    made = _SYNTH_PHASES[:, None, None] * np.einsum("mjk,...jkab->...mab", _SYNTH_COEFFS, outer)
    return tuple(np.moveaxis(made, -3, 0))


def canonical_pair(theta) -> BiorthoPair:
    """Pair from the canonical seeds and the deformation transforms at
    angles theta (...)."""
    v1 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    v2 = np.array([1.0, -1.0]) / np.sqrt(2.0)
    return build_pair(v1, v2, deformation_transform(np.sin(theta)))
