"""Cl3 Clifford algebra with gamma-deformed generators, pseudo-Hermitian
Rashba Hamiltonians and exact numerical verification of their closed-form
spectral, time-reversal and SUSY structure."""

from .multivector import (
    decompose,
    deformed_generators,
    geometric_product,
    involute,
    to_matrix,
)
from .biortho import BiorthoPair, build_pair, synthesize_generators
from .momenta import (
    LinearizationSet,
    build_linearization,
    clifford_momentum,
    magnetic,
    momentum_product,
    rashba,
)
from .spectrum import (
    EigenSystem,
    continuity_residual,
    eigensystem,
    flip_relations,
)
from .timereversal import (
    generator_reversal,
    pseudo_hermitian_residual,
)
from .ideal import (
    IdealBasis,
    basis_flip,
    build_ideal_basis,
    invariance_group_check,
)
from .susy import (
    pseudo_susy,
    supercharges,
    susy_hamiltonian,
    witten_parity,
)

__version__ = "0.1.0"
