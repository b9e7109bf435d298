"""Cl3 Clifford algebra with gamma-deformed generators, pseudo-Hermitian
Rashba Hamiltonians and exact numerical verification of their closed-form
spectral, time-reversal and SUSY structure."""

from .multivector import (
    DeformedBasis,
    Multivector,
    from_matrix,
    geometric_product,
    involute,
    make_deformed_basis,
    to_matrix,
)
from .biortho import BiorthoPair, build_pair, synthesize_generators
from .momenta import (
    CliffordMomentum,
    LinearizationSet,
    MomentumHamiltonian,
    build_linearization,
    factorize,
    magnetic,
    rashba,
)
from .spectrum import (
    EigenSystem,
    FiniteSpinor,
    ProjectorPair,
    biortho_inner,
    continuity_residual,
    eigensystem,
    flip_relations,
    projectors,
    spin_vector,
)
from .timereversal import (
    TimeReversal,
    TIME_REVERSAL,
    generator_reversal,
    kramers_analogue,
    pseudo_hermitian_residual,
)
from .ideal import (
    IdealBasis,
    IdealSpinor,
    basis_flip,
    build_ideal_basis,
    from_ideal,
    inner_c1,
    inner_c2,
    invariance_group_check,
    to_ideal,
)
from .susy import (
    pseudo_susy,
    supercharges,
    susy_hamiltonian,
    witten_parity,
)

__version__ = "0.1.0"
