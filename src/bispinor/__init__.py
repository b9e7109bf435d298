"""Cl3 Clifford algebra with gamma-deformed generators, pseudo-Hermitian
Rashba Hamiltonians and exact numerical verification of their closed-form
spectral, time-reversal and SUSY structure."""

__version__ = "0.1.0"
