"""The registry checks that used to loop over gamma, beta or momenta against
their former per-point loops, and the registry's call counts against the
size of the configuration.

Each oracle below is the loop a check ran before it was evaluated over
stacked (gamma, beta, p) arrays, with the per-point helper bodies it called
written out where those helpers have since become shape-generic.  Batching
keeps every draw, eigen-solve and arithmetic step, so residuals must agree
bit for bit (``float.hex``), not to a tolerance.
"""

import sys
import zlib
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bispinor import biortho, momenta, multivector, spectrum, timereversal
from bispinor.harness import checks
from bispinor.harness.checks import _momenta, _nonzero_witness, run_all, worst_term
from bispinor.harness.config import SuiteConfig
from bispinor.multivector import (
    amplitude_inner,
    deformation_omega,
    deformed_generators,
    matmul2,
    reversion_matrix,
    time_reverse_matrix,
)

_I2 = np.eye(2, dtype=complex)


# ------------------------------------------------------ per-point helpers

def generator_reversal_at(g):
    generators = deformed_generators(g)
    mirrored = deformed_generators(-g)
    rev = reversion_matrix(generators)
    expected = np.stack((rev[0], -rev[1], -rev[2], -rev[3],
                         1j * rev[3], 1j * rev[1], 1j * rev[2],
                         -1j * np.eye(2, dtype=complex)))
    return {"vector_rule": time_reverse_matrix(generators[1:4]) + mirrored[1:4],
            "listed_set": time_reverse_matrix(generators) - expected}


def ideal_basis_at(g):
    w = deformation_omega(g)
    generators = deformed_generators(g)
    _, e1, e2, e3, e12, e23, e31, e123 = generators
    _, r1, _, r3, r12, r23, _, _ = time_reverse_matrix(generators)
    return (0.5 * _I2 + 0.25 * w * (e3 - r3),
            0.5 * e2 + 0.25 * w * (e23 + r23),
            0.5 * e31 - 0.25 * w * (e1 - r1),
            0.5 * e123 + 0.25 * w * (e12 + r12))


# ------------------------------------------------------------ the loops
#
# Each loop returns the check's terms, with the same names in the same order,
# each term a list of per-point residuals.

def loop_reversed_generators(cfg, rng):
    per_point = [generator_reversal_at(g) for g in cfg.gamma_values]
    return {name: [r[name] for r in per_point] for name in ("vector_rule", "listed_set")}, \
        len(cfg.gamma_values)


def loop_generator_synthesis(cfg, rng):
    terms = {"generators": [], "squares": []}
    for g in cfg.gamma_values:
        made = biortho.synthesize_generators(g)
        terms["generators"].append(made - deformed_generators(g)[1:4])
        terms["squares"].append(matmul2(made, made) - _I2)
    return terms, len(cfg.gamma_values)


def loop_diagonal_momentum_angles(cfg, rng):
    residuals = []
    n = 0
    for g in cfg.gamma_values:
        for sign in (1.0, -1.0):
            angles = [spectrum.phi_angles(g, np.array([r, sign * r])) for r in (0.5, 2.0, 7.0)]
            residuals += [np.array(angles[0]) - np.array(other) for other in angles[1:]]
            n += 1
    return {"radius_independence": residuals}, n


def loop_gamma_zero_limit(cfg, rng):
    terms = {name: [] for name in ("hermitian_h", "orthogonal_psi", "hermitian_pi1",
                                   "hermitian_pi2", "dual_is_psi")}
    betas = cfg.nonzero_betas()
    for b, p in zip(betas, _momenta(cfg, rng, len(betas))):
        angles = spectrum.phi_angles(0.0, p)
        h = momenta.rashba(0.0, b, p)
        pi1, pi2 = spectrum.projector_matrices(*angles)
        psi, psi_minus, dual, _ = spectrum.eigen_amplitudes(*angles)
        terms["hermitian_h"].append(h - reversion_matrix(h))
        # the library's own inner product, one point at a time: this loop
        # holds the batching, not amplitude_inner's arithmetic
        terms["orthogonal_psi"].append(amplitude_inner(psi, psi_minus))
        terms["hermitian_pi1"].append(pi1 - reversion_matrix(pi1))
        terms["hermitian_pi2"].append(pi2 - reversion_matrix(pi2))
        terms["dual_is_psi"].append(
            psi - dual * amplitude_inner(dual, psi) / amplitude_inner(dual, dual))
    return terms, len(betas)


def loop_noncommutation_witness(cfg, rng):
    residuals, witnesses = [], []
    betas = cfg.nonzero_betas()
    for b, p in zip(betas, _momenta(cfg, rng, len(betas))):
        residuals.append(timereversal.noncommutation_witness(0.0, b, p))
        witnesses += [timereversal.noncommutation_witness(g, b, p)
                      for g in cfg.gamma_values if g != 0.0]
    witnesses = np.reshape(witnesses, (-1, 2, 2))          # (0, 2, 2) when no gamma is nonzero
    return {"commutes_at_gamma_zero": residuals,
            "witness_nonzero_gamma": _nonzero_witness(witnesses)}, len(witnesses) + len(betas)


def loop_ideal_basis(cfg, rng):
    want = (
        np.array([[1, 0], [0, 0]], dtype=complex),
        np.array([[0, 0], [1j, 0]], dtype=complex),
        np.array([[0, 0], [-1, 0]], dtype=complex),
        np.array([[1j, 0], [0, 0]], dtype=complex),
    )
    gammas = list(cfg.gamma_values) + [float(x) for x in rng.uniform(-0.99, 0.99, size=10)]
    terms = {name: [] for name in ("g0", "g1", "g2", "g3", "g0_idempotent")}
    for g in gammas:
        ib = ideal_basis_at(g)
        for name, got, ref in zip(("g0", "g1", "g2", "g3"), ib, want):
            terms[name].append(got - ref)
        terms["g0_idempotent"].append(matmul2(ib[0], ib[0]) - ib[0])
    return terms, len(gammas)


ORACLES = {
    "clifford.reversed_generators": loop_reversed_generators,
    "biortho.generator_synthesis": loop_generator_synthesis,
    "spectrum.diagonal_momentum_angles": loop_diagonal_momentum_angles,
    "spectrum.gamma_zero_limit": loop_gamma_zero_limit,
    "timereversal.noncommutation_witness": loop_noncommutation_witness,
    "ideal.basis_reproduction": loop_ideal_basis,
}
CHECKS = {test_id: fn for test_id, _, fn, _ in checks.REGISTRY}


def assert_matches_loops(cfg):
    """The reducer gives the same residual bits and the same worst term on a
    check's terms as on its loop's."""
    for test_id, oracle in ORACLES.items():
        def rng():
            return np.random.default_rng([cfg.seed, zlib.crc32(test_id.encode())])
        terms, samples = CHECKS[test_id](cfg, rng())
        want_terms, want_samples = oracle(cfg, rng())
        assert list(terms) == list(want_terms), test_id
        residual, term = worst_term(terms)
        want_residual, want_term = worst_term(want_terms)
        assert float(residual).hex() == float(want_residual).hex(), test_id
        assert term == want_term, test_id
        assert samples == want_samples, test_id


gamma_values = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, -0.9, 0.6]), st.floats(-0.999, 0.999)),
    min_size=1, max_size=9)
beta_values = st.lists(st.one_of(st.just(0.0), st.floats(-4.0, 4.0)), min_size=1, max_size=4)
boxes = st.tuples(st.floats(-5.0, 0.0), st.floats(0.05, 5.0))


@settings(max_examples=60)
@given(seed=st.integers(0, 2**63), gammas=gamma_values, betas=beta_values,
       single_beta=st.floats(0.05, 4.0), use_single=st.booleans(), p1=boxes, p2=boxes)
def test_batched_checks_equal_their_loops(seed, gammas, betas, single_beta, use_single, p1, p2):
    betas = [single_beta] if use_single else betas + [0.0]
    if not any(b != 0.0 for b in betas):
        betas.append(single_beta)
    cfg = SuiteConfig(gamma_values=gammas, beta_values=betas, p1_range=p1, p2_range=p2,
                      samples=5, seed=seed)
    assert_matches_loops(cfg)


def test_batched_checks_equal_their_loops_on_overflow():
    # |p| ~ 1e160 overflows every Hamiltonian entry
    cfg = SuiteConfig(p1_range=(-1e160, 1e160), p2_range=(-1e160, 1e160))
    with np.errstate(all="ignore"):
        assert_matches_loops(cfg)
        rng = np.random.default_rng([cfg.seed, zlib.crc32(b"timereversal.reversed_schrodinger")])
        terms, _ = checks.check_reversed_schrodinger(cfg, rng)
        assert worst_term(terms) == (np.inf, "reversed_eigen_identity")


# ------------------------------------------------------------ call counts

COUNTED = (momenta.rashba, momenta.momentum_product, momenta.clifford_momentum,
           multivector.deformed_generators)


def count_registry_calls(monkeypatch, cfg, counted_fns=COUNTED) -> Counter:
    """Calls one run_all makes to the counted functions (and to numpy's
    eig), each wrapped in every bispinor namespace that holds it."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for name, m in sys.modules.items() if name.startswith("bispinor")]
    with monkeypatch.context() as patch:
        for fn in counted_fns:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        patch.setattr(module, attr, counted(fn.__name__, fn))
        patch.setattr(np.linalg, "eig", counted("eig", np.linalg.eig))
        run_all(cfg)
    return counts


def test_call_counts_do_not_grow_with_the_config(monkeypatch):
    small = SuiteConfig(samples=10, gamma_values=(0.0, 0.4), beta_values=(1.0,))
    large = SuiteConfig(samples=200, gamma_values=(0.0, 0.1, -0.2, 0.3, -0.45, 0.6, -0.7, 0.85, -0.95),
                        beta_values=(0.5, 1.0, 2.0))
    small_counts = count_registry_calls(monkeypatch, small)
    # no check calls numpy's eig any more, so it is counted but never seen
    assert set(small_counts) == {"rashba", "momentum_product", "clifford_momentum",
                                 "deformed_generators"}
    assert count_registry_calls(monkeypatch, large) == small_counts


def test_call_budget_at_the_default_config(monkeypatch):
    # Each family of operator variants is one stacked call.  Per default
    # run_all, to_matrix ran 83 times and momentum_product 39 times with a
    # call per variant (8d4469a); stacked, 42 and 22 (bf2ef8c); with both
    # Rashba signs in one call and the supercharges built once per check, 37
    # and 19; with the momenta handing their Pauli form to pauli_matrix
    # (c89519a), 9 and 17; with e3^gamma taken from pauli_matrix and the
    # SUSY checks on 2x2 blocks, 8 and 17; with rashba and magnetic in their
    # real closed form, 8 and 1, the one check_factorization makes.
    counts = count_registry_calls(monkeypatch, SuiteConfig(),
                                  (multivector.to_matrix, momenta.momentum_product))
    assert counts["to_matrix"] <= 50
    assert counts["momentum_product"] <= 1


# numpy's Python-level builders, each 3-30 us a call against about 1 us for
# a ufunc
BUILDERS = ("stack", "moveaxis", "full", "isin", "tile", "repeat", "zeros_like", "eye")


def test_builder_budget_at_the_default_config(monkeypatch):
    # Calls one default run_all makes from bispinor code to numpy's list
    # builders.  There were 69 (701df11): np.stack over known shapes, np.full,
    # np.moveaxis to unpack, np.repeat and np.tile for the (gamma, beta)
    # pairs, and constants such as np.eye(8) and np.isin(GRADES, (1, 3))
    # rebuilt per call.  Writing known shapes into np.empty, unpacking by
    # indexing and building the constants once at import took them to 0.
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("bispinor"):
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        for name in BUILDERS:
            patch.setattr(np, name, counted(name, getattr(np, name)))
        run_all(SuiteConfig())
    assert sum(counts.values()) <= 12, counts
