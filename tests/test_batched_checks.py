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
from bispinor.harness.checks import _momenta, _visibly_nonzero, _worst, run_all
from bispinor.harness.config import SuiteConfig
from bispinor.multivector import (
    deformation_omega,
    deformed_generators,
    reversion_matrix,
    time_reverse_matrix,
)

_I2 = np.eye(2, dtype=complex)


# ------------------------------------------------------ per-point helpers

def generator_reversal_at(g):
    generators = deformed_generators(g)
    mirrored = deformed_generators(-g)
    vector_rule = float(np.abs(time_reverse_matrix(generators[1:4]) + mirrored[1:4]).max())
    rev = reversion_matrix(generators)
    expected = np.stack((rev[0], -rev[1], -rev[2], -rev[3],
                         1j * rev[3], 1j * rev[1], 1j * rev[2],
                         -1j * np.eye(2, dtype=complex)))
    listed_set = float(np.abs(time_reverse_matrix(generators) - expected).max())
    return {"vector_rule": vector_rule, "listed_set": listed_set}


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

def loop_reversed_generators(cfg, rng):
    residuals = [value for g in cfg.gamma_values for value in generator_reversal_at(g).values()]
    return _worst(*residuals), len(cfg.gamma_values)


def loop_generator_synthesis(cfg, rng):
    residuals = []
    for g in cfg.gamma_values:
        pair = biortho.canonical_pair(float(np.arcsin(g)))
        made = np.array(biortho.synthesize_generators(pair))
        residuals += [made - deformed_generators(g)[1:4], made @ made - _I2]
    return _worst(*residuals), len(cfg.gamma_values)


def loop_diagonal_momentum_angles(cfg, rng):
    residuals = []
    n = 0
    for g in cfg.gamma_values:
        for sign in (1.0, -1.0):
            angles = [spectrum.phi_angles(g, np.array([r, sign * r])) for r in (0.5, 2.0, 7.0)]
            residuals += [np.array(angles[0]) - np.array(other) for other in angles[1:]]
            n += 1
    return _worst(*residuals), n


def loop_gamma_zero_limit(cfg, rng):
    residuals = []
    betas = cfg.nonzero_betas()
    for b, p in zip(betas, _momenta(cfg, rng, len(betas))):
        es = spectrum.eigensystem(0.0, b, p)
        h = momenta.rashba(0.0, b, p)
        pi1, pi2, _ = spectrum.projector_matrices(es.phi_plus, es.phi_minus)
        psi, psi_minus, dual, _ = es.amplitudes
        residuals += [
            h - reversion_matrix(h),
            np.vdot(psi, psi_minus),
            pi1 - reversion_matrix(pi1),
            pi2 - reversion_matrix(pi2),
            psi - dual * np.vdot(dual, psi) / np.vdot(dual, dual),
        ]
    return _worst(*residuals), len(betas)


def loop_noncommutation_witness(cfg, rng):
    residuals = []
    all_visible = True
    n = 0
    betas = cfg.nonzero_betas()
    for b, p in zip(betas, _momenta(cfg, rng, len(betas))):
        residuals.append(timereversal.noncommutation_witness(0.0, b, p))
        for g in cfg.gamma_values:
            if g == 0.0:
                continue
            witness = timereversal.noncommutation_witness(g, b, p)
            all_visible = all_visible and _visibly_nonzero(witness)
            n += 1
    worst = _worst(*residuals)
    if not all_visible:
        worst = max(worst, 1.0)
    return worst, n + len(betas)


def loop_ideal_basis(cfg, rng):
    want = (
        np.array([[1, 0], [0, 0]], dtype=complex),
        np.array([[0, 0], [1j, 0]], dtype=complex),
        np.array([[0, 0], [-1, 0]], dtype=complex),
        np.array([[1j, 0], [0, 0]], dtype=complex),
    )
    gammas = list(cfg.gamma_values) + [float(x) for x in rng.uniform(-0.99, 0.99, size=10)]
    residuals = []
    for g in gammas:
        ib = ideal_basis_at(g)
        residuals += [got - ref for got, ref in zip(ib, want)]
        residuals.append(ib[0] @ ib[0] - ib[0])
    return _worst(*residuals), len(gammas)


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
    for test_id, oracle in ORACLES.items():
        def rng():
            return np.random.default_rng([cfg.seed, zlib.crc32(test_id.encode())])
        residual, samples = CHECKS[test_id](cfg, rng())
        want_residual, want_samples = oracle(cfg, rng())
        assert float(residual).hex() == float(want_residual).hex(), test_id
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
        assert checks.check_reversed_schrodinger(cfg, rng)[0] == np.inf


# ------------------------------------------------------------ call counts

def count_registry_calls(monkeypatch, cfg) -> Counter:
    """Calls one run_all makes to the counted functions, wrapped in every
    bispinor namespace that holds them.  The generator cache is bypassed, so
    every generator request is one deformed_generators call: with it, two
    checks whose stacks happen to hold the same gammas (one beta and at most
    three gammas) share a build."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for name, m in sys.modules.items() if name.startswith("bispinor")]
    with monkeypatch.context() as patch:
        for fn in (momenta.rashba, momenta.momentum_product, momenta.clifford_momentum,
                   multivector.deformed_generators):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        patch.setattr(module, attr, counted(fn.__name__, fn))
        patch.setattr(np.linalg, "eig", counted("eig", np.linalg.eig))
        patch.setattr(momenta, "_stack_generators", momenta._stack_generators.__wrapped__)
        run_all(cfg)
    return counts


def test_call_counts_do_not_grow_with_the_config(monkeypatch):
    small = SuiteConfig(samples=10, gamma_values=(0.0, 0.4), beta_values=(1.0,))
    large = SuiteConfig(samples=200, gamma_values=(0.0, 0.1, -0.2, 0.3, -0.45, 0.6, -0.7, 0.85, -0.95),
                        beta_values=(0.5, 1.0, 2.0))
    small_counts = count_registry_calls(monkeypatch, small)
    assert set(small_counts) == {"rashba", "momentum_product", "clifford_momentum",
                                 "deformed_generators", "eig"}
    assert count_registry_calls(monkeypatch, large) == small_counts
