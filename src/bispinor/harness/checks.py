"""The check registry: one entry per declared library invariant.

Every check is a pure function (config, rng) -> (max_residual, samples);
the runner turns residuals into pass/fail entries against the configured
tolerance.  Angle-relation and eigenvalue checks use a relaxed internal
scale only where the spec'd tolerance differs -- the registry stores a
per-check tolerance multiplier for that purpose.

Each check draws from its own generator, ``default_rng([seed,
crc32(test_id)])``, so its samples depend only on the seed and its ID: a
check gives the same numbers run alone or in any registry order.  A sampled
check draws each input as one array over all its samples (momenta inside
the small disc around the origin are redrawn row by row) and then
evaluates its identity once over the stack.  Every residual goes through
:func:`_worst`, which turns any NaN or inf into an infinite residual, i.e.
a failure.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from .. import biortho, ideal, momenta, spectrum, susy, timereversal
from ..multivector import (
    GRADES,
    MATRIX_INVOLUTIONS,
    decompose,
    deformation_transform,
    geometric_product,
    involute,
    matvec,
    reversion_matrix,
    to_matrix,
)
from ..spectrum import amplitude_inner, eigen_amplitudes, eigenvalues, phi_angles
from .config import GAMMA_MARGIN, ConfigError, SuiteConfig
from .report import ConformanceReport, ReportEntry

_I2 = np.eye(2, dtype=complex)

# Redraw rounds before a box is rejected: the default box needs at most one,
# a box 0.7% outside |p| <= 1e-2 about a thousand, 3e-5 outside about 2e5.
_REDRAW_ROUNDS = 10_000


def _gammas(rng, n: int) -> np.ndarray:
    return rng.uniform(-1.0 + GAMMA_MARGIN, 1.0 - GAMMA_MARGIN, size=n)


def _betas(cfg: SuiteConfig, rng, n: int) -> np.ndarray:
    betas = np.array(cfg.nonzero_betas())
    return betas[rng.integers(len(betas), size=n)]


def _momenta(cfg: SuiteConfig, rng, n: int) -> np.ndarray:
    """n momenta (n, 2), uniform in the configured box with |p| > 1e-2:
    rows inside the small disc around the origin are redrawn, for at most
    _REDRAW_ROUNDS rounds.  A box with too little area outside the disc
    (all of it inside, or a sliver outside) raises ConfigError."""
    lo, hi = np.array([cfg.p1_range, cfg.p2_range]).T
    p = rng.uniform(lo, hi, size=(n, 2))
    small = np.hypot(p[:, 0], p[:, 1]) <= 1e-2
    for _ in range(_REDRAW_ROUNDS):
        if not small.any():
            break
        p[small] = rng.uniform(lo, hi, size=(int(small.sum()), 2))
        small = np.hypot(p[:, 0], p[:, 1]) <= 1e-2
    if small.any():
        raise ConfigError(f"the momentum box lies (almost) wholly inside |p| <= 1e-2: "
                          f"{_REDRAW_ROUNDS} redraws left momenta there")
    return p


def _gamma_beta_pairs(gammas, betas) -> tuple[np.ndarray, np.ndarray]:
    """Every (gamma, beta) pair, gamma-major, as two flat arrays."""
    return np.repeat(gammas, len(betas)), np.tile(betas, len(gammas))


def _gamma_beta_p(cfg: SuiteConfig, rng, n: int) -> tuple[np.ndarray, ...]:
    return _gammas(rng, n), _betas(cfg, rng, n), _momenta(cfg, rng, n)


def _complex_normal(rng, shape) -> np.ndarray:
    """Complex standard normal entries of the given shape (spinors (n, 2),
    matrices (n, 2, 2), ...)."""
    z = rng.normal(size=(2, *shape))
    return z[0] + 1j * z[1]


def _rand_mv_pairs(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n pairs of (8,) multivector coefficient arrays, uniform in [-2, 2)."""
    u = rng.uniform(-2.0, 2.0, size=(n, 2, 8))
    return u[:, 0], u[:, 1]


def _worst(*residuals) -> float:
    """The largest |entry| over all residual arrays (0 for none).  Any NaN
    or inf makes it inf, so a non-finite residual can never pass."""
    worst = np.max([np.max(np.abs(r), initial=0.0) for r in residuals], initial=0.0)
    return float(worst) if np.isfinite(worst) else math.inf


def _visibly_nonzero(witness) -> bool:
    """A "must be nonzero" witness counts only if all its entries are finite
    and at least 1e-6."""
    witness = np.asarray(witness)
    return bool(np.all(np.isfinite(witness) & (witness >= 1e-6)))


def _eigen_lambdas(beta, p) -> np.ndarray:
    """(lambda_+, lambda_-) stacked as (..., 2, 1), to scale rows psi_+, psi_-."""
    return np.stack(eigenvalues(beta, p), axis=-1)[..., None]


# ---------------------------------------------------------------- clifford

def check_matrix_homomorphism(cfg, rng):
    a, b = _rand_mv_pairs(rng, cfg.samples)
    lhs = to_matrix(geometric_product(a, b))
    return _worst(lhs - to_matrix(a) @ to_matrix(b),
                  decompose(to_matrix(a)) - a), cfg.samples


def check_involutions(cfg, rng):
    a, b = _rand_mv_pairs(rng, cfg.samples)
    ab = geometric_product(a, b)
    residuals = []
    for kind, matrix_form in MATRIX_INVOLUTIONS.items():
        ia, ib = involute(a, kind), involute(b, kind)
        if kind == "grade_inversion":
            want = geometric_product(ia, ib)
        else:
            want = geometric_product(ib, ia)
        residuals += [involute(ab, kind) - want,
                      involute(ia, kind) - a,
                      to_matrix(ia) - matrix_form(to_matrix(a))]
    return _worst(*residuals), cfg.samples


def check_deformed_relations(cfg, rng):
    e = momenta.cached_generators(np.array(cfg.gamma_values))[:, 1:4]
    anti = e[:, :, None] @ e[:, None, :] + e[:, None, :] @ e[:, :, None]
    return _worst(anti - 2.0 * np.eye(3)[..., None, None] * _I2), len(cfg.gamma_values)


def check_even_subalgebra(cfg, rng):
    """Products of two even deformed generators stay in the even deformed
    span; checked by undoing the similarity and decomposing into blades."""
    gammas = np.array(cfg.gamma_values)
    t = deformation_transform(gammas)[:, None, None]
    even = momenta.cached_generators(gammas)[:, [0, 4, 5, 6]]
    prod = np.linalg.inv(t) @ even[:, :, None] @ even[:, None, :] @ t
    odd = np.isin(GRADES, (1, 3))
    return _worst(decompose(prod)[..., odd]), len(cfg.gamma_values)


def check_reversed_generators(cfg, rng):
    residuals = timereversal.generator_reversal(np.array(cfg.gamma_values))
    return _worst(*residuals.values()), len(cfg.gamma_values)


# ----------------------------------------------------------------- biortho

def check_biortho_gram(cfg, rng):
    m = _complex_normal(rng, (cfg.samples, 2, 2, 2))   # per sample: seed, transform
    q, _ = np.linalg.qr(m[:, 0])
    t = m[:, 1]
    t = np.where((np.abs(np.linalg.det(t)) < 1e-3)[:, None, None], t + 2.0 * _I2, t)
    pair = biortho.build_pair(q[..., :, 0], q[..., :, 1], t)
    return _worst(pair.gram() - np.eye(2)), cfg.samples


def check_generator_synthesis(cfg, rng):
    gammas = np.array(cfg.gamma_values)
    pair = biortho.canonical_pair(np.arcsin(gammas))
    made = np.stack(biortho.synthesize_generators(pair), axis=-3)
    return _worst(made - momenta.cached_generators(gammas)[:, 1:4],
                  made @ made - _I2), len(cfg.gamma_values)


# ----------------------------------------------------------------- momenta

def check_linearization(cfg, rng):
    lin = momenta.build_linearization()
    m, m_prime = np.array(lin.m), np.array(lin.m_prime)
    # The L/N cross relations involve the three spatial M's; M4 and M5 are
    # built out of L and N themselves and join only the condensed relation.
    anti = m_prime[:, None] @ m[None, :] + m_prime[None, :] @ m[:, None]
    return _worst(
        lin.l_prime @ lin.l,
        lin.n_prime @ lin.n,
        lin.l_prime @ lin.n + lin.n_prime @ lin.l - 2 * np.eye(4),
        lin.l_prime @ m[:3] + m_prime[:3] @ lin.l,
        lin.n_prime @ m[:3] + m_prime[:3] @ lin.n,
        anti + 2.0 * np.eye(5)[..., None, None] * np.eye(4),
    ), 1


def check_factorization(cfg, rng):
    g = _gammas(rng, cfg.samples)
    shift_a = _complex_normal(rng, (cfg.samples, 3))
    p = _momenta(cfg, rng, cfg.samples)
    shift_b = np.conj(shift_a)
    pa, pb = (momenta.clifford_momentum(g, shift, p) for shift in (shift_a, shift_b))
    return _worst(momenta.momentum_product(g, shift_b, shift_a, p) - 0.5 * pb @ pa,
                  momenta.momentum_product(g, shift_a, shift_b, p) - 0.5 * pa @ pb), cfg.samples


def check_rashba_product_form(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    left, right = momenta.rashba_shifts(b, 1)
    hp = momenta.rashba(g, b, p)
    product = momenta.clifford_momentum(g, left, p) @ momenta.clifford_momentum(g, right, p)
    # reversion_matrix is the conjugate transpose
    return _worst(hp - 0.5 * product,
                  reversion_matrix(hp) - momenta.rashba(-g, b, p)), cfg.samples


def check_isospectrality(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    lam = np.array(spectrum.eigenvalue_oracle(momenta.rashba(g, b, p)))
    return _worst(*(lam - np.array(spectrum.eigenvalue_oracle(momenta.rashba(g2, b, p)))
                    for g2 in (-g, 0.0))), cfg.samples


def check_levy_leblond_system(cfg, rng):
    """The first-order pair: P^A psi + 2i eta = 0 and P^B eta - iE psi = 0
    reproduces H psi = E psi on eigenstates.  The first equation defines
    eta, so only the second is a residual."""
    g, b = _gamma_beta_pairs(cfg.gamma_values, cfg.nonzero_betas())
    p = _momenta(cfg, rng, len(g))
    psi = eigen_amplitudes(*phi_angles(g, p))[:, :2]
    shift_b, shift_a = momenta.rashba_shifts(b, 1)
    pa_psi = matvec(momenta.clifford_momentum(g, shift_a, p)[:, None], psi)
    eta = (1j / 2.0) * pa_psi                                # from P^A psi = -2i eta
    pb = momenta.clifford_momentum(g, shift_b, p)
    return _worst(matvec(pb[:, None], eta) - 1j * _eigen_lambdas(b, p) * psi), 2 * len(g)


def check_magnetic_consistency(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    a_vec, b3 = rng.normal(size=(cfg.samples, 2)), rng.normal(size=cfg.samples)
    e3g = momenta.cached_generators(g)[:, 3]
    residuals = []
    for branch in (1, -1):
        left, right = momenta.magnetic_shifts(b, a_vec, branch)
        product = momenta.clifford_momentum(g, left, p) @ momenta.clifford_momentum(g, right, p)
        residuals.append(momenta.magnetic(g, b, a_vec, b3, p, branch=branch)
                         - (0.5 * product + b3[:, None, None] * e3g))
    residuals.append(momenta.magnetic(g, b, (0.0, 0.0), 0.0, p) - momenta.rashba(g, b, p))
    return _worst(*residuals), cfg.samples


def check_magnetic_trs_convention(cfg, rng):
    """Pseudo-Hermiticity of the magnetic Hamiltonian holds under the
    field-reversal convention (A -> -A, B3 -> -B3); the fixed-field
    convention fails for generic fields.  The reported residual is the
    field-reversed one; the check additionally demands that the fixed-field
    residual stays visibly nonzero so a silent convention flip is caught."""
    n = max(cfg.samples // 4, 5)
    g, b, p = _gamma_beta_p(cfg, rng, n)
    a_vec = rng.normal(size=(n, 2)) + np.array([0.5, -0.5])
    b3 = rng.normal(size=n) + 1.0
    residuals = []
    all_visible = True
    for branch in (1, -1):
        h_p = momenta.magnetic(g, b, a_vec, b3, p, branch=branch)
        reversed_field = momenta.magnetic(g, b, -a_vec, -b3, -p, branch=branch)
        fixed_field = momenta.magnetic(g, b, a_vec, b3, -p, branch=branch)
        residuals.append(timereversal.pseudo_hermitian_residual(reversed_field, h_p))
        fixed_res = timereversal.pseudo_hermitian_residual(fixed_field, h_p)
        all_visible = all_visible and _visibly_nonzero(fixed_res)
    worst = _worst(*residuals)
    if not all_visible:
        worst = max(worst, 1.0)
    return worst, 2 * n


# ---------------------------------------------------------------- spectrum

def check_eigen_identity(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    amps = eigen_amplitudes(*phi_angles(g, p))
    psi, dual = amps[:, :2], amps[:, 2:]
    lam = _eigen_lambdas(b, p)
    h = momenta.rashba(g, b, p)
    h_dual = momenta.rashba(-g, b, p)
    return _worst(matvec(h[:, None], psi) - lam * psi,
                  matvec(h_dual[:, None], dual) - lam * dual), cfg.samples


def check_eigenvalue_oracle(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    lam_p, lam_m = eigenvalues(b, p)
    o1, o2 = spectrum.eigenvalue_oracle(momenta.rashba(g, b, p))
    return _worst(o1 - lam_p, o2 - lam_m, o1.imag, o2.imag), cfg.samples


def check_biorthogonality(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    psi_p, psi_m, dual_p, dual_m = np.moveaxis(eigen_amplitudes(*phi_angles(g, p)), 1, 0)
    a, bb = ideal.ideal_matrix(dual_m), ideal.ideal_matrix(psi_p)
    return _worst(amplitude_inner(dual_m, psi_p), amplitude_inner(dual_p, psi_m),
                  ideal.c1_form(a, bb), ideal.c2_form(a, bb)), cfg.samples


def check_projectors(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    # |e^{i phi+} + e^{i phi-}| >= 2 omega, so no drawn pair is singular
    pi1, pi2, _ = spectrum.projector_matrices(*phi_angles(g, p))
    lam_p, lam_m = eigenvalues(b, p)
    h = momenta.rashba(g, b, p)
    return _worst(
        pi1 + pi2 - _I2,
        pi1 @ pi2,
        pi1 @ pi1 - pi1,
        pi2 @ pi2 - pi2,
        lam_p[:, None, None] * pi1 + lam_m[:, None, None] * pi2 - h,
    ), cfg.samples


def check_flip_relations(cfg, rng):
    g, p = _gammas(rng, cfg.samples), _momenta(cfg, rng, cfg.samples)
    return _worst(*spectrum.flip_relations(g, p).values()), cfg.samples


def check_diagonal_momentum_angles(cfg, rng):
    """phi_pm depends only on the direction for p1 = +-p2."""
    radii = np.array([0.5, 2.0, 7.0])[:, None]
    p = radii * np.array([[[1.0, 1.0]], [[1.0, -1.0]]])          # (sign, radius, 2)
    gammas = np.array(cfg.gamma_values)[:, None, None]
    angles = np.stack(phi_angles(gammas, p), axis=-1)            # (gamma, sign, radius, 2)
    return _worst(angles[..., :1, :] - angles[..., 1:, :]), 2 * len(cfg.gamma_values)


def check_isospectral_pairs_generic(cfg, rng):
    """Random similarity deformations of Hermitian matrices with split
    spectrum: the cross left/right eigenvector inner products vanish."""
    m = _complex_normal(rng, (cfg.samples, 2, 2, 2))   # per sample: seed, similarity
    herm = m[:, 0] + reversion_matrix(m[:, 0])
    vals = np.linalg.eigvalsh(herm)
    herm = np.where((vals[:, 1] - vals[:, 0] < 0.1)[:, None, None],
                    herm + np.diag([1.0, -1.0]), herm)
    s = m[:, 1]
    s = np.where((np.abs(np.linalg.det(s)) < 1e-2)[:, None, None], s + 2.0 * _I2, s)
    h = s @ herm @ np.linalg.inv(s)
    vals_r, right = np.linalg.eig(h)
    vals_l, left = np.linalg.eig(reversion_matrix(h))
    r = np.take_along_axis(right, np.argsort(vals_r.real, axis=-1)[:, None, :], axis=-1)
    l = np.take_along_axis(left, np.argsort(vals_l.real, axis=-1)[:, None, :], axis=-1)
    return _worst(amplitude_inner(l[..., 0], r[..., 1]),
                  amplitude_inner(l[..., 1], r[..., 0])), cfg.samples


def check_spin_vector(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    amps = eigen_amplitudes(*phi_angles(g, p))
    return _worst(spectrum.spin_expectations(amps)[..., 2]), cfg.samples


def check_associated_expectation(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    amps = eigen_amplitudes(*phi_angles(g, p))
    lam_p, lam_m = eigenvalues(b, p)
    h = momenta.rashba(g, b, p)
    c = 1 / np.sqrt(2)
    return _worst(
        spectrum.mixture_expectation(1.0, 0.0, h, amps) - lam_p,
        spectrum.mixture_expectation(c, c, h, amps) - 0.5 * (lam_p + lam_m),
        spectrum.mixture_expectation(0.3, 0.7j, _I2, amps) - 1.0,
    ), cfg.samples


def check_continuity(cfg, rng):
    """Two-eigenstate superpositions on which the deformed current identity
    is exact: arbitrary mixtures at gamma = 0, and opposite-p2 momentum
    pairs at gamma != 0.  The derivatives are exact, so the residual is
    rounding only."""
    grid = [(0.3, -0.2), (1.1, 0.7), (-0.4, 0.9)]
    # the waves psi_+, psi_- at one momentum (gamma = 0), then psi_+ and
    # psi_- at momenta with opposite p2 (gamma = 0.6); beta = 1 throughout
    g = np.array([0.0, 0.0, 0.6, 0.6])
    p = np.array([[0.8, 0.5], [0.8, 0.5], [0.9, 0.4], [0.3, -0.4]])
    wave, branch = np.arange(4), np.array([0, 1, 0, 1])
    amps = eigen_amplitudes(*phi_angles(g, p))[wave, branch]
    lam = np.stack(eigenvalues(1.0, p), axis=-1)[wave, branch]
    mix = list(zip((0.7, 0.5j, 0.6, 0.8), amps, p, lam))
    cases = ((0.0, mix[:2]), (0.6, mix[2:]))
    return _worst(*(spectrum.continuity_residual(gamma, 1.0, waves, grid)
                    for gamma, waves in cases)), len(cases)


def check_gamma_zero_limit(cfg, rng):
    """At gamma = 0 everything degenerates to the Hermitian model:
    orthogonal eigenvectors, Hermitian projectors, standard time reversal."""
    b = np.array(cfg.nonzero_betas())
    p = _momenta(cfg, rng, len(b))
    phi_plus, phi_minus = phi_angles(0.0, p)
    h = momenta.rashba(0.0, b, p)
    pi1, pi2, _ = spectrum.projector_matrices(phi_plus, phi_minus)
    psi, psi_minus, dual, _ = np.moveaxis(eigen_amplitudes(phi_plus, phi_minus), 1, 0)
    return _worst(
        h - reversion_matrix(h),
        amplitude_inner(psi, psi_minus),
        pi1 - reversion_matrix(pi1),
        pi2 - reversion_matrix(pi2),
        psi - dual * amplitude_inner(dual, psi)[:, None] / amplitude_inner(dual, dual)[:, None],
    ), len(b)


# ------------------------------------------------------------ timereversal
#
# A time-reversed plane wave lives at momentum -p, a plain negation; the
# sampled checks below test the amplitude map (reverse_amplitudes).

def check_antiunitarity(cfg, rng):
    a, b = _complex_normal(rng, (2, cfg.samples, 2))
    ta, tb = timereversal.reverse_amplitudes(a), timereversal.reverse_amplitudes(b)
    return _worst(amplitude_inner(ta, tb) - amplitude_inner(b, a),
                  np.linalg.norm(ta, axis=-1) - np.linalg.norm(a, axis=-1)), cfg.samples


def check_anti_involution(cfg, rng):
    a = _complex_normal(rng, (cfg.samples, 2))
    tta = timereversal.reverse_amplitudes(timereversal.reverse_amplitudes(a))
    return _worst(tta + a), cfg.samples


def check_pseudo_hermiticity(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    residuals = [timereversal.pseudo_hermitian_residual(momenta.rashba(gg, b, -p, sign=sign),
                                                        momenta.rashba(gg, b, p, sign=sign))
                 for gg in (g, -g) for sign in (1, -1)]
    residuals.append(reversion_matrix(momenta.rashba(g, b, p)) - momenta.rashba(-g, b, p))
    return _worst(*residuals), cfg.samples


def check_kramers(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    return _worst(timereversal.kramers_pairing(g, b, p).residual), cfg.samples


def check_noncommutation_witness(cfg, rng):
    """T-conjugation leaves R^+ invariant only at gamma = 0; a detectable
    commutator for gamma != 0 is what blocks a plain degeneracy argument."""
    betas = np.array(cfg.nonzero_betas())
    p = _momenta(cfg, rng, len(betas))
    gammas = np.array(cfg.gamma_values)
    gammas = np.concatenate([[0.0], gammas[gammas != 0.0]])     # gamma = 0 first
    witness = timereversal.noncommutation_witness(gammas, betas[:, None], p[:, None])
    worst = _worst(witness[:, 0])
    if not _visibly_nonzero(witness[:, 1:]):
        worst = max(worst, 1.0)
    return worst, witness.size


def check_reversed_schrodinger(cfg, rng):
    g, b = _gamma_beta_pairs(cfg.gamma_values[:3], cfg.nonzero_betas()[:2])
    p = _momenta(cfg, rng, len(g))
    return _worst(timereversal.reversed_schrodinger_residual(g, b, p)), len(g)


# -------------------------------------------------------------------- ideal

def check_ideal_basis(cfg, rng):
    want = (
        np.array([[1, 0], [0, 0]], dtype=complex),
        np.array([[0, 0], [1j, 0]], dtype=complex),
        np.array([[0, 0], [-1, 0]], dtype=complex),
        np.array([[1j, 0], [0, 0]], dtype=complex),
    )
    gammas = np.concatenate([cfg.gamma_values, rng.uniform(-0.99, 0.99, size=10)])
    ib = ideal.build_ideal_basis(gammas)
    return _worst(*(got - ref for got, ref in zip((ib.g0, ib.g1, ib.g2, ib.g3), want)),
                  ib.g0 @ ib.g0 - ib.g0), len(gammas)


def check_left_ideal_closure(cfg, rng):
    u = _complex_normal(rng, (cfg.samples, 2, 2))
    amps = _complex_normal(rng, (cfg.samples, 2))
    prod = u @ ideal.ideal_matrix(amps)
    return _worst(prod[..., :, 1]), cfg.samples


def check_flip_consistency(cfg, rng):
    u = _complex_normal(rng, (cfg.samples, 2, 2))
    amps = _complex_normal(rng, (cfg.samples, 2))
    via_ideal = ideal.basis_flip(ideal.ideal_matrix(amps))[..., :, 0]
    via_tr = timereversal.reverse_amplitudes(amps)
    return _worst(ideal.basis_flip(ideal.basis_flip(u)) + u,
                  via_ideal - via_tr), cfg.samples


def check_inner_products(cfg, rng):
    a, b = _complex_normal(rng, (2, cfg.samples, 2))
    ia, ib = ideal.ideal_matrix(a), ideal.ideal_matrix(b)
    c1 = ideal.c1_form(ia, ib)
    return _worst(
        c1 - amplitude_inner(a, b),
        # the second product conjugates the first with swapped arguments
        ideal.c2_form(ia, ib) - np.conj(c1),
        # anti-unitarity of the flip in terms of C1
        ideal.c1_form(ideal.basis_flip(ib), ideal.basis_flip(ia)) - c1,
    ), cfg.samples


def check_invariance_groups(cfg, rng):
    m = _complex_normal(rng, (cfg.samples, 2, 2))
    a, b = _complex_normal(rng, (2, cfg.samples, 2))
    q, _ = np.linalg.qr(m)
    in_g, in_gp = ideal.invariance_group_check(q)
    ia, ib = ideal.ideal_matrix(a), ideal.ideal_matrix(b)
    rot_a, rot_b = q @ ia, q @ ib
    worst = _worst(ideal.c1_form(rot_a, rot_b) - ideal.c1_form(ia, ib),
                   ideal.c2_form(rot_a, rot_b) - ideal.c2_form(ia, ib))
    in_g_bad, _ = ideal.invariance_group_check(np.diag([2.0, 1.0]))
    if not np.all(in_g & in_gp) or in_g_bad:
        worst = max(worst, 1.0)
    return worst, cfg.samples


# --------------------------------------------------------------------- susy

def check_susy_algebra(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    tp, tm = susy.supercharges(g, b, p)
    h = susy.susy_hamiltonian(g, b, p)
    w = susy.witten_parity()
    return _worst(
        tp @ tp,
        tm @ tm,
        h[:, :2, :2] - momenta.rashba(g, b, p),
        h[:, 2:, 2:] - momenta.rashba(g, b, p, sign=-1),
        h[:, :2, 2:], h[:, 2:, :2],
        h @ tp - tp @ h,
        h @ tm - tm @ h,
        w @ w - np.eye(4),
        w @ tp + tp @ w,
        w @ tm + tm @ w,
        w @ h - h @ w,
    ), cfg.samples


def check_pseudo_susy(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    _, lm, hps = susy.pseudo_susy(g, b, p)
    s = susy.super_time_reversal()
    sharp = timereversal.pseudo_adjoint(susy.pseudo_susy(g, b, -p)[0])
    return _worst(
        hps - susy.susy_hamiltonian(g, b, p),
        *susy.intertwining_residuals(g, b, p),
        s @ s + np.eye(4),
        sharp - lm,
    ), cfg.samples


def check_susy_sector_pairing(cfg, rng):
    """Theta^- maps upper-sector eigenvectors to lower-sector ones with the
    same energy (nonzero modes)."""
    n = cfg.samples // 2 + 1
    g, b, p = _gamma_beta_p(cfg, rng, n)
    psi = eigen_amplitudes(*phi_angles(g, p))[:, :2]
    _, tm = susy.supercharges(g, b, p)
    r_minus = momenta.rashba(g, b, p, sign=-1)
    mapped = matvec(tm[:, None], np.concatenate([psi, np.zeros_like(psi)], axis=-1))[..., 2:]
    residual = matvec(r_minus[:, None], mapped) - _eigen_lambdas(b, p) * mapped
    keep = ~(np.abs(mapped).max(axis=-1) < 1e-8)      # zero modes are skipped
    return _worst(residual[keep]), n


# ------------------------------------------------------------------ registry

# (test_id, paper_ref, function, tolerance multiplier)
# An entry passes when its max_residual <= cfg.tolerance * multiplier.
# Multipliers above 1 cover rounding through eigen-solves and angles (10)
# and numpy's general eigensolver (1e4).
REGISTRY = (
    ("clifford.matrix_homomorphism", "2", check_matrix_homomorphism, 1.0),
    ("clifford.involutions", "6.2.1", check_involutions, 1.0),
    ("clifford.deformed_relations", "2", check_deformed_relations, 1.0),
    ("clifford.even_subalgebra", "2", check_even_subalgebra, 1.0),
    ("clifford.reversed_generators", "6.2.1", check_reversed_generators, 1.0),
    ("biortho.gram_identity", "2", check_biortho_gram, 1.0),
    ("biortho.generator_synthesis", "2", check_generator_synthesis, 1.0),
    ("momenta.linearization_relations", "3", check_linearization, 1.0),
    ("momenta.factorization", "4", check_factorization, 1.0),
    ("momenta.rashba_product_form", "4", check_rashba_product_form, 1.0),
    ("momenta.isospectrality", "4", check_isospectrality, 1.0),
    ("momenta.levy_leblond_system", "3", check_levy_leblond_system, 10.0),
    ("momenta.magnetic_consistency", "4", check_magnetic_consistency, 1.0),
    ("momenta.magnetic_trs_convention", "4", check_magnetic_trs_convention, 1.0),
    ("spectrum.eigen_identity", "5", check_eigen_identity, 10.0),
    ("spectrum.eigenvalue_oracle", "5", check_eigenvalue_oracle, 10.0),
    ("spectrum.biorthogonality", "5", check_biorthogonality, 1.0),
    ("spectrum.projectors", "5", check_projectors, 1.0),
    ("spectrum.flip_relations", "5", check_flip_relations, 10.0),
    ("spectrum.diagonal_momentum_angles", "5", check_diagonal_momentum_angles, 10.0),
    ("spectrum.isospectral_pairs_generic", "5", check_isospectral_pairs_generic, 1e4),
    ("spectrum.spin_vector_planar", "5", check_spin_vector, 1.0),
    ("spectrum.associated_expectation", "5", check_associated_expectation, 10.0),
    ("spectrum.continuity", "5", check_continuity, 1.0),
    ("spectrum.gamma_zero_limit", "5", check_gamma_zero_limit, 1.0),
    ("timereversal.antiunitarity", "6.1", check_antiunitarity, 1.0),
    ("timereversal.anti_involution", "6.1", check_anti_involution, 1.0),
    ("timereversal.pseudo_hermiticity", "6.1", check_pseudo_hermiticity, 1.0),
    ("timereversal.kramers_analogue", "6.1", check_kramers, 10.0),
    ("timereversal.noncommutation_witness", "6.1", check_noncommutation_witness, 1.0),
    ("timereversal.reversed_schrodinger", "6.1", check_reversed_schrodinger, 10.0),
    ("ideal.basis_reproduction", "6.2.1", check_ideal_basis, 1.0),
    ("ideal.left_ideal_closure", "6.2.1", check_left_ideal_closure, 1.0),
    ("ideal.flip_consistency", "6.2.1", check_flip_consistency, 1.0),
    ("ideal.inner_products", "6.2.2", check_inner_products, 1.0),
    ("ideal.invariance_groups", "6.2.2", check_invariance_groups, 1.0),
    ("susy.algebra", "7", check_susy_algebra, 1.0),
    ("susy.pseudo_susy", "7", check_pseudo_susy, 1.0),
    ("susy.sector_pairing", "7", check_susy_sector_pairing, 10.0),
)


def run_all(cfg: SuiteConfig) -> ConformanceReport:
    """Run every registered check, each on its own generator keyed by the
    seed and the check ID, so a check's draws depend on nothing else."""
    entries = []
    for test_id, ref, fn, tol_scale in REGISTRY:
        rng = np.random.default_rng([cfg.seed, zlib.crc32(test_id.encode())])
        residual, samples = fn(cfg, rng)
        tol = cfg.tolerance * tol_scale
        entries.append(ReportEntry(
            test_id=test_id,
            paper_ref=ref,
            status="pass" if residual <= tol else "fail",
            max_residual=float(residual),
            samples=int(samples),
        ))
    return ConformanceReport(
        entries=tuple(entries), tolerance=cfg.tolerance, seed=cfg.seed
    )
