"""The check registry: one entry per declared library invariant.

Every check is a pure function (config, rng) -> (terms, samples): ``terms``
maps the name of each sub-identity it tests to a residual array (the sample
axis first where it samples).  The runner reduces terms through :func:`worst_term`, the one
place a residual becomes a verdict, against the configured tolerance times
the check's multiplier in the registry.

Each check draws from its own generator, ``default_rng([seed,
crc32(test_id)])``, so its samples depend only on the seed and its ID: a
check gives the same numbers run alone or in any registry order.  The
runner hands ``default_rng`` the uint32 words NumPy's ``SeedSequence``
makes of that list, which gives the same stream.  A sampled
check draws each input as one array over all its samples (momenta inside
the small disc around the origin are redrawn row by row) and then
evaluates its identity once over the stack.  A "must be nonzero" witness
is an ordinary term (:func:`_nonzero_witness`).
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from .. import biortho, ideal, momenta, spectrum, timereversal
from ..multivector import (
    GRADES,
    MATRIX_INVOLUTIONS,
    amplitude_inner,
    clifford_conjugation_matrix,
    decompose,
    deformation_transform,
    deformed_generators,
    det2,
    geometric_product,
    inv2,
    involute,
    matmul2,
    matvec,
    pauli_matrix,
    reversion_matrix,
    stacked,
    to_matrix,
    unitary2,
)
from ..spectrum import eigen_amplitudes, eigenvalues, phi_angles
from .config import GAMMA_MARGIN, ConfigError, SuiteConfig
from .report import ConformanceReport, ReportEntry

_I2 = np.eye(2, dtype=complex)
_TWO_DELTA_3 = 2.0 * np.eye(3)[..., None, None] * _I2      # 2 delta_ij, (3, 3, 2, 2)
_ODD_BLADES = np.isin(GRADES, (1, 3))
_SPLIT = np.diag([1.0, -1.0])
_NONUNITARY = np.diag([2.0, 1.0])
# the momenta (sign, radius, 2) on the diagonals p1 = +-p2 at radii 0.5, 2 and 7
_DIAGONAL_MOMENTA = np.array([0.5, 2.0, 7.0])[:, None] * np.array([[[1.0, 1.0]], [[1.0, -1.0]]])
_IDEAL_BASIS = np.array([[[1, 0], [0, 0]], [[0, 0], [1j, 0]],
                         [[0, 0], [-1, 0]], [[1j, 0], [0, 0]]], dtype=complex)

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
    # lo + (hi - lo) u, the draw and the stream of rng.uniform(lo, hi, size)
    width = hi - lo
    p = lo + width * rng.random((n, 2))
    small = np.hypot(p[:, 0], p[:, 1]) <= 1e-2
    for _ in range(_REDRAW_ROUNDS):
        if not small.any():
            break
        p[small] = lo + width * rng.random((int(small.sum()), 2))
        small = np.hypot(p[:, 0], p[:, 1]) <= 1e-2
    if small.any():
        raise ConfigError(f"the momentum box lies (almost) wholly inside |p| <= 1e-2: "
                          f"{_REDRAW_ROUNDS} redraws left momenta there")
    return p


def _gamma_beta_pairs(gammas, betas) -> tuple[np.ndarray, np.ndarray]:
    """Every (gamma, beta) pair, gamma-major, as two flat arrays."""
    return stacked((np.array(gammas)[:, None], np.array(betas)), axis=-3).reshape(2, -1)


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


def worst_term(terms: dict) -> tuple[float, str | None]:
    """A check's residual and its worst term: the largest |entry| per term,
    any NaN or inf read as inf so that it can never pass.  The worst term is
    the first non-finite one in check order, else the first with the
    largest residual (0.0 and None for no terms)."""
    worst, name = 0.0, None
    for key, residual in terms.items():
        largest = float(np.abs(residual).max(initial=0.0))
        if not math.isfinite(largest):
            return math.inf, key
        if name is None or largest > worst:
            worst, name = largest, key
    return worst, name


def _nonzero_witness(witness) -> np.ndarray:
    """The term of a "must be nonzero" witness: 1.0 on each entry that is
    not finite or is below 1e-6, else 0.0."""
    witness = np.asarray(witness)
    return np.where(np.isfinite(witness) & (witness >= 1e-6), 0.0, 1.0)


def _eigen_lambdas(beta, p) -> np.ndarray:
    """(lambda_+, lambda_-) stacked as (..., 2, 1), to scale rows psi_+, psi_-."""
    return stacked(eigenvalues(beta, p))[..., None]


# ---------------------------------------------------------------- clifford

def check_matrix_homomorphism(cfg, rng):
    a, b = _rand_mv_pairs(rng, cfg.samples)
    lhs, ma, mb = to_matrix(np.array([geometric_product(a, b), a, b]))
    return {"product": lhs - matmul2(ma, mb),
            "decompose_inverts": decompose(ma) - a}, cfg.samples


def check_involutions(cfg, rng):
    a, b = _rand_mv_pairs(rng, cfg.samples)
    images = [involute(a, kind) for kind in MATRIX_INVOLUTIONS]
    images_b = [involute(b, kind) for kind in MATRIX_INVOLUTIONS]
    # a b, then the image of a b each involution predicts: ia ib for grade
    # inversion, ib ia for the two reversing ones; one call over the stack
    ab, *wants = geometric_product(np.array([a, images[0], images_b[1], images_b[2]]),
                                   np.array([b, images_b[0], images[1], images[2]]))
    ma, *m_images = to_matrix(np.array([a, *images]))
    terms = {}
    for (kind, matrix_form), ia, m_ia, want in zip(MATRIX_INVOLUTIONS.items(), images,
                                                   m_images, wants):
        terms[f"{kind}_product"] = involute(ab, kind) - want
        terms[f"{kind}_twice"] = involute(ia, kind) - a
        terms[f"{kind}_matrix"] = m_ia - matrix_form(ma)
    return terms, cfg.samples


def check_deformed_relations(cfg, rng):
    e = deformed_generators(np.array(cfg.gamma_values))[:, 1:4]
    anti = matmul2(e[:, :, None], e[:, None, :]) + matmul2(e[:, None, :], e[:, :, None])
    return {"anticommutators": anti - _TWO_DELTA_3}, len(e)


def check_even_subalgebra(cfg, rng):
    """Products of two even deformed generators stay in the even deformed
    span; checked by undoing the similarity and decomposing into blades."""
    gammas = np.array(cfg.gamma_values)
    t = deformation_transform(gammas)[:, None, None]
    even = deformed_generators(gammas)[:, [0, 4, 5, 6]]
    prod = matmul2(matmul2(matmul2(inv2(t), even[:, :, None]), even[:, None, :]), t)
    return {"odd_part": decompose(prod)[..., _ODD_BLADES]}, len(cfg.gamma_values)


def check_reversed_generators(cfg, rng):
    return timereversal.generator_reversal(np.array(cfg.gamma_values)), len(cfg.gamma_values)


# ----------------------------------------------------------------- biortho

def check_biortho_gram(cfg, rng):
    m = _complex_normal(rng, (cfg.samples, 2, 2, 2))   # per sample: seed, transform
    q = unitary2(m[:, 0])
    t = m[:, 1]
    t = np.where((np.abs(det2(t)) < 1e-3)[:, None, None], t + 2.0 * _I2, t)
    phi, chi = biortho.build_pair(q[..., :, 0], q[..., :, 1], t)
    return {"gram": biortho.gram(phi, chi) - _I2}, cfg.samples


def check_generator_synthesis(cfg, rng):
    gammas = np.array(cfg.gamma_values)
    made = biortho.synthesize_generators(gammas)
    return {"generators": made - deformed_generators(gammas)[:, 1:4],
            "squares": matmul2(made, made) - _I2}, len(cfg.gamma_values)


# ----------------------------------------------------------------- momenta

def check_linearization(cfg, rng):
    """The linearization's relations on its 2x2 factors (the module
    docstring of momenta): ELL^2 = NU^2 = 0 and {ELL, NU} = 2.  Its
    L/N-with-M_j cross relations hold for any blocks, and its M rows are
    clifford.deformed_relations plus constant M4/M5 rows."""
    ell, nu = momenta.ELL, momenta.NU
    return {"l_nilpotent": matmul2(ell, ell),
            "n_nilpotent": matmul2(nu, nu),
            "l_n_cross": matmul2(ell, nu) + matmul2(nu, ell) - 2.0 * _I2}, 1


def check_factorization(cfg, rng):
    g = _gammas(rng, cfg.samples)
    shift_a = _complex_normal(rng, (cfg.samples, 3))
    p = _momenta(cfg, rng, cfg.samples)
    shift_b = np.conj(shift_a)
    pa, pb = momenta.clifford_momentum(g, np.array([shift_a, shift_b]), p)
    h_ba, h_ab = momenta.momentum_product(g, np.array([shift_b, shift_a]),
                                          np.array([shift_a, shift_b]), p)
    return {"pb_pa": h_ba - matmul2(0.5 * pb, pa),
            "pa_pb": h_ab - matmul2(0.5 * pa, pb)}, cfg.samples


def check_rashba_product_form(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    hp = momenta.rashba(g, b, p)
    left, right = momenta.clifford_momentum(g, momenta.rashba_shifts(b), p)
    return {"product_form": hp - 0.5 * matmul2(left, right)}, cfg.samples


def check_isospectrality(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    # the oracle runs per variant: on the stack, numpy's vector loops and their
    # scalar tails meet other entries, and overflowed NaNs come out with other signs
    lam, lam_mirrored, lam_zero = (np.array(spectrum.eigenvalue_oracle(h)) for h in
                                   momenta.rashba(np.array([g, -g, np.zeros(cfg.samples)]), b, p))
    return {"mirrored_gamma": lam - lam_mirrored, "gamma_zero": lam - lam_zero}, cfg.samples


def check_levy_leblond_system(cfg, rng):
    """The first-order pair: P^A psi + 2i eta = 0 and P^B eta - iE psi = 0
    reproduces H psi = E psi on eigenstates.  The first equation defines
    eta, so only the second is a residual."""
    g, b = _gamma_beta_pairs(cfg.gamma_values, cfg.nonzero_betas())
    p = _momenta(cfg, rng, len(g))
    psi = eigen_amplitudes(*phi_angles(g, p))[:, :2]
    pb, pa = momenta.clifford_momentum(g, momenta.rashba_shifts(b), p)
    eta = (1j / 2.0) * matvec(pa[:, None], psi)              # from P^A psi = -2i eta
    residual = matvec(pb[:, None], eta) - 1j * _eigen_lambdas(b, p) * psi
    return {"second_equation": residual}, 2 * len(g)


def check_magnetic_consistency(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    a_vec, b3 = rng.normal(size=(cfg.samples, 2)), rng.normal(size=cfg.samples)
    e3g = pauli_matrix(0j, 0j, 0j, 1 + 0j, g)
    betas = np.array([b, -b])                                 # (sector, sample)
    left, right = momenta.clifford_momentum(g, momenta.magnetic_shifts(betas, a_vec), p)
    h_plus, h_minus = (momenta.magnetic(g, betas, a_vec, b3, p)
                       - (0.5 * matmul2(left, right) + b3[:, None, None] * e3g))
    return {"branch_plus": h_plus, "branch_minus": h_minus}, cfg.samples


def check_magnetic_trs_convention(cfg, rng):
    """Pseudo-Hermiticity of the magnetic Hamiltonian holds under the
    field-reversal convention (A -> -A, B3 -> -B3); the fixed-field
    convention fails for generic fields.  The field-reversed residuals are
    terms, and so is a witness that the fixed-field residual stays visibly
    nonzero, so a silent convention flip is caught."""
    n = max(cfg.samples // 4, 5)
    g, b, p = _gamma_beta_p(cfg, rng, n)
    a_vec = rng.normal(size=(n, 2)) + np.array([0.5, -0.5])
    b3 = rng.normal(size=n) + 1.0
    # the fields and momenta of H(p), the field-reversed H(-p) and the fixed-field H(-p)
    a_vecs, b3s = np.array([a_vec, -a_vec, a_vec]), np.array([b3, -b3, b3])
    ps = np.array([p, -p, -p])
    terms = {}
    both = momenta.magnetic(g, np.array([b, -b])[:, None], a_vecs, b3s, ps)
    for name, (h_p, h_reversed, h_fixed) in zip(("plus", "minus"), both):
        terms[f"reversed_field_{name}"] = timereversal.pseudo_hermitian_residual(h_reversed, h_p)
        terms[f"witness_fixed_field_{name}"] = _nonzero_witness(
            timereversal.pseudo_hermitian_residual(h_fixed, h_p))
    return terms, 2 * n


# ---------------------------------------------------------------- spectrum

def check_eigen_identity(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    amps = eigen_amplitudes(*phi_angles(g, p))
    psi, dual = amps[:, :2], amps[:, 2:]
    lam = _eigen_lambdas(b, p)
    h, h_dual = momenta.rashba(np.array([g, -g]), b, p)
    return {"right": matvec(h[:, None], psi) - lam * psi,
            "dual": matvec(h_dual[:, None], dual) - lam * dual}, cfg.samples


def check_eigenvalue_oracle(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    lam_p, lam_m = eigenvalues(b, p)
    o1, o2 = spectrum.eigenvalue_oracle(momenta.rashba(g, b, p))
    # the oracle sorts descending; lambda_+ is the lower root when beta < 0
    return {"lambda_plus": o1 - np.maximum(lam_p, lam_m),
            "lambda_minus": o2 - np.minimum(lam_p, lam_m),
            "lambda_plus_real": o1.imag, "lambda_minus_real": o2.imag}, cfg.samples


def check_biorthogonality(cfg, rng):
    """The two cross terms read exactly 0: the products in each round identically."""
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    psi_p, psi_m, dual_p, dual_m = eigen_amplitudes(*phi_angles(g, p)).swapaxes(0, 1)
    a, bb = ideal.ideal_matrix(dual_m), ideal.ideal_matrix(psi_p)
    return {"dual_minus_psi_plus": amplitude_inner(dual_m, psi_p),
            "dual_plus_psi_minus": amplitude_inner(dual_p, psi_m),
            "c1": ideal.c1_form(a, bb), "c2": ideal.c2_form(a, bb)}, cfg.samples


def check_projectors(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    # |e^{i phi+} + e^{i phi-}| >= 2 omega, so no drawn pair is singular
    pi1, pi2, _ = spectrum.projector_matrices(*phi_angles(g, p))
    lam_p, lam_m = eigenvalues(b, p)
    h = momenta.rashba(g, b, p)
    return {
        "completeness": pi1 + pi2 - _I2,
        "orthogonality": matmul2(pi1, pi2),
        "pi1_idempotent": matmul2(pi1, pi1) - pi1,
        "pi2_idempotent": matmul2(pi2, pi2) - pi2,
        "spectral_decomposition": lam_p[:, None, None] * pi1 + lam_m[:, None, None] * pi2 - h,
    }, cfg.samples


def check_flip_relations(cfg, rng):
    g, p = _gammas(rng, cfg.samples), _momenta(cfg, rng, cfg.samples)
    return spectrum.flip_relations(g, p), cfg.samples


def check_diagonal_momentum_angles(cfg, rng):
    """phi_pm depends only on the direction for p1 = +-p2."""
    gammas = np.array(cfg.gamma_values)[:, None, None]
    angles = stacked(phi_angles(gammas, _DIAGONAL_MOMENTA))       # (gamma, sign, radius, 2)
    return {"radius_independence": angles[..., :1, :] - angles[..., 1:, :]}, 2 * gammas.size


def check_isospectral_pairs_generic(cfg, rng):
    """Random similarity deformations of Hermitian matrices with split
    spectrum: the cross left/right eigenvector inner products vanish."""
    m = _complex_normal(rng, (cfg.samples, 2, 2, 2))   # per sample: seed, similarity
    herm = m[:, 0] + reversion_matrix(m[:, 0])
    high, low = spectrum.eigenvalue_oracle(herm)
    herm = np.where(((high - low).real < 0.1)[:, None, None], herm + _SPLIT, herm)
    s = m[:, 1]
    s = np.where((np.abs(det2(s)) < 1e-2)[:, None, None], s + 2.0 * _I2, s)
    h = matmul2(matmul2(s, herm), inv2(s))
    # unit eigenvectors (2, n, 2) at the higher, then the lower eigenvalue
    right, left = (spectrum.eigenvector_oracle(x, np.array(spectrum.eigenvalue_oracle(x)))
                   for x in (h, reversion_matrix(h)))
    return {"left0_right1": amplitude_inner(left[1], right[0]),
            "left1_right0": amplitude_inner(left[0], right[1])}, cfg.samples


def check_spin_vector(cfg, rng):
    """The spin vectors of the printed spinors in closed form: <sigma> =
    +-(cos phi, -sin phi, 0) for psi_pm at phi = phi_pm and for dual_pm at
    phi = phi_mp, planar throughout."""
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    phi_plus, phi_minus = phi_angles(g, p)
    spin = spectrum.spin_expectations(eigen_amplitudes(phi_plus, phi_minus))
    phi = stacked((phi_plus, phi_minus, phi_minus, phi_plus))
    want = stacked((np.cos(phi), -np.sin(phi), 0.0))
    return {"closed_form": spin - np.array([1.0, -1.0, 1.0, -1.0])[:, None] * want}, cfg.samples


def check_associated_expectation(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    amps = eigen_amplitudes(*phi_angles(g, p))
    lam_p, lam_m = eigenvalues(b, p)
    h = momenta.rashba(g, b, p)
    c = 1 / np.sqrt(2)
    return {
        "pure_plus": spectrum.mixture_expectation(1.0, 0.0, h, amps) - lam_p,
        "even_mixture": spectrum.mixture_expectation(c, c, h, amps) - 0.5 * (lam_p + lam_m),
        "identity": spectrum.mixture_expectation(0.3, 0.7j, _I2, amps) - 1.0,
    }, cfg.samples


def check_continuity(cfg, rng):
    """The pair kernel of the deformed current identity on the two pairs
    where the paper has it vanish: any two momenta at gamma = 0, and a
    momentum with a partner of opposite p2 at gamma != 0, each wave on a
    drawn branch.  The kernel is exact, so the residual is rounding only."""
    g = np.array([0.0, *_gammas(rng, 1)])                     # (case,)
    b = _betas(cfg, rng, 2)
    k = _momenta(cfg, rng, 4).reshape(2, 2, 2)                 # (case, wave, 2)
    k[1, 1, 1] = -k[1, 0, 1]
    branch = rng.integers(2, size=(2, 2))
    amps = np.take_along_axis(eigen_amplitudes(*phi_angles(g[:, None], k)),
                              branch[..., None, None], axis=-2)[..., 0, :]
    lam_p, lam_m = eigenvalues(b[:, None], k)
    residual = spectrum.continuity_residual(g, b, amps, k, np.where(branch, lam_m, lam_p))
    return {"gamma_zero_mixture": residual[0], "opposite_p2_pair": residual[1]}, 2


def check_gamma_zero_limit(cfg, rng):
    """At gamma = 0 everything degenerates to the Hermitian model:
    orthogonal eigenvectors, Hermitian projectors, standard time reversal."""
    b = np.array(cfg.nonzero_betas())
    p = _momenta(cfg, rng, len(b))
    phi_plus, phi_minus = phi_angles(0.0, p)
    h = momenta.rashba(0.0, b, p)
    pi1, pi2, _ = spectrum.projector_matrices(phi_plus, phi_minus)
    psi, psi_minus, dual, _ = eigen_amplitudes(phi_plus, phi_minus).swapaxes(0, 1)
    return {
        "hermitian_h": h - reversion_matrix(h),
        "orthogonal_psi": amplitude_inner(psi, psi_minus),
        "hermitian_pi1": pi1 - reversion_matrix(pi1),
        "hermitian_pi2": pi2 - reversion_matrix(pi2),
        "dual_is_psi": psi - dual * amplitude_inner(dual, psi)[:, None]
        / amplitude_inner(dual, dual)[:, None],
    }, len(b)


# ------------------------------------------------------------ timereversal
#
# A time-reversed plane wave lives at momentum -p, a plain negation; the
# sampled checks below test the amplitude map (reverse_amplitudes).

def check_antiunitarity(cfg, rng):
    a, b = _complex_normal(rng, (2, cfg.samples, 2))
    ta, tb = timereversal.reverse_amplitudes(a), timereversal.reverse_amplitudes(b)
    norm_ta, norm_a = np.sqrt(amplitude_inner(ta, ta).real), np.sqrt(amplitude_inner(a, a).real)
    return {"inner_product": amplitude_inner(ta, tb) - amplitude_inner(b, a),
            "norm": norm_ta - norm_a}, cfg.samples


def check_anti_involution(cfg, rng):
    a = _complex_normal(rng, (cfg.samples, 2))
    tta = timereversal.reverse_amplitudes(timereversal.reverse_amplitudes(a))
    return {"t_squared": tta + a}, cfg.samples


def check_pseudo_hermiticity(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    # H(-p), H(p) at gamma, then at -gamma, for beta and -beta
    gammas, mirrored = np.array([g, g, -g, -g]), np.array([-p, p, -p, p])
    h = dict(zip(("plus", "minus"), momenta.rashba(gammas, np.array([b, -b])[:, None], mirrored)))
    terms = {f"r_{sname}_{gname}": timereversal.pseudo_hermitian_residual(*h[sname][k:k + 2])
             for gname, k in (("gamma", 0), ("mirrored_gamma", 2)) for sname in h}
    adjoint = reversion_matrix(h["plus"][1]) - h["plus"][3]
    return {**terms, "adjoint_mirrors_gamma": adjoint}, cfg.samples


def check_kramers(cfg, rng):
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    return timereversal.kramers_pairing(g, b, p), cfg.samples


def check_noncommutation_witness(cfg, rng):
    """T-conjugation leaves R^+ invariant only at gamma = 0; a detectable
    commutator for gamma != 0 is what blocks a plain degeneracy argument."""
    betas = np.array(cfg.nonzero_betas())
    p = _momenta(cfg, rng, len(betas))
    gammas = np.array(cfg.gamma_values)
    gammas = np.concatenate([[0.0], gammas[gammas != 0.0]])     # gamma = 0 first
    witness = timereversal.noncommutation_witness(gammas, betas[:, None], p[:, None])
    return {"commutes_at_gamma_zero": witness[:, 0],
            "witness_nonzero_gamma": _nonzero_witness(witness[:, 1:])}, witness.size


def check_reversed_schrodinger(cfg, rng):
    g, b = _gamma_beta_pairs(cfg.gamma_values[:3], cfg.nonzero_betas()[:2])
    p = _momenta(cfg, rng, len(g))
    return {"reversed_eigen_identity": timereversal.reversed_schrodinger_residual(g, b, p)}, len(g)


# -------------------------------------------------------------------- ideal

def check_ideal_basis(cfg, rng):
    gammas = np.concatenate([cfg.gamma_values, rng.uniform(-0.99, 0.99, size=10)])
    g = ideal.build_ideal_basis(gammas)
    return {**{f"g{j}": g[:, j] - _IDEAL_BASIS[j] for j in range(4)},
            "g0_idempotent": matmul2(g[:, 0], g[:, 0]) - g[:, 0]}, len(gammas)


def check_left_ideal_closure(cfg, rng):
    """U ideal(a) = ideal(U a): left multiplication keeps the ideal and acts as matvec."""
    u = _complex_normal(rng, (cfg.samples, 2, 2))
    amps = _complex_normal(rng, (cfg.samples, 2))
    return {"closure": matmul2(u, ideal.ideal_matrix(amps))
            - ideal.ideal_matrix(matvec(u, amps))}, cfg.samples


def check_flip_consistency(cfg, rng):
    u = _complex_normal(rng, (cfg.samples, 2, 2))
    amps = _complex_normal(rng, (cfg.samples, 2))
    via_ideal = ideal.basis_flip(ideal.ideal_matrix(amps))[..., :, 0]
    via_tr = timereversal.reverse_amplitudes(amps)
    return {"flip_squared": ideal.basis_flip(ideal.basis_flip(u)) + u,
            "flip_is_time_reversal": via_ideal - via_tr}, cfg.samples


def check_inner_products(cfg, rng):
    a, b = _complex_normal(rng, (2, cfg.samples, 2))
    ia, ib = ideal.ideal_matrix(a), ideal.ideal_matrix(b)
    c1 = ideal.c1_form(ia, ib)
    return {
        "c1_inner": c1 - amplitude_inner(a, b),
        # the second product conjugates the first with swapped arguments
        "c2_conjugates_c1": ideal.c2_form(ia, ib) - np.conj(c1),
        # anti-unitarity of the flip in terms of C1
        "flip_antiunitary": ideal.c1_form(ideal.basis_flip(ib), ideal.basis_flip(ia)) - c1,
    }, cfg.samples


def check_invariance_groups(cfg, rng):
    m = _complex_normal(rng, (cfg.samples, 2, 2))
    a, b = _complex_normal(rng, (2, cfg.samples, 2))
    q = unitary2(m)
    defect_g, defect_gp = ideal.invariance_group_defects(q)
    ia, ib = ideal.ideal_matrix(a), ideal.ideal_matrix(b)
    rot_a, rot_b = matmul2(q, ia), matmul2(q, ib)
    defect_bad, _ = ideal.invariance_group_defects(_NONUNITARY)
    return {"c1_preserved": ideal.c1_form(rot_a, rot_b) - ideal.c1_form(ia, ib),
            "c2_preserved": ideal.c2_form(rot_a, rot_b) - ideal.c2_form(ia, ib),
            "unitary_in_g": defect_g,
            "unitary_in_gprime": defect_gp,
            "nonunitary_rejected": _nonzero_witness(defect_bad)}, cfg.samples


# --------------------------------------------------------------------- susy

def check_susy_algebra(cfg, rng):
    """H = {Theta+, Theta-} is diag((1/2) P^B P^A, (1/2) P^A P^B) for any
    blocks (see :mod:`bispinor.momenta`): the lower block against R^-.  The
    upper block is R^+, which momenta.rashba_product_form checks with the
    same operands."""
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    p_b, p_a = momenta.clifford_momentum(g, momenta.rashba_shifts(b), p)
    lower = 0.5 * matmul2(p_a, p_b)
    return {"lower_block": lower - momenta.rashba(g, -b, p)}, cfg.samples


def check_pseudo_susy(cfg, rng):
    """The Clifford conjugate of P^B(-p) is P^A(p), so Lambda- = (Lambda+)^#
    is Theta-.  With the products rashba_product_form and susy.algebra check,
    the intertwinings R^+ P^B = P^B R^- and R^- P^A = P^A R^+ are associativity."""
    g, b, p = _gamma_beta_p(cfg, rng, cfg.samples)
    p_b_minus_p, p_a = momenta.clifford_momentum(g, momenta.rashba_shifts(b), np.array([-p, p]))
    return {"pseudo_adjoint": clifford_conjugation_matrix(p_b_minus_p) - p_a}, cfg.samples


def check_susy_sector_pairing(cfg, rng):
    """Theta^- maps an upper-sector eigenvector psi to the lower-sector
    eigenvector P^A psi / sqrt 2 with the same energy (nonzero modes)."""
    n = cfg.samples // 2 + 1
    g, b, p = _gamma_beta_p(cfg, rng, n)
    psi = eigen_amplitudes(*phi_angles(g, p))[:, :2]
    p_a = momenta.clifford_momentum(g, momenta.rashba_shifts(b)[1], p)
    r_minus = momenta.rashba(g, -b, p)
    mapped = matvec(p_a[:, None], psi) / np.sqrt(2.0)
    residual = matvec(r_minus[:, None], mapped) - _eigen_lambdas(b, p) * mapped
    keep = ~(np.abs(mapped).max(axis=-1) < 1e-8)      # zero modes are skipped
    return {"eigen_identity": residual[keep]}, n


# ------------------------------------------------------------------ registry

# (test_id, paper_ref, function, tolerance multiplier)
# An entry passes when its max_residual is finite and <= cfg.tolerance * multiplier
# (finite too, as that product can overflow to inf).
# Multipliers above 1 cover rounding through eigen-solves and angles (10)
# and the closed-form eigenvectors of random non-normal similarity images,
# whose conditioning amplifies that rounding (1e4).
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
    seed and the check ID, so a check's draws depend on nothing else, and
    reduce its terms with :func:`worst_term`; a FAIL entry names its worst
    term.  A check that raises (other than a ConfigError, a usage error)
    becomes a FAIL entry with an infinite residual, no samples and the
    exception named, and the run goes on.  Floating-point warnings are
    silenced: a non-finite residual already fails its entry."""
    # default_rng([seed, crc32(test_id)])'s uint32 words: the seed's, lowest first, then the CRC
    seed_words = [(cfg.seed >> k) & 0xFFFFFFFF for k in range(0, cfg.seed.bit_length() or 1, 32)]
    entries = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for test_id, ref, fn, tol_scale in REGISTRY:
            words = np.array([*seed_words, zlib.crc32(test_id.encode())], dtype=np.uint32)
            error = None
            try:
                terms, samples = fn(cfg, np.random.default_rng(words))
                residual, term = worst_term(terms)
            except ConfigError:
                raise
            except Exception as exc:
                residual, term, samples, error = math.inf, None, 0, f"{type(exc).__name__}: {exc}"
            passed = math.isfinite(residual) and residual <= cfg.tolerance * tol_scale
            entries.append(ReportEntry(
                test_id=test_id,
                paper_ref=ref,
                status="pass" if passed else "fail",
                max_residual=residual,
                samples=int(samples),
                term=None if passed else term,
                error=error,
            ))
    return ConformanceReport(
        entries=tuple(entries), tolerance=cfg.tolerance, seed=cfg.seed
    )
