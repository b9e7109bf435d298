"""The check registry: one entry per declared library invariant.

Every check is a pure function (config, rng) -> (max_residual, samples);
the runner turns residuals into pass/fail entries against the configured
tolerance.  Angle-relation and eigenvalue checks use a relaxed internal
scale only where the spec'd tolerance differs -- the registry stores a
per-check tolerance multiplier for that purpose.
"""

from __future__ import annotations

import numpy as np

from .. import biortho, ideal, momenta, spectrum, susy, timereversal
from ..multivector import (
    MATRIX_INVOLUTIONS,
    Multivector,
    from_matrix,
    geometric_product,
    involute,
    make_deformed_basis,
    to_matrix,
)
from .config import GAMMA_MARGIN, SuiteConfig
from .report import ConformanceReport, ReportEntry

_I2 = np.eye(2, dtype=complex)


def _rand_gamma(cfg: SuiteConfig, rng) -> float:
    return float(rng.uniform(-1.0 + GAMMA_MARGIN, 1.0 - GAMMA_MARGIN))


def _rand_beta(cfg: SuiteConfig, rng) -> float:
    return float(rng.choice(cfg.nonzero_betas()))


def _rand_p(cfg: SuiteConfig, rng) -> np.ndarray:
    while True:
        p = np.array([
            rng.uniform(*cfg.p1_range),
            rng.uniform(*cfg.p2_range),
        ])
        if np.hypot(p[0], p[1]) > 1e-2:
            return p


def _rand_mv(rng) -> Multivector:
    return Multivector(tuple(rng.uniform(-2.0, 2.0, size=8)))


def _rand_matrix(rng, n=2) -> np.ndarray:
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _maxabs(m) -> float:
    return float(np.abs(m).max())


def _visibly_nonzero(witness: float) -> bool:
    """A "must be nonzero" witness counts only if finite and at least 1e-6."""
    return bool(np.isfinite(witness)) and witness >= 1e-6


# ---------------------------------------------------------------- clifford

def check_matrix_homomorphism(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        a, b = _rand_mv(rng), _rand_mv(rng)
        lhs = to_matrix(geometric_product(a, b))
        worst = max(worst, _maxabs(lhs - to_matrix(a) @ to_matrix(b)))
        worst = max(worst, _maxabs(
            from_matrix(to_matrix(a)).as_array() - a.as_array()))
    return worst, cfg.samples


def check_involutions(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        a, b = _rand_mv(rng), _rand_mv(rng)
        for kind, matrix_form in MATRIX_INVOLUTIONS.items():
            ab = geometric_product(a, b)
            if kind == "grade_inversion":
                want = geometric_product(involute(a, kind), involute(b, kind))
            else:
                want = geometric_product(involute(b, kind), involute(a, kind))
            worst = max(worst, _maxabs(
                involute(ab, kind).as_array() - want.as_array()))
            worst = max(worst, _maxabs(
                involute(involute(a, kind), kind).as_array() - a.as_array()))
            worst = max(worst, _maxabs(
                to_matrix(involute(a, kind)) - matrix_form(to_matrix(a))))
    return worst, cfg.samples


def check_deformed_relations(cfg, rng):
    worst = 0.0
    for g in cfg.gamma_values:
        e = make_deformed_basis(g).vectors
        for i in range(3):
            for j in range(3):
                anti = e[i] @ e[j] + e[j] @ e[i]
                worst = max(worst, _maxabs(anti - 2.0 * (i == j) * _I2))
    return worst, len(cfg.gamma_values)


def check_even_subalgebra(cfg, rng):
    """Products of two even deformed generators stay in the even deformed
    span; checked by undoing the similarity and decomposing into blades."""
    from ..multivector import deformation_transform

    worst = 0.0
    even = [0, 4, 5, 6]
    for g in cfg.gamma_values:
        basis = make_deformed_basis(g)
        t = deformation_transform(g)
        t_inv = np.linalg.inv(t)
        for i in even:
            for j in even:
                prod = t_inv @ basis.generators[i] @ basis.generators[j] @ t
                mv = from_matrix(prod)
                odd_part = (mv.grade(1) + mv.grade(3)).as_array()
                worst = max(worst, _maxabs(odd_part))
    return worst, len(cfg.gamma_values)


def check_reversed_generators(cfg, rng):
    worst = 0.0
    for g in cfg.gamma_values:
        rep = timereversal.generator_reversal(make_deformed_basis(g))
        worst = max(worst, rep["vector_rule"], rep["listed_set"])
    return worst, len(cfg.gamma_values)


# ----------------------------------------------------------------- biortho

def check_biortho_gram(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        q, _ = np.linalg.qr(_rand_matrix(rng))
        t = _rand_matrix(rng)
        if abs(np.linalg.det(t)) < 1e-3:
            t = t + 2.0 * _I2
        pair = biortho.build_pair(q[:, 0], q[:, 1], t)
        worst = max(worst, _maxabs(pair.gram() - np.eye(2)))
    return worst, cfg.samples


def check_generator_synthesis(cfg, rng):
    worst = 0.0
    for g in cfg.gamma_values:
        pair = biortho.canonical_pair(float(np.arcsin(g)))
        made = biortho.synthesize_generators(pair)
        want = make_deformed_basis(g).vectors
        for m, w in zip(made, want):
            worst = max(worst, _maxabs(m - w))
            worst = max(worst, _maxabs(m @ m - _I2))
    return worst, len(cfg.gamma_values)


# ----------------------------------------------------------------- momenta

def check_linearization(cfg, rng):
    lin = momenta.build_linearization()
    z4 = np.zeros((4, 4))
    worst = max(
        _maxabs(lin.l_prime @ lin.l - z4),
        _maxabs(lin.n_prime @ lin.n - z4),
        _maxabs(lin.l_prime @ lin.n + lin.n_prime @ lin.l - 2 * np.eye(4)),
    )
    # The L/N cross relations involve the three spatial M's; M4 and M5 are
    # built out of L and N themselves and join only the condensed relation.
    for i in range(3):
        worst = max(worst, _maxabs(lin.l_prime @ lin.m[i] + lin.m_prime[i] @ lin.l))
        worst = max(worst, _maxabs(lin.n_prime @ lin.m[i] + lin.m_prime[i] @ lin.n))
    for i in range(5):
        for j in range(5):
            anti = lin.m_prime[i] @ lin.m[j] + lin.m_prime[j] @ lin.m[i]
            worst = max(worst, _maxabs(anti + 2.0 * (i == j) * np.eye(4)))
    return worst, 1


def check_factorization(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        g = _rand_gamma(cfg, rng)
        shift_a = tuple(rng.normal() + 1j * rng.normal() for _ in range(3))
        shift_b = tuple(np.conj(s) for s in shift_a)
        a = momenta.CliffordMomentum(gamma=g, shift=shift_a)
        b = momenta.CliffordMomentum(gamma=g, shift=shift_b)
        h_ab, h_ba = momenta.factorize(a, b)
        p = _rand_p(cfg, rng)
        worst = max(worst, _maxabs(h_ab(p) - 0.5 * b(p) @ a(p)))
        worst = max(worst, _maxabs(h_ba(p) - 0.5 * a(p) @ b(p)))
    return worst, cfg.samples


def check_rashba_product_form(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        g, b = _rand_gamma(cfg, rng), _rand_beta(cfg, rng)
        p = _rand_p(cfg, rng)
        h = momenta.rashba(g, b, 1)
        left, right = momenta.momentum_factors(h)
        worst = max(worst, _maxabs(h(p) - 0.5 * left(p) @ right(p)))
        worst = max(worst, _maxabs(
            momenta.rashba(g, b, 1).evaluate(p).conj().T
            - momenta.rashba(-g, b, 1).evaluate(p)))
    return worst, cfg.samples


def check_isospectrality(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        g, b = _rand_gamma(cfg, rng), _rand_beta(cfg, rng)
        p = _rand_p(cfg, rng)
        lam = np.array(spectrum.eigenvalue_oracle(momenta.rashba(g, b, 1).evaluate(p)))
        for g2 in (-g, 0.0):
            lam2 = np.array(spectrum.eigenvalue_oracle(
                momenta.rashba(g2, b, 1).evaluate(p)))
            worst = max(worst, _maxabs(lam - lam2))
    return worst, cfg.samples


def check_levy_leblond_system(cfg, rng):
    """The first-order pair: P^A psi + 2i eta = 0 and P^B eta - iE psi = 0
    reproduces H psi = E psi on eigenstates."""
    worst = 0.0
    n = 0
    for g in cfg.gamma_values:
        for b in cfg.nonzero_betas():
            p = _rand_p(cfg, rng)
            es = spectrum.eigensystem(g, b, p)
            h = momenta.rashba(g, b, 1)
            left, right = momenta.momentum_factors(h)   # P^B, P^A
            for psi, energy in ((es.psi_plus, es.lambda_plus),
                                (es.psi_minus, es.lambda_minus)):
                v = psi.amplitude_array()
                eta = (1j / 2.0) * right(p) @ v          # from P^A psi = -2i eta
                worst = max(worst, _maxabs(right(p) @ v + 2j * eta))
                worst = max(worst, _maxabs(left(p) @ eta - 1j * energy * v))
                n += 1
    return worst, n


def check_magnetic_consistency(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        g, b = _rand_gamma(cfg, rng), _rand_beta(cfg, rng)
        a_vec = rng.normal(size=2)
        b3 = float(rng.normal())
        p = _rand_p(cfg, rng)
        for branch in (1, -1):
            h = momenta.magnetic(g, b, a_vec, b3, branch)
            left, right = momenta.momentum_factors(h)
            e3g = make_deformed_basis(g).generators[3]
            want = 0.5 * left(p) @ right(p) + b3 * e3g
            worst = max(worst, _maxabs(h(p) - want))
        h0 = momenta.magnetic(g, b, (0.0, 0.0), 0.0, 1)
        worst = max(worst, _maxabs(h0(p) - momenta.rashba(g, b, 1).evaluate(p)))
    return worst, cfg.samples


def check_magnetic_trs_convention(cfg, rng):
    """Pseudo-Hermiticity of the magnetic Hamiltonian holds under the
    field-reversal convention (A -> -A, B3 -> -B3); the fixed-field
    convention fails for generic fields.  The reported residual is the
    field-reversed one; the check additionally demands that the fixed-field
    residual stays visibly nonzero so a silent convention flip is caught."""
    worst = 0.0
    all_visible = True
    n = 0
    for _ in range(max(cfg.samples // 4, 5)):
        g, b = _rand_gamma(cfg, rng), _rand_beta(cfg, rng)
        a_vec = rng.normal(size=2) + np.array([0.5, -0.5])
        b3 = float(rng.normal()) + 1.0
        p = _rand_p(cfg, rng)
        for branch in (1, -1):
            h = momenta.magnetic(g, b, a_vec, b3, branch)
            h_rev = momenta.magnetic(g, b, -a_vec, -b3, branch)
            u = timereversal.TIME_REVERSAL.unitary_part
            reversed_res = _maxabs(h_rev(-p) @ u - u @ h(p).T)
            fixed_res = timereversal.pseudo_hermitian_residual(h, p)
            worst = max(worst, reversed_res)
            all_visible = all_visible and _visibly_nonzero(fixed_res)
            n += 1
    if not all_visible:
        worst = max(worst, 1.0)
    return worst, n


# ---------------------------------------------------------------- spectrum

def check_eigen_identity(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        g, b = _rand_gamma(cfg, rng), _rand_beta(cfg, rng)
        p = _rand_p(cfg, rng)
        es = spectrum.eigensystem(g, b, p)
        h = momenta.rashba(g, b, 1).evaluate(p)
        h_dual = momenta.rashba(-g, b, 1).evaluate(p)
        for psi, lam in ((es.psi_plus, es.lambda_plus),
                         (es.psi_minus, es.lambda_minus)):
            v = psi.amplitude_array()
            worst = max(worst, _maxabs(h @ v - lam * v))
        for psi, lam in ((es.dual_plus, es.lambda_plus),
                         (es.dual_minus, es.lambda_minus)):
            v = psi.amplitude_array()
            worst = max(worst, _maxabs(h_dual @ v - lam * v))
    return worst, cfg.samples


def check_eigenvalue_oracle(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        g, b = _rand_gamma(cfg, rng), _rand_beta(cfg, rng)
        p = _rand_p(cfg, rng)
        lam_p, lam_m = spectrum.eigenvalues(b, p)
        o1, o2 = spectrum.eigenvalue_oracle(momenta.rashba(g, b, 1).evaluate(p))
        worst = max(worst, abs(o1 - lam_p), abs(o2 - lam_m),
                    abs(o1.imag), abs(o2.imag))
    return worst, cfg.samples


def check_biorthogonality(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        g, b = _rand_gamma(cfg, rng), _rand_beta(cfg, rng)
        p = _rand_p(cfg, rng)
        es = spectrum.eigensystem(g, b, p)
        worst = max(
            worst,
            abs(spectrum.biortho_inner(es.dual_minus, es.psi_plus)),
            abs(spectrum.biortho_inner(es.dual_plus, es.psi_minus)),
        )
        a = ideal.to_ideal(es.dual_minus)
        bb = ideal.to_ideal(es.psi_plus)
        worst = max(worst, abs(ideal.inner_c1(a, bb)), abs(ideal.inner_c2(a, bb)))
    return worst, cfg.samples


def check_projectors(cfg, rng):
    worst = 0.0
    n = 0
    for _ in range(cfg.samples):
        g, b = _rand_gamma(cfg, rng), _rand_beta(cfg, rng)
        p = _rand_p(cfg, rng)
        es = spectrum.eigensystem(g, b, p)
        try:
            pr = spectrum.projectors(es)
        except ValueError:
            continue
        h = momenta.rashba(g, b, 1).evaluate(p)
        worst = max(
            worst,
            _maxabs(pr.pi1 + pr.pi2 - _I2),
            _maxabs(pr.pi1 @ pr.pi2),
            _maxabs(pr.pi1 @ pr.pi1 - pr.pi1),
            _maxabs(pr.pi2 @ pr.pi2 - pr.pi2),
            _maxabs(es.lambda_plus * pr.pi1 + es.lambda_minus * pr.pi2 - h),
        )
        n += 1
    return worst, n


def check_flip_relations(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        g = _rand_gamma(cfg, rng)
        p = _rand_p(cfg, rng)
        res = spectrum.flip_relations(g, p)
        worst = max(worst, *res.values())
    return worst, cfg.samples


def check_diagonal_momentum_angles(cfg, rng):
    """phi_pm depends only on the direction for p1 = +-p2."""
    worst = 0.0
    n = 0
    for g in cfg.gamma_values:
        for sign in (1.0, -1.0):
            angles = [spectrum.phi_angles(g, np.array([r, sign * r]))
                      for r in (0.5, 2.0, 7.0)]
            for other in angles[1:]:
                worst = max(worst, _maxabs(np.array(angles[0]) - np.array(other)))
            n += 1
    return worst, n


def check_isospectral_pairs_generic(cfg, rng):
    """Random similarity deformations of Hermitian matrices with split
    spectrum: the cross left/right eigenvector inner products vanish."""
    worst = 0.0
    for _ in range(cfg.samples):
        herm = _rand_matrix(rng)
        herm = herm + herm.conj().T
        vals = np.linalg.eigvalsh(herm)
        if vals[1] - vals[0] < 0.1:
            herm = herm + np.diag([1.0, -1.0])
        s = _rand_matrix(rng)
        if abs(np.linalg.det(s)) < 1e-2:
            s = s + 2.0 * _I2
        h = s @ herm @ np.linalg.inv(s)
        _, right = np.linalg.eig(h)
        vals_l, left = np.linalg.eig(h.conj().T)
        order_r = np.argsort(np.linalg.eig(h)[0].real)
        order_l = np.argsort(vals_l.real)
        r = right[:, order_r]
        l = left[:, order_l]
        worst = max(worst, abs(np.vdot(l[:, 0], r[:, 1])),
                    abs(np.vdot(l[:, 1], r[:, 0])))
    return worst, cfg.samples


def check_spin_vector(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        g, b = _rand_gamma(cfg, rng), _rand_beta(cfg, rng)
        p = _rand_p(cfg, rng)
        es = spectrum.eigensystem(g, b, p)
        for psi in (es.psi_plus, es.psi_minus, es.dual_plus, es.dual_minus):
            worst = max(worst, abs(spectrum.spin_vector(psi)[2]))
    return worst, cfg.samples


def check_associated_expectation(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        g, b = _rand_gamma(cfg, rng), _rand_beta(cfg, rng)
        p = _rand_p(cfg, rng)
        es = spectrum.eigensystem(g, b, p)
        h = momenta.rashba(g, b, 1).evaluate(p)
        worst = max(worst, abs(
            spectrum.associated_expectation(1.0, 0.0, h, es) - es.lambda_plus))
        worst = max(worst, abs(
            spectrum.associated_expectation(1 / np.sqrt(2), 1 / np.sqrt(2), h, es)
            - 0.5 * (es.lambda_plus + es.lambda_minus)))
        worst = max(worst, abs(
            spectrum.associated_expectation(0.3, 0.7j, _I2, es) - 1.0))
    return worst, cfg.samples


def check_continuity(cfg, rng):
    """Two-eigenstate superpositions on which the deformed current identity
    is exact: arbitrary mixtures at gamma = 0, and opposite-p2 momentum
    pairs at gamma != 0.  Residual dominated by discretization error."""
    grid = [(0.3, -0.2), (1.1, 0.7), (-0.4, 0.9)]
    dt = dx = 1e-3
    worst = 0.0
    cases = []
    es = spectrum.eigensystem(0.0, 1.0, np.array([0.8, 0.5]))
    cases.append((0.0, 1.0, [
        (0.7, es.psi_plus, es.lambda_plus),
        (0.5j, es.psi_minus, es.lambda_minus),
    ]))
    g = 0.6
    es1 = spectrum.eigensystem(g, 1.0, np.array([0.9, 0.4]))
    es2 = spectrum.eigensystem(g, 1.0, np.array([0.3, -0.4]))
    cases.append((g, 1.0, [
        (0.6, es1.psi_plus, es1.lambda_plus),
        (0.8, es2.psi_minus, es2.lambda_minus),
    ]))
    for gamma, beta, mix in cases:
        worst = max(worst, spectrum.continuity_residual(
            gamma, beta, mix, grid, dt, dx))
    return worst, len(cases)


def check_gamma_zero_limit(cfg, rng):
    """At gamma = 0 everything degenerates to the Hermitian model:
    orthogonal eigenvectors, Hermitian projectors, standard time reversal."""
    worst = 0.0
    for b in cfg.nonzero_betas():
        p = _rand_p(cfg, rng)
        es = spectrum.eigensystem(0.0, b, p)
        h = momenta.rashba(0.0, b, 1).evaluate(p)
        worst = max(worst, _maxabs(h - h.conj().T))
        worst = max(worst, abs(np.vdot(es.psi_plus.amplitude_array(),
                                       es.psi_minus.amplitude_array())))
        pr = spectrum.projectors(es)
        worst = max(worst, _maxabs(pr.pi1 - pr.pi1.conj().T))
        worst = max(worst, _maxabs(pr.pi2 - pr.pi2.conj().T))
        worst = max(worst, _maxabs(
            es.psi_plus.amplitude_array() - es.dual_plus.amplitude_array() *
            np.vdot(es.dual_plus.amplitude_array(), es.psi_plus.amplitude_array())
            / np.vdot(es.dual_plus.amplitude_array(), es.dual_plus.amplitude_array())
        ))
    return worst, len(cfg.nonzero_betas())


# ------------------------------------------------------------ timereversal

def check_antiunitarity(cfg, rng):
    worst = 0.0
    tr = timereversal.TIME_REVERSAL
    for _ in range(cfg.samples):
        p = _rand_p(cfg, rng)
        a = spectrum.FiniteSpinor(tuple(rng.normal(size=2) + 1j * rng.normal(size=2)),
                                  tuple(p))
        b = spectrum.FiniteSpinor(tuple(rng.normal(size=2) + 1j * rng.normal(size=2)),
                                  tuple(p))
        ta, tb = tr(a), tr(b)
        worst = max(worst, abs(
            np.vdot(ta.amplitude_array(), tb.amplitude_array())
            - np.vdot(b.amplitude_array(), a.amplitude_array())))
        norm_diff = abs(np.linalg.norm(ta.amplitude_array())
                        - np.linalg.norm(a.amplitude_array()))
        worst = max(worst, norm_diff)
    return worst, cfg.samples


def check_anti_involution(cfg, rng):
    worst = 0.0
    tr = timereversal.TIME_REVERSAL
    for _ in range(cfg.samples):
        p = _rand_p(cfg, rng)
        a = spectrum.FiniteSpinor(tuple(rng.normal(size=2) + 1j * rng.normal(size=2)),
                                  tuple(p))
        tta = tr(tr(a))
        worst = max(worst, _maxabs(tta.amplitude_array() + a.amplitude_array()))
        worst = max(worst, _maxabs(np.array(tta.momentum) - np.array(a.momentum)))
    return worst, cfg.samples


def check_pseudo_hermiticity(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        g, b = _rand_gamma(cfg, rng), _rand_beta(cfg, rng)
        p = _rand_p(cfg, rng)
        for gg in (g, -g):
            for sign in (1, -1):
                h = momenta.rashba(gg, b, sign)
                worst = max(worst, timereversal.pseudo_hermitian_residual(h, p))
        worst = max(worst, _maxabs(
            momenta.rashba(g, b, 1).evaluate(p).conj().T
            - momenta.rashba(-g, b, 1).evaluate(p)))
    return worst, cfg.samples


def check_kramers(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        g, b = _rand_gamma(cfg, rng), _rand_beta(cfg, rng)
        p = _rand_p(cfg, rng)
        es = spectrum.eigensystem(g, b, p)
        worst = max(worst, timereversal.kramers_analogue(es).residual)
    return worst, cfg.samples


def check_noncommutation_witness(cfg, rng):
    """T-conjugation leaves R^+ invariant only at gamma = 0; a detectable
    commutator for gamma != 0 is what blocks a plain degeneracy argument."""
    worst = 0.0
    all_visible = True
    n = 0
    for b in cfg.nonzero_betas():
        p = _rand_p(cfg, rng)
        worst = max(worst, timereversal.noncommutation_witness(0.0, b, p))
        for g in cfg.gamma_values:
            if g == 0.0:
                continue
            witness = timereversal.noncommutation_witness(g, b, p)
            all_visible = all_visible and _visibly_nonzero(witness)
            n += 1
    if not all_visible:
        worst = max(worst, 1.0)
    return worst, n + len(cfg.nonzero_betas())


def check_reversed_schrodinger(cfg, rng):
    worst = 0.0
    n = 0
    for g in cfg.gamma_values[:3]:
        for b in cfg.nonzero_betas()[:2]:
            p = _rand_p(cfg, rng)
            h = momenta.rashba(g, b, 1)
            r1 = timereversal.reversed_schrodinger_check(h, p, dt=1e-4)
            r2 = timereversal.reversed_schrodinger_check(h, p, dt=5e-5)
            worst = max(worst, r1)
            # second-order differencing: halving dt should at least halve the
            # residual whenever it sits above the rounding floor
            if r1 > 1e-10 and not (r2 <= r1 / 2.0):
                worst = max(worst, 1.0)
            n += 1
    return worst, n


# -------------------------------------------------------------------- ideal

def check_ideal_basis(cfg, rng):
    worst = 0.0
    want = (
        np.array([[1, 0], [0, 0]], dtype=complex),
        np.array([[0, 0], [1j, 0]], dtype=complex),
        np.array([[0, 0], [-1, 0]], dtype=complex),
        np.array([[1j, 0], [0, 0]], dtype=complex),
    )
    gammas = list(cfg.gamma_values) + [float(x) for x in
                                       rng.uniform(-0.99, 0.99, size=10)]
    for g in gammas:
        ib = ideal.build_ideal_basis(make_deformed_basis(g))
        for got, ref in zip((ib.g0, ib.g1, ib.g2, ib.g3), want):
            worst = max(worst, _maxabs(got - ref))
        worst = max(worst, _maxabs(ib.g0 @ ib.g0 - ib.g0))
    return worst, len(gammas)


def check_left_ideal_closure(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        u = _rand_matrix(rng)
        p = _rand_p(cfg, rng)
        amps = tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
        s = ideal.to_ideal(spectrum.FiniteSpinor(amps, tuple(p)))
        prod = u @ s.matrix
        worst = max(worst, _maxabs(prod[:, 1]))
    return worst, cfg.samples


def check_flip_consistency(cfg, rng):
    worst = 0.0
    tr = timereversal.TIME_REVERSAL
    for _ in range(cfg.samples):
        u = _rand_matrix(rng)
        worst = max(worst, _maxabs(ideal.basis_flip(ideal.basis_flip(u)) + u))
        p = _rand_p(cfg, rng)
        amps = tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
        psi = spectrum.FiniteSpinor(amps, tuple(p))
        via_ideal = ideal.from_ideal(ideal.flip_spinor(ideal.to_ideal(psi)))
        via_tr = tr(psi)
        worst = max(worst, _maxabs(
            via_ideal.amplitude_array() - via_tr.amplitude_array()))
        worst = max(worst, _maxabs(
            np.array(via_ideal.momentum) - np.array(via_tr.momentum)))
    return worst, cfg.samples


def check_inner_products(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        p = _rand_p(cfg, rng)
        a_amp = tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
        b_amp = tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
        fa = spectrum.FiniteSpinor(a_amp, tuple(p))
        fb = spectrum.FiniteSpinor(b_amp, tuple(p))
        ia, ib = ideal.to_ideal(fa), ideal.to_ideal(fb)
        worst = max(worst, abs(
            ideal.inner_c1(ia, ib) - spectrum.biortho_inner(fa, fb)))
        # the second product conjugates the first with swapped arguments
        worst = max(worst, abs(
            ideal.inner_c2(ia, ib) - np.conj(ideal.inner_c1(ia, ib))))
        # anti-unitarity of the flip in terms of C1
        fla, flb = ideal.flip_spinor(ia), ideal.flip_spinor(ib)
        worst = max(worst, abs(
            ideal.inner_c1(flb, fla) - ideal.inner_c1(ia, ib)))
    return worst, cfg.samples


def check_invariance_groups(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        q, _ = np.linalg.qr(_rand_matrix(rng))
        in_g, in_gp = ideal.invariance_group_check(q)
        if not (in_g and in_gp):
            worst = max(worst, 1.0)
        p = _rand_p(cfg, rng)
        a_amp = tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
        b_amp = tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
        ia = ideal.to_ideal(spectrum.FiniteSpinor(a_amp, tuple(p)))
        ib = ideal.to_ideal(spectrum.FiniteSpinor(b_amp, tuple(p)))
        rot_a = ideal.IdealSpinor(q @ ia.matrix, ia.momentum, ia.wave_sign)
        rot_b = ideal.IdealSpinor(q @ ib.matrix, ib.momentum, ib.wave_sign)
        worst = max(worst, abs(
            ideal.inner_c1(rot_a, rot_b) - ideal.inner_c1(ia, ib)))
        worst = max(worst, abs(
            ideal.inner_c2(rot_a, rot_b) - ideal.inner_c2(ia, ib)))
        in_g_bad, _ = ideal.invariance_group_check(np.diag([2.0, 1.0]))
        if in_g_bad:
            worst = max(worst, 1.0)
    return worst, cfg.samples


# --------------------------------------------------------------------- susy

def check_susy_algebra(cfg, rng):
    worst = 0.0
    z4 = np.zeros((4, 4))
    for _ in range(cfg.samples):
        g, b = _rand_gamma(cfg, rng), _rand_beta(cfg, rng)
        p = _rand_p(cfg, rng)
        tp, tm = susy.supercharges(g, b, p)
        h = susy.susy_hamiltonian(g, b, p)
        w = susy.witten_parity()
        worst = max(
            worst,
            _maxabs(tp @ tp - z4),
            _maxabs(tm @ tm - z4),
            _maxabs(h[:2, :2] - momenta.rashba(g, b, 1).evaluate(p)),
            _maxabs(h[2:, 2:] - momenta.rashba(g, b, -1).evaluate(p)),
            _maxabs(h[:2, 2:]), _maxabs(h[2:, :2]),
            _maxabs(h @ tp - tp @ h),
            _maxabs(h @ tm - tm @ h),
            _maxabs(w @ w - np.eye(4)),
            _maxabs(w @ tp + tp @ w),
            _maxabs(w @ tm + tm @ w),
            _maxabs(w @ h - h @ w),
        )
    return worst, cfg.samples


def check_pseudo_susy(cfg, rng):
    worst = 0.0
    for _ in range(cfg.samples):
        g, b = _rand_gamma(cfg, rng), _rand_beta(cfg, rng)
        p = _rand_p(cfg, rng)
        lp, lm, hps = susy.pseudo_susy(g, b, p)
        h = susy.susy_hamiltonian(g, b, p)
        worst = max(worst, _maxabs(hps - h))
        r1, r2 = susy.intertwining_residuals(g, b, p)
        worst = max(worst, r1, r2)
        s = susy.super_time_reversal()
        worst = max(worst, _maxabs(s @ s + np.eye(4)))
        sharp = timereversal.pseudo_adjoint(
            lambda q, gg=g, bb=b: susy.pseudo_susy(gg, bb, q)[0], p)
        worst = max(worst, _maxabs(sharp - lm))
    return worst, cfg.samples


def check_susy_sector_pairing(cfg, rng):
    """Theta^- maps upper-sector eigenvectors to lower-sector ones with the
    same energy (nonzero modes)."""
    worst = 0.0
    for _ in range(cfg.samples // 2 + 1):
        g, b = _rand_gamma(cfg, rng), _rand_beta(cfg, rng)
        p = _rand_p(cfg, rng)
        es = spectrum.eigensystem(g, b, p)
        _, tm = susy.supercharges(g, b, p)
        r_minus = momenta.rashba(g, b, -1).evaluate(p)
        for psi, lam in ((es.psi_plus, es.lambda_plus),
                         (es.psi_minus, es.lambda_minus)):
            v4 = np.concatenate([psi.amplitude_array(), np.zeros(2)])
            mapped = (tm @ v4)[2:]
            if np.abs(mapped).max() < 1e-8:
                continue
            worst = max(worst, _maxabs(r_minus @ mapped - lam * mapped))
    return worst, cfg.samples // 2 + 1


# ------------------------------------------------------------------ registry

# (test_id, paper_ref, function, tolerance multiplier)
# An entry passes when its max_residual <= cfg.tolerance * multiplier.
# Multipliers above 1 cover rounding through eigen-solves and angles (10),
# the finite-difference steps of the continuity and reversed-Schroedinger
# checks (1e7, 1e6) and numpy's general eigensolver (1e4).
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
    ("spectrum.continuity", "5", check_continuity, 1e7),
    ("spectrum.gamma_zero_limit", "5", check_gamma_zero_limit, 1.0),
    ("timereversal.antiunitarity", "6.1", check_antiunitarity, 1.0),
    ("timereversal.anti_involution", "6.1", check_anti_involution, 1.0),
    ("timereversal.pseudo_hermiticity", "6.1", check_pseudo_hermiticity, 1.0),
    ("timereversal.kramers_analogue", "6.1", check_kramers, 10.0),
    ("timereversal.noncommutation_witness", "6.1", check_noncommutation_witness, 1.0),
    ("timereversal.reversed_schrodinger", "6.1", check_reversed_schrodinger, 1e6),
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
    """Run every registered check with a PRNG derived from the seed."""
    rng = np.random.default_rng(cfg.seed)
    entries = []
    for test_id, ref, fn, tol_scale in REGISTRY:
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
