"""Exact symbolic proofs of the closed-form map, of the momentum product, of
the SUSY block identities and of the continuity pair kernel, checked against
the library.

For gamma = sin(theta) with |theta| < pi/2 (so omega = sqrt(1 - gamma^2) =
cos(theta)), the similarity witness is T = cos(theta/2) + sin(theta/2) sigma_2
and the multivector s + v.e^gamma is T (s + v.sigma) T^-1.  sympy proves that
this equals the closed form :func:`bispinor.multivector.pauli_matrix`
evaluates (behind :func:`~bispinor.multivector.to_matrix`), for symbolic
complex s and v, and that the closed form at s = l.r / 2 and
v = (i/2) l x r is (1/2) P_l P_r, the product of the two shifted Clifford
momenta that :func:`bispinor.momenta.momentum_product` evaluates.  For
symbolic p, A, B3 and real beta of either sign (the sign of beta is the
Rashba sector), it proves that (1/2) P_l P_r + B3 e3^gamma with
l, r = p + A +- i beta e3 is the real closed form
:func:`bispinor.momenta.magnetic` evaluates (and
:func:`~bispinor.momenta.rashba` at A = 0, B3 = 0).

For symbolic 2x2 blocks P^A and P^B, sympy also proves that the supercharges
Theta+ = offdiag-upper(P^B) / sqrt 2 and Theta- = offdiag-lower(P^A) / sqrt 2
anticommute to diag((1/2) P^B P^A, (1/2) P^A P^B) and commute with it, so
[H, Theta+-] = 0 holds for any blocks and needs no sampled check, and that
the intertwinings follow from the block products.  It proves that the
T-pseudo-adjoint U X^T U^-1 (U = e13) of a symbolic 2x2 X is its adjugate,
the Clifford conjugate :func:`~bispinor.multivector.clifford_conjugation_matrix`
forms; and, for symbolic gamma, p and beta, that (P^B)^#(p) = P^A(p), so the
pseudo-SUSY charge Lambda- = (Lambda+)^# is Theta-.

For the first-order (Levy-Leblond) linearization, sympy builds L, N and
M_1..M_5 with their primes from Lambda = offdiag(1, 1), Gamma4 =
diag(1, 1, -1, -1) and symbolic spatial blocks e_j, and proves that
L = L' = -i E21 (x) 1, N = N' = 2i E12 (x) 1 and M_j = diag(e_j, e_j) = -M_j';
that L'L = 0, N'N = 0, L'N + N'L = 2 and the M4/M5 relations hold exactly;
and that the cross relations hold for any blocks, with
M_i'M_j + M_j'M_i = -diag({e_i, e_j}, {e_i, e_j}), which the closed-form
generators turn into -2 delta_ij at every theta.
At the library's deformed generators, the proof's matrices equal the
Kronecker products of the library's 2x2 factors
:data:`bispinor.momenta.ELL` and :data:`~bispinor.momenta.NU` with the
identity, and of the identity with e_j.

For the continuity identity of the deformed Rashba current, sympy proves
that d(rho)/dt + div<J> of a pair psi = c a e^{i theta} + c' b e^{i theta'}
(theta = k.x - E t), built from the current's definition with symbolic
derivatives, is 2 Re[conj(c) c' e^{i(theta' - theta)} i K] for symbolic
a, b, c, c', real k, k', E, E', beta, x, t and omega > 0, with K the pair
kernel :func:`bispinor.spectrum.continuity_residual` evaluates.  So the
kernel is the residual's envelope over x, t and the coefficients, and the
check needs no grid.  sympy stays a test-only dependency.
"""

import numpy as np
import pytest
import sympy as sp

from bispinor.momenta import (
    ELL,
    NU,
    clifford_momentum,
    magnetic,
    momentum_product,
    rashba,
    rashba_shifts,
)
from bispinor.multivector import clifford_conjugation_matrix, deformed_generators, to_matrix
from bispinor.spectrum import continuity_residual

C, S = sp.symbols("c s", real=True)               # cos(theta/2), sin(theta/2)
SCALAR, V1, V2, V3 = sp.symbols("scalar v1 v2 v3")  # complex
I2 = sp.eye(2)
PAULI = (sp.Matrix([[0, 1], [1, 0]]), sp.Matrix([[0, -sp.I], [sp.I, 0]]),
         sp.Matrix([[1, 0], [0, -1]]))


def similarity_image() -> sp.Matrix:
    """T (s + v.sigma) T^-1 with T = c + s sigma_2 (det T = c^2 - s^2)."""
    t = C * I2 + S * PAULI[1]
    m = SCALAR * I2 + V1 * PAULI[0] + V2 * PAULI[1] + V3 * PAULI[2]
    return t * m * t.adjugate() / t.det()


def closed_form() -> sp.Matrix:
    """The library's matrix with gamma = sin(theta) = 2cs and
    omega = cos(theta) = c^2 - s^2."""
    omega = C**2 - S**2
    a, b = 1 / omega, sp.I * 2 * C * S / omega
    diag, off = a * V3 - b * V1, a * V1 + b * V3
    return sp.Matrix([[SCALAR + diag, off - sp.I * V2],
                      [off + sp.I * V2, SCALAR - diag]])


def test_closed_form_is_the_similarity_image():
    # omega (image - closed form) is a polynomial in c and s; it vanishes
    # modulo c^2 + s^2 = 1, i.e. for every theta
    omega = C**2 - S**2
    diff = (similarity_image() - closed_form()) * omega
    for entry in diff:
        numerator = sp.expand(sp.cancel(entry))
        assert sp.expand(sp.rem(numerator, S**2 + C**2 - 1, S)) == 0


@pytest.mark.parametrize("gamma", [0.0, 0.6, -0.93])
def test_library_matches_the_proof(gamma):
    # complex coefficients (the complexified algebra), so s and v are
    # arbitrary complex numbers
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
    half = np.arcsin(gamma) / 2.0
    image = sp.lambdify((SCALAR, V1, V2, V3),
                        similarity_image().subs({C: np.cos(half), S: np.sin(half)}))
    for row, got in zip(a, to_matrix(a, gamma)):
        s, v1, v2, v3 = (row[0] + 1j * row[7], row[1] + 1j * row[5],
                         row[2] + 1j * row[6], row[3] + 1j * row[4])
        want = np.array(image(s, v1, v2, v3), dtype=complex)
        assert np.abs(got - want).max() < 1e-13 * (1 + np.abs(row).max()) / (1 - gamma**2)


# ---------------------------------------------------- the momentum product

L = sp.symbols("l1:4")                            # complex l = p + left shift
R = sp.symbols("r1:4")                            # complex r = p + right shift


def similarity(m) -> sp.Matrix:
    """T m T^-1 with T = c + s sigma_2."""
    t = C * I2 + S * PAULI[1]
    return t * m * t.adjugate() / t.det()


def clifford_momentum_of(q) -> sp.Matrix:
    """The deformed 1-blade q.e^gamma = T (q.sigma) T^-1."""
    return similarity(sum((x * sigma for x, sigma in zip(q, PAULI)), sp.zeros(2)))


def product_form(l, r) -> sp.Matrix:
    """(1/2) P_l P_r, each factor the similarity image of its Pauli matrix,
    P_l = T (l.sigma) T^-1."""
    return clifford_momentum_of(l) * clifford_momentum_of(r) / 2


def closed_form_at(s, v) -> sp.Matrix:
    """The library's closed form at the scalar s and the vector v."""
    return closed_form().subs({SCALAR: s, V1: v[0], V2: v[1], V3: v[2]}, simultaneous=True)


def momentum_closed_form() -> sp.Matrix:
    """The closed form at s = l.r / 2 and v = (i/2) l x r."""
    cross = (L[1] * R[2] - L[2] * R[1], L[2] * R[0] - L[0] * R[2], L[0] * R[1] - L[1] * R[0])
    return closed_form_at((L[0] * R[0] + L[1] * R[1] + L[2] * R[2]) / 2,
                          [sp.I * x / 2 for x in cross])


def holds_for_every_theta(difference) -> bool:
    """The numerator of each entry vanishes modulo c^2 + s^2 = 1, so the
    difference is zero for every theta."""
    return all(sp.expand(sp.rem(sp.expand(sp.numer(sp.together(entry))), S**2 + C**2 - 1, S)) == 0
               for entry in difference)


def test_momentum_product_is_half_the_product_of_the_momenta():
    assert holds_for_every_theta(momentum_closed_form() - product_form(L, R))


@pytest.mark.parametrize("gamma", [0.0, 0.45, -0.8])
def test_momentum_product_matches_the_proof(gamma):
    rng = np.random.default_rng(11)
    n = 4
    p = rng.normal(size=(n, 2))
    left = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    right = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    half = np.arcsin(gamma) / 2.0
    image = sp.lambdify((*L, *R), product_form(L, R).subs({C: np.cos(half), S: np.sin(half)}))
    got = momentum_product(gamma, left, right, p)
    p3 = np.concatenate([p, np.zeros((n, 1))], axis=-1)
    for l, r, h in zip(p3 + left, p3 + right, got):
        want = np.array(image(*l, *r), dtype=complex)
        scale = 1 + np.abs(l).max() * np.abs(r).max()
        assert np.abs(h - want).max() < 1e-13 * scale / (1 - gamma**2)


# ------------------------------------------- the magnetic closed form

P1, P2, BETA = sp.symbols("p1 p2 beta", real=True)
A1, A2, B3 = sp.symbols("a1 a2 b3", real=True)    # the gauge shift A and the Zeeman term


def magnetic_product() -> sp.Matrix:
    """(1/2) P_l P_r + B3 e3^gamma with l, r = p + A +- i beta e3."""
    u, w = P1 + A1, P2 + A2
    return product_form((u, w, sp.I * BETA), (u, w, -sp.I * BETA)) + B3 * similarity(PAULI[2])


def magnetic_closed_form() -> sp.Matrix:
    """s = ((p1+A1)^2 + (p2+A2)^2 + beta^2) / 2 and
    v = (beta (p2+A2), -beta (p1+A1), B3)."""
    u, w = P1 + A1, P2 + A2
    return closed_form_at((u**2 + w**2 + BETA**2) / 2, (BETA * w, -BETA * u, B3))


@pytest.mark.parametrize("sector", [1, -1])
def test_magnetic_is_the_closed_form_of_the_product(sector):
    # the sector is the sign of beta: prove each with beta = sector * |beta|
    size = sp.Symbol("beta_size", positive=True)
    difference = magnetic_closed_form() - magnetic_product()
    assert holds_for_every_theta(difference.subs(BETA, sector * size))


@pytest.mark.parametrize("gamma, beta, a_vec, b3, p", [(0.0, 1.0, (0.0, 0.0), 0.0, (0.3, -1.2)),
                                                       (0.6, 2.5, (0.4, -0.7), 1.3, (-2.0, 0.4)),
                                                       (-0.9, -0.6, (-1.1, 0.2), -0.8, (1.5, 1.5))])
def test_magnetic_matches_the_proof(gamma, beta, a_vec, b3, p):
    half = np.arcsin(gamma) / 2.0
    image = sp.lambdify((P1, P2, A1, A2, BETA, B3), magnetic_product().subs(
        {C: np.cos(half), S: np.sin(half)}))
    for b in (beta, -beta):                       # both sectors
        want = np.array(image(*p, *a_vec, b, b3), dtype=complex)
        got = magnetic(gamma, b, a_vec, b3, np.array(p))
        scale = 1 + (np.abs(p).max() + np.abs(a_vec).max() + abs(beta)) ** 2 + abs(b3)
        assert np.abs(got - want).max() < 1e-13 * scale / (1 - gamma**2)


# ----------------------------------------------------- the SUSY identities

A_BLOCK = sp.Matrix(2, 2, sp.symbols("a:4"))      # complex P^A
B_BLOCK = sp.Matrix(2, 2, sp.symbols("b:4"))      # complex P^B


def offdiag(upper, lower) -> sp.Matrix:
    """[[0, upper], [lower, 0]] of 2x2 blocks."""
    return sp.Matrix(sp.BlockMatrix([[sp.zeros(2), upper], [lower, sp.zeros(2)]]))


def supercharges_of_blocks() -> tuple[sp.Matrix, sp.Matrix]:
    """Theta+ = offdiag-upper(P^B) / sqrt 2 and Theta- = offdiag-lower(P^A) / sqrt 2."""
    return (offdiag(B_BLOCK, sp.zeros(2)) / sp.sqrt(2),
            offdiag(sp.zeros(2), A_BLOCK) / sp.sqrt(2))


def test_susy_hamiltonian_is_the_block_diagonal_of_the_two_products():
    # for any blocks, so susy.algebra tests the 4x4 layout and the lower
    # block R^- = (1/2) P^A P^B, not [H, Theta+-] = 0
    tp, tm = supercharges_of_blocks()
    h = tp * tm + tm * tp
    assert sp.expand(h - sp.diag(B_BLOCK * A_BLOCK / 2, A_BLOCK * B_BLOCK / 2)) == sp.zeros(4)
    for q in (tp, tm):
        assert sp.expand(h * q - q * h) == sp.zeros(4)


def test_intertwinings_hold_for_any_blocks():
    # with R^+ = (1/2) P^B P^A, R^- = (1/2) P^A P^B and (P^B)^# = P^A,
    # R^+ P^B = P^B R^- and R^- (P^B)^# = (P^B)^# R^+ are associativity
    r_plus, r_minus = B_BLOCK * A_BLOCK / 2, A_BLOCK * B_BLOCK / 2
    assert sp.expand(r_plus * B_BLOCK - B_BLOCK * r_minus) == sp.zeros(2)
    assert sp.expand(r_minus * A_BLOCK - A_BLOCK * r_plus) == sp.zeros(2)


@pytest.mark.parametrize("gamma, beta, p", [(0.0, 1.0, (0.3, -1.2)),
                                            (0.7, 2.5, (-2.0, 0.4)),
                                            (-0.9, 0.6, (1.5, 1.5))])
def test_supercharges_match_the_proof(gamma, beta, p):
    # the proof's H = {Theta+, Theta-} at the library's blocks P^B, P^A has
    # the library's R^+ and R^- on its diagonal and nothing off it
    p_b, p_a = clifford_momentum(gamma, rashba_shifts(beta), np.array(p))
    tp, tm = supercharges_of_blocks()
    blocks = (*A_BLOCK, *B_BLOCK)
    want_h = np.array(sp.lambdify(blocks, tp * tm + tm * tp)(*p_a.ravel(), *p_b.ravel()),
                      dtype=complex)
    r_plus, r_minus = rashba(gamma, np.array([beta, -beta]), np.array(p))
    scale = 1 + np.abs(p_a).max() * np.abs(p_b).max()
    assert np.abs(want_h[:2, :2] - r_plus).max() < 1e-14 * scale / (1 - gamma**2)
    assert np.abs(want_h[2:, 2:] - r_minus).max() < 1e-14 * scale / (1 - gamma**2)
    assert not want_h[:2, 2:].any() and not want_h[2:, :2].any()


E13_SYM = sp.Matrix([[0, -1], [1, 0]])


def pseudo_adjoint_of(x_minus_p) -> sp.Matrix:
    """X^#(p), the T-conjugate U conj(Y) U^-1 of Y = X(-p)^dagger, U = e13."""
    return E13_SYM * x_minus_p.H.conjugate() * E13_SYM.inv()


def test_pseudo_adjoint_is_the_adjugate():
    # so X^#(p) is the Clifford conjugate of X(-p), and one function forms both
    x = sp.Matrix(2, 2, sp.symbols("x:4"))
    assert sp.expand(pseudo_adjoint_of(x) - x.adjugate()) == sp.zeros(2)


def test_pseudo_adjoint_of_p_b_at_minus_p_is_p_a():
    # P^B(-p) has q = (-p1, -p2, i beta), P^A(p) has q = (p1, p2, -i beta)
    p_b_minus_p = clifford_momentum_of((-P1, -P2, sp.I * BETA))
    p_a = clifford_momentum_of((P1, P2, -sp.I * BETA))
    for entry in pseudo_adjoint_of(p_b_minus_p) - p_a:
        numerator = sp.expand(sp.numer(sp.together(entry)))
        assert sp.expand(sp.rem(numerator, S**2 + C**2 - 1, S)) == 0


@pytest.mark.parametrize("gamma, beta, p", [(0.0, 1.0, (0.3, -1.2)),
                                            (0.55, 2.5, (-2.0, 0.4)),
                                            (-0.85, 0.6, (1.5, 1.5))])
def test_pseudo_adjoint_matches_the_proof(gamma, beta, p):
    half = np.arcsin(gamma) / 2.0
    sharp = sp.lambdify((P1, P2, BETA), pseudo_adjoint_of(
        clifford_momentum_of((-P1, -P2, sp.I * BETA))).subs({C: np.cos(half), S: np.sin(half)}))
    p_b_minus_p = clifford_momentum(gamma, rashba_shifts(beta)[0], -np.array(p))
    want = np.array(sharp(*p, beta), dtype=complex)
    scale = 1 + np.abs(p).max() + beta
    got = clifford_conjugation_matrix(p_b_minus_p)
    assert np.abs(got - want).max() < 1e-13 * scale / (1 - gamma**2)


# ------------------------------------------------------ the linearization

E_BLOCKS = tuple(sp.Matrix(2, 2, sp.symbols(f"e{j}_:4")) for j in (1, 2, 3))   # complex e_j
LAMBDA = offdiag(I2, I2)
GAMMA4 = sp.diag(1, 1, -1, -1)
I4 = sp.eye(4)


def linearization(e) -> tuple:
    """(L, L', N, N', M, M') of the first-order system for the spatial
    blocks e: M_j = Lambda Gamma_j and M_j' = -Gamma_j Lambda^-1 with
    Gamma_j = offdiag(e_j, e_j), M4 = Lambda Gamma4, M4' = -Gamma4 Lambda^-1,
    M5 = -i Lambda, M5' = -i Lambda^-1, and L, N (L', N') from
    M4 = i(L + N/2) and M5 = L - N/2."""
    lam_inv = LAMBDA.inv()
    gammas = [offdiag(x, x) for x in e] + [GAMMA4]
    m = [LAMBDA * g for g in gammas] + [-sp.I * LAMBDA]
    m_prime = [-g * lam_inv for g in gammas] + [-sp.I * lam_inv]
    l, n = (m[4] - sp.I * m[3]) / 2, -sp.I * m[3] - m[4]
    l_prime, n_prime = (m_prime[4] - sp.I * m_prime[3]) / 2, -sp.I * m_prime[3] - m_prime[4]
    return l, l_prime, n, n_prime, m, m_prime


def is_zero(m) -> bool:
    return sp.expand(m) == sp.zeros(*m.shape)


def test_linearization_blocks():
    # L = L' = -i E21 (x) 1, N = N' = 2i E12 (x) 1, M_j = diag(e_j, e_j) = -M_j',
    # and M4 = M4', M5 = M5' do not depend on the e_j
    l, l_prime, n, n_prime, m, m_prime = linearization(E_BLOCKS)
    zero = sp.zeros(2)
    assert l == l_prime == sp.Matrix(sp.BlockMatrix([[zero, zero], [-sp.I * I2, zero]]))
    assert n == n_prime == sp.Matrix(sp.BlockMatrix([[zero, 2 * sp.I * I2], [zero, zero]]))
    for x, m_j, m_j_prime in zip(E_BLOCKS, m, m_prime):
        assert m_j == -m_j_prime == sp.diag(x, x)
    assert m[3] == m_prime[3] and m[4] == m_prime[4]
    assert not (m[3].free_symbols | m[4].free_symbols)


def test_linearization_constant_relations():
    # L'L = 0, N'N = 0, L'N + N'L = 2, and the M4/M5 anticommutators -2 delta
    l, l_prime, n, n_prime, m, m_prime = linearization(E_BLOCKS)
    assert is_zero(l_prime * l) and is_zero(n_prime * n)
    assert is_zero(l_prime * n + n_prime * l - 2 * I4)
    for i in (3, 4):
        for j in (3, 4):
            assert is_zero(m_prime[i] * m[j] + m_prime[j] * m[i] + 2 * (i == j) * I4)


def test_linearization_relations_for_any_spatial_blocks():
    # L'M_j + M_j'L = 0, N'M_j + M_j'N = 0 and {M4, M_j} = {M5, M_j} = 0 for
    # any blocks e_j; M_i'M_j + M_j'M_i = -diag({e_i, e_j}, {e_i, e_j}), the
    # deformed Clifford relations clifford.deformed_relations checks
    l, l_prime, n, n_prime, m, m_prime = linearization(E_BLOCKS)
    for j in range(3):
        assert is_zero(l_prime * m[j] + m_prime[j] * l)
        assert is_zero(n_prime * m[j] + m_prime[j] * n)
        for k in (3, 4):
            assert is_zero(m_prime[k] * m[j] + m_prime[j] * m[k])
        for i in range(3):
            anti = E_BLOCKS[i] * E_BLOCKS[j] + E_BLOCKS[j] * E_BLOCKS[i]
            assert is_zero(m_prime[i] * m[j] + m_prime[j] * m[i] + sp.diag(anti, anti))


def test_deformed_generators_obey_the_clifford_relations():
    # {e_i, e_j} = 2 delta_ij for the closed-form generators at every theta,
    # so the spatial rows of the condensed relation read -2 delta_ij
    e = [closed_form_at(0, [int(k == j) for k in range(3)]) for j in range(3)]
    for i in range(3):
        for j in range(3):
            assert holds_for_every_theta(e[i] * e[j] + e[j] * e[i] - 2 * (i == j) * I2)


@pytest.mark.parametrize("gamma", [0.0, 0.7, -0.9])
def test_linearization_matches_the_proof(gamma):
    # the proof's matrices at the library's deformed generators equal the
    # Kronecker products of the library's factors, exactly: L = L' = ELL (x) 1,
    # N = N' = NU (x) 1, M_j = -M_j' = 1 (x) e_j, M4 = M4' = i(ELL + NU/2) (x) 1
    # and M5 = M5' = (ELL - NU/2) (x) 1
    e = deformed_generators(gamma)[1:4]
    symbols = [x for block in E_BLOCKS for x in block]
    got = sp.lambdify(symbols, linearization(E_BLOCKS), modules="numpy")(*e.ravel())
    l, l_prime, n, n_prime = (np.array(x, dtype=complex) for x in got[:4])
    m, m_prime = (np.array([np.array(x, dtype=complex) for x in ms]) for ms in got[4:])
    i2 = np.eye(2)
    assert np.array_equal(l, np.kron(ELL, i2)) and np.array_equal(l_prime, l)
    assert np.array_equal(n, np.kron(NU, i2)) and np.array_equal(n_prime, n)
    for j in range(3):
        assert np.array_equal(m[j], np.kron(i2, e[j])) and np.array_equal(m_prime[j], -m[j])
    assert np.array_equal(m[3], np.kron(1j * (ELL + NU / 2.0), i2))
    assert np.array_equal(m[4], np.kron(ELL - NU / 2.0, i2))
    assert np.array_equal(m_prime[3:], m[3:])


# ------------------------------------------------ the continuity identity

K1, K2, Q1, Q2, E, E_PRIME, BETA_C, X1, X2, TIME = sp.symbols(
    "k1 k2 q1 q2 E E' beta x1 x2 t", real=True)      # wave momenta k and k' = q
OMEGA = sp.symbols("omega", positive=True)


def complex_symbol(name):
    re, im = sp.symbols(f"{name}_re {name}_im", real=True)
    return re + sp.I * im


def bra_ket(u, v):
    return (u.H * v)[0]


def pair_kernel(a, b) -> sp.Expr:
    """K = (E - E' + (|k'|^2 - |k|^2)/2) <a|b> - beta (k'_1 - k_1) <a|sigma2 b>
    + (beta/omega) (k'_2 - k_2) <a|sigma1 b>."""
    return ((E - E_PRIME + (Q1**2 + Q2**2 - K1**2 - K2**2) / 2) * bra_ket(a, b)
            - BETA_C * (Q1 - K1) * bra_ket(a, PAULI[1] * b)
            + BETA_C / OMEGA * (Q2 - K2) * bra_ket(a, PAULI[0] * b))


def test_continuity_residual_is_the_pair_kernel():
    # d(rho)/dt + div<J> of psi = c a e^{i theta} + c' b e^{i theta'}, from the
    # current's definition with sympy derivatives, is 2 Re[conj(c) c' e^{i(theta'
    # - theta)} i K] for any a, b, c, c': the residual's largest value over x and
    # t is 2 |c| |c'| |K|, so the check needs no grid, time or coefficients
    def re(z):
        return (z + sp.conjugate(z)) / 2

    def im(z):
        return (z - sp.conjugate(z)) / (2 * sp.I)

    a, b = (sp.Matrix([complex_symbol(f"{v}0"), complex_symbol(f"{v}1")]) for v in "ab")
    c, c_prime = complex_symbol("c"), complex_symbol("c'")
    theta, theta_prime = K1 * X1 + K2 * X2 - E * TIME, Q1 * X1 + Q2 * X2 - E_PRIME * TIME
    psi = c * a * sp.exp(sp.I * theta) + c_prime * b * sp.exp(sp.I * theta_prime)
    residual = (2 * re(bra_ket(psi, psi.diff(TIME)))
                + im(bra_ket(psi, psi.diff(X1, 2) + psi.diff(X2, 2)))
                - 2 * BETA_C * re(bra_ket(psi, PAULI[1] * psi.diff(X1)))
                + 2 * BETA_C / OMEGA * re(bra_ket(psi, PAULI[0] * psi.diff(X2))))
    phase = sp.exp(sp.I * (theta_prime - theta))
    want = 2 * re(sp.conjugate(c) * c_prime * phase * sp.I * pair_kernel(a, b))
    assert sp.expand(residual - want) == 0


@pytest.mark.parametrize("gamma", [0.0, 0.6, -0.93])
def test_continuity_kernel_matches_the_proof(gamma):
    # any amplitudes, momenta and energies, not only eigenstates
    rng = np.random.default_rng(11)
    amps = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    k, energies = rng.uniform(-3.0, 3.0, size=(5, 2, 2)), rng.uniform(-9.0, 9.0, size=(5, 2))
    beta = rng.uniform(-3.0, 3.0, size=5)
    a, b = (sp.Matrix(sp.symbols(f"{v}0:2")) for v in "ab")
    kernel = sp.lambdify((*a, *b, K1, K2, Q1, Q2, E, E_PRIME, BETA_C, OMEGA),
                         pair_kernel(a, b), modules="numpy")
    got = continuity_residual(gamma, beta, amps, k, energies)
    for n in range(5):
        want = kernel(*amps[n].ravel(), *k[n].ravel(), *energies[n], beta[n],
                      np.sqrt(1 - gamma**2))
        assert got[n] == pytest.approx(want, rel=1e-12)
