"""The closed-form kernels: matmul2, matvec, amplitude_inner, det2, inv2,
unitary2, the two 2x2 adjoints (Clifford conjugation and time reversal),
the eigenpair oracles, the geometric product, the operator assembly and
the momentum draw, and the registry's independence from np.linalg and
einsum.

matmul2, matvec and amplitude_inner are the entrywise formulas
a_i0 b_0k + a_i1 b_1k, m_i0 v_0 + m_i1 v_1 and conj(a_0) b_0 + conj(a_1) b_1
evaluated as whole-array operations, so each is held to its formula bit for
bit and to np.matmul or np.vdot (one BLAS call per matrix or pair) within
the two-term rounding bound.  The bit claim covers the formula on operands
broadcast to the result's shape, as the kernels see them: numpy picks its
complex-multiply inner loop by operand layout, and on hosts with FMA some
loops fuse the multiply and the subtract of a c - b d while others round
twice, so the same product on another layout (batch shapes (1, 1) against
(1,)) can differ by 1 ulp.

The geometric product, the Clifford momenta, the Rashba and magnetic
Hamiltonians and the momentum draw replaced slower forms of the same
arithmetic, which the tests keep as their oracles and match bit for bit:
the einsum over the Cayley table, to_matrix of the operators' explicit 8
coefficients, the momentum product of the two factors' shifts, and
rng.uniform.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bispinor import multivector
from bispinor.harness import checks
from bispinor.harness.config import SuiteConfig
from bispinor.momenta import (
    clifford_momentum,
    magnetic,
    magnetic_shifts,
    momentum_product,
    rashba,
)
from bispinor.multivector import (
    amplitude_inner,
    det2,
    geometric_product,
    inv2,
    matmul2,
    matvec,
    to_matrix,
    unitary2,
)
from bispinor.spectrum import eigenvalue_oracle, eigenvector_oracle

EPS = np.finfo(float).eps
EXAMPLES = settings(max_examples=150, deadline=None)


def complex_from(re, im):
    """re + i im entry by entry, with no arithmetic on inf or NaN."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def complex_arrays(shape, elements):
    return st.tuples(hnp.arrays(np.float64, shape, elements=elements),
                     hnp.arrays(np.float64, shape, elements=elements)).map(lambda z: complex_from(*z))


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
special = st.one_of(finite, st.sampled_from([np.inf, -np.inf, np.nan, -0.0, 0.0]))
# two batch shapes of sides 1..5 that broadcast together (possibly 0-d)
batch_pairs = hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=2,
                                                min_side=1, max_side=5)


@st.composite
def operand_pair(draw, elements):
    (sa, sb), _ = draw(batch_pairs)
    return (draw(complex_arrays(sa + (2, 2), elements)),
            draw(complex_arrays(sb + (2, 2), elements)))


def entrywise_product(a, b):
    """Entry (i, k) = a_i0 b_0k + a_i1 b_1k, one entry at a time, on the
    operands broadcast to the product's shape."""
    a, b = np.broadcast_arrays(a, b)
    out = np.empty(a.shape, dtype=complex)
    for i in range(2):
        for k in range(2):
            out[..., i, k] = a[..., i, 0] * b[..., 0, k] + a[..., i, 1] * b[..., 1, k]
    return out


def bits(z):
    """The bytes of a complex array with every NaN made the same NaN: the
    sign of a NaN from 0 * inf depends on the machine loop that made it."""
    z = np.asarray(z)
    re, im = z.real.copy(), z.imag.copy()
    re[np.isnan(re)], im[np.isnan(im)] = np.nan, np.nan
    return complex_from(re, im).tobytes()


@EXAMPLES
@given(operand_pair(special))
# batch shapes (1, 1) and (1,): an unbroadcast oracle rounds a c - b d twice
# here, 1 ulp from the fused result
@example((np.full((1, 1, 2, 2), 370727.76953125 + 1j),
          np.full((1, 2, 2), 370727.76953125 + 125630j)))
def test_matmul2_is_the_entrywise_formula(pair):
    a, b = pair
    with np.errstate(all="ignore"):
        got, want = matmul2(a, b), entrywise_product(a, b)
    assert got.shape == np.broadcast_shapes(a.shape, b.shape)
    assert bits(got) == bits(want)


def frobenius(m):
    """Frobenius norms (...) of (..., 2, 2) matrices, without underflow."""
    return np.hypot.reduce(np.abs(m).reshape(m.shape[:-2] + (4,)), axis=-1)


@EXAMPLES
@given(operand_pair(finite))
def test_matmul2_agrees_with_matmul(pair):
    a, b = pair
    # 4 ulp relative, plus a few units of the gradual-underflow spacing
    bound = 4 * EPS * frobenius(a) * frobenius(b) + 8 * np.finfo(float).smallest_subnormal
    assert (np.abs(matmul2(a, b) - a @ b).max(axis=(-1, -2)) <= bound).all()


@st.composite
def matrix_and_vector(draw, elements):
    (sm, sv), _ = draw(batch_pairs)
    return (draw(complex_arrays(sm + (2, 2), elements)),
            draw(complex_arrays(sv + (2,), elements)))


@st.composite
def vector_pair(draw, elements):
    (sa, sb), _ = draw(batch_pairs)
    return (draw(complex_arrays(sa + (2,), elements)),
            draw(complex_arrays(sb + (2,), elements)))


def entrywise_matvec(m, v):
    """Entry i = m_i0 v_0 + m_i1 v_1, one entry at a time, on the operands
    broadcast to the result's shape (v as the row of each entry)."""
    m, v = np.broadcast_arrays(m, v[..., None, :])
    out = np.empty(m.shape[:-1], dtype=complex)
    for i in range(2):
        out[..., i] = m[..., i, 0] * v[..., i, 0] + m[..., i, 1] * v[..., i, 1]
    return out


def entrywise_inner(a, b):
    """conj(a_0) b_0 + conj(a_1) b_1 on the operands broadcast to the
    result's shape."""
    a, b = np.broadcast_arrays(a, b)
    return np.conj(a[..., 0]) * b[..., 0] + np.conj(a[..., 1]) * b[..., 1]


# the (1, 1)/(1,) layouts of the matmul2 example, and signed zeros, inf and NaN
ZERO_INF_NAN = complex_from(np.array([[0.0, -0.0], [np.inf, np.nan]]),
                            np.array([[-0.0, np.nan], [0.0, -np.inf]]))


@EXAMPLES
@given(matrix_and_vector(special))
@example((np.full((1, 1, 2, 2), 370727.76953125 + 1j), np.full((1, 2), 370727.76953125 + 125630j)))
@example((ZERO_INF_NAN, ZERO_INF_NAN[::-1].T))
def test_matvec_is_the_entrywise_formula(pair):
    m, v = pair
    with np.errstate(all="ignore"):
        got, want = matvec(m, v), entrywise_matvec(m, v)
    assert got.shape == np.broadcast_shapes(m.shape[:-1], v.shape)
    assert bits(got) == bits(want)


@EXAMPLES
@given(vector_pair(special))
@example((np.full((1, 1, 2), 370727.76953125 + 1j), np.full((1, 2), 370727.76953125 + 125630j)))
@example((ZERO_INF_NAN, ZERO_INF_NAN[::-1]))
def test_amplitude_inner_is_the_entrywise_formula(pair):
    a, b = pair
    with np.errstate(all="ignore"):
        got, want = amplitude_inner(a, b), entrywise_inner(a, b)
    assert got.shape == np.broadcast_shapes(a.shape, b.shape)[:-1]
    assert bits(got) == bits(want)


def norm2(v):
    """Euclidean norms (...) of (..., 2) vectors, without underflow."""
    return np.hypot(np.abs(v[..., 0]), np.abs(v[..., 1]))


# 4 ulp relative, plus a few units of the gradual-underflow spacing
TINY = 8 * np.finfo(float).smallest_subnormal


@EXAMPLES
@given(matrix_and_vector(finite))
def test_matvec_agrees_with_matmul(pair):
    m, v = pair
    bound = 4 * EPS * frobenius(m) * norm2(v) + TINY
    assert (np.abs(matvec(m, v) - (m @ v[..., None])[..., 0]).max(axis=-1) <= bound).all()


@EXAMPLES
@given(vector_pair(finite))
def test_amplitude_inner_agrees_with_vdot(pair):
    a, b = np.broadcast_arrays(*pair)
    want = np.array([np.vdot(x, y) for x, y in zip(a.reshape(-1, 2), b.reshape(-1, 2))])
    bound = 4 * EPS * norm2(a) * norm2(b) + TINY
    assert (np.abs(amplitude_inner(a, b) - want.reshape(a.shape[:-1])) <= bound).all()


def test_matmul2_keeps_real_dtype_and_broadcasts_a_constant():
    e13 = np.array([[0.0, -1.0], [1.0, 0.0]])
    u = np.arange(12.0).reshape(3, 2, 2)
    assert matmul2(e13, u).dtype == np.float64
    assert np.array_equal(matmul2(e13, u), e13 @ u)


# entries on a 1e-3 grid in [-10, 10], clear of LAPACK's own trouble near underflow
well_posed = st.integers(-10_000, 10_000).map(lambda k: k / 1000)


@EXAMPLES
@given(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=5).flatmap(
    lambda shape: complex_arrays(shape + (2, 2), well_posed)))
def test_det2_and_inv2(m):
    scale = frobenius(m) ** 2
    det = det2(m)
    assert (np.abs(det - np.linalg.det(m)) <= 8 * EPS * scale).all()
    assume((np.abs(det) > 1e-3 * scale).all())
    residual = np.abs(matmul2(inv2(m), m) - np.eye(2)).max(axis=(-1, -2))
    assert (residual <= 64 * EPS * scale / np.abs(det)).all()


# The two 2x2 adjoints, entry by entry: (row, column) of the source entry
# and whether it is negated.  Clifford conjugation is the adjugate; time
# reversal is its conjugate transpose, the conjugated entries.
ADJUGATE = {(0, 0): ((1, 1), False), (0, 1): ((0, 1), True),
            (1, 0): ((1, 0), True), (1, 1): ((0, 0), False)}
TIME_REVERSAL = {(0, 0): ((1, 1), False), (0, 1): ((1, 0), True),
                 (1, 0): ((0, 1), True), (1, 1): ((0, 0), False)}


def signed_entries(m, table, conjugate=False):
    """Each entry of the result copied from its source entry of m,
    conjugated if asked and negated where the table says."""
    out = np.empty(m.shape, dtype=complex)
    for (i, j), ((k, l), negate) in table.items():
        x = np.conj(m[..., k, l]) if conjugate else m[..., k, l]
        out[..., i, j] = -x if negate else x
    return out


@EXAMPLES
@given(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=5).flatmap(
    lambda shape: complex_arrays(shape + (2, 2), special)))
@example(complex_from(np.array([[[0.0, -0.0], [np.inf, np.nan]], [[-np.inf, 1.0], [-0.0, 2.0]]]),
                      np.array([[[-0.0, np.nan], [0.0, -np.inf]], [[np.nan, -0.0], [np.inf, 0.0]]])))
def test_adjoints_are_the_signed_entries(m):
    for got, want in ((multivector.clifford_conjugation_matrix(m), signed_entries(m, ADJUGATE)),
                      (multivector.time_reverse_matrix(m),
                       signed_entries(m, TIME_REVERSAL, conjugate=True))):
        assert got.shape == m.shape and got.tobytes() == want.tobytes()
    with np.errstate(all="ignore"):
        got, want = inv2(m), signed_entries(m, ADJUGATE) / det2(m)[..., None, None]
    # the division makes NaNs whose sign depends on the machine loop
    assert got.shape == m.shape and bits(got) == bits(want)


def test_inv2_of_a_singular_matrix_is_not_finite():
    with np.errstate(all="ignore"):
        assert not np.isfinite(inv2(np.array([[1.0, 2.0], [2.0, 4.0]]))).any()


@EXAMPLES
@given(hnp.array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=5).flatmap(
    lambda shape: complex_arrays(shape + (2, 2), well_posed)))
def test_unitary2_is_the_unitary_factor_of_qr(m):
    scale = frobenius(m) ** 2
    assume((np.abs(det2(m)) > 1e-3 * scale).all())
    q = unitary2(m)
    q_h = np.conj(np.swapaxes(q, -1, -2))
    assert (np.abs(matmul2(q_h, q) - np.eye(2)).max(axis=(-1, -2)) <= 8 * EPS).all()
    # Q^H M is upper triangular with a positive real diagonal
    r = matmul2(q_h, m)
    assert (np.abs(r[..., 1, 0]) <= 16 * EPS * frobenius(m)).all()
    diagonal = r[..., [0, 1], [0, 1]]
    assert (diagonal.real > 0).all()
    assert (np.abs(diagonal.imag) <= 16 * EPS * frobenius(m)[..., None]).all()
    # each column is LAPACK's up to a phase, so the first is parallel to M's
    q_lapack, _ = np.linalg.qr(m)
    overlaps = np.abs((np.conj(q) * q_lapack).sum(axis=-2))
    assert np.allclose(overlaps, 1.0, rtol=0, atol=8 * EPS)


def test_unitary2_of_a_singular_matrix_is_not_finite():
    with np.errstate(all="ignore"):
        assert not np.isfinite(unitary2(np.array([[1.0, 2.0], [2.0, 4.0]]))[..., 1]).any()


def test_unitary2_of_a_subnormal_matrix_is_the_identity():
    # the norm of the first column is subnormal: the column over it overflows unless scaled first
    assert np.array_equal(unitary2(np.diag([2e-311, 2e-311]).astype(complex)), np.eye(2))


@EXAMPLES
@given(hnp.array_shapes(min_dims=1, max_dims=1, min_side=1, max_side=5).flatmap(
    lambda shape: complex_arrays(shape + (2, 2), well_posed)))
def test_closed_form_eigenpairs(h):
    lam = np.stack(eigenvalue_oracle(h))                     # (2, n), descending
    gap = np.abs(lam[0] - lam[1])
    norm = frobenius(h)
    assume((gap > 1e-3 * np.maximum(norm, 1.0)).all())
    v = eigenvector_oracle(h, lam)                           # (2, n, 2)
    assert np.allclose(np.linalg.norm(v, axis=-1), 1.0, rtol=0, atol=4 * EPS)
    residual = np.abs((h @ v[..., None])[..., 0] - lam[..., None] * v).max(axis=-1)
    assert (residual <= 64 * EPS * norm * (1.0 + norm / gap)).all()


def test_eigenvector_oracle_at_a_subnormal_eigenvalue_is_a_unit_vector():
    # |lam| is subnormal: the null vector (0, lam) over it overflows unless scaled first
    v = eigenvector_oracle(np.zeros((2, 2)), 2.2e-309 * (1 + 1j))
    assert np.allclose(v, [0.0, (1 + 1j) / np.sqrt(2.0)], rtol=0, atol=2 * EPS)


def test_eigenvector_oracle_picks_the_longer_candidate():
    # b = 0: the first candidate (b, lam - a) vanishes at lam = a
    h = np.array([[2.0, 0.0], [1.0, -1.0]], dtype=complex)
    high, low = eigenvalue_oracle(h)
    v = eigenvector_oracle(h, np.array([high, low]))
    # unit vectors along (3, 1) at lambda = 2 and (0, 1) at lambda = -1, up to phase
    assert np.isclose(abs(np.vdot(v[0], [3.0, 1.0])), np.sqrt(10.0))
    assert np.isclose(abs(np.vdot(v[1], [0.0, 1.0])), 1.0)


@pytest.mark.parametrize("cfg", [SuiteConfig(), SuiteConfig(samples=300, seed=3)],
                         ids=["default", "samples300_seed3"])
def test_registry_needs_no_np_linalg(cfg, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the registry calls np.linalg or np.einsum")

    for name in ("eig", "eigvals", "eigh", "eigvalsh", "inv", "det", "qr", "norm"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np, "einsum", refuse)
    report = checks.run_all(cfg)
    assert [e.test_id for e in report.entries if e.status != "pass" or e.error] == []


# ------------------------------------------- geometric product and momenta

def einsum_product(a, b):
    """The geometric product as the contraction of the (8, 8, 8) table."""
    return np.einsum("...i,...j,ijk->...k", a, b, multivector._CAYLEY)


# batch shapes of sides 1..4 and 1..3 axes that broadcast together: (1,),
# (1, 1), (N,) and stacked variants (k, N) or (k, 1, N) among them
def broadcastable(num_shapes):
    return hnp.mutually_broadcastable_shapes(num_shapes=num_shapes, min_dims=1, max_dims=3,
                                             min_side=1, max_side=4)


# -0.0 included: the assembly must keep each sign of zero the coefficient map gives
signed = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@EXAMPLES
@given(broadcastable(2).flatmap(lambda shapes: st.tuples(
    *(hnp.arrays(np.float64, shape + (8,), elements=special) for shape in shapes.input_shapes))))
@example((np.full((1, 1, 8), 0.5), np.full((1, 8), -2.0)))
def test_geometric_product_is_the_einsum(pair):
    a, b = pair
    with np.errstate(all="ignore"):
        got, want = geometric_product(a, b), einsum_product(a, b)
    assert got.shape == want.shape
    assert bits(got) == bits(want)


def explicit_momentum(shift, p):
    """The 8 coefficients of the 1-blade (p + shift).e."""
    p3 = np.concatenate([p, np.zeros(p.shape[:-1] + (1,))], axis=-1)
    q = p3 + shift
    coeffs = np.zeros(q.shape[:-1] + (8,), dtype=complex)
    coeffs[..., 1:4] = q
    return coeffs


def explicit_product(left_shift, right_shift, p):
    """The 8 coefficients of (1/2) P_l P_r: the scalar l.r / 2 and the
    bivector l ^ r / 2 over {e12, e23, e31}."""
    p3 = np.concatenate([p, np.zeros(p.shape[:-1] + (1,))], axis=-1)
    l, r = p3 + left_shift, p3 + right_shift
    coeffs = np.zeros(np.broadcast_shapes(l.shape[:-1], r.shape[:-1]) + (8,), dtype=complex)
    coeffs[..., 0] = 0.5 * (l[..., 0] * r[..., 0] + l[..., 1] * r[..., 1] + l[..., 2] * r[..., 2])
    coeffs[..., 4] = 0.5 * (l[..., 0] * r[..., 1] - l[..., 1] * r[..., 0])
    coeffs[..., 5] = 0.5 * (l[..., 1] * r[..., 2] - l[..., 2] * r[..., 1])
    coeffs[..., 6] = 0.5 * (l[..., 2] * r[..., 0] - l[..., 0] * r[..., 2])
    return coeffs


def explicit_magnetic(beta, a_vec, b3, p):
    """The 8 coefficients of the magnetic Hamiltonian's closed form: the
    scalar ((p1+A1)^2 + (p2+A2)^2 + beta^2) / 2 and the vector
    (beta (p2+A2), -beta (p1+A1), B3)."""
    q = p + a_vec
    scalar = 0.5 * (q[..., 0] * q[..., 0] + q[..., 1] * q[..., 1] + beta * beta)
    vector = (beta * q[..., 1], -beta * q[..., 0], b3)
    coeffs = np.zeros(np.broadcast_shapes(scalar.shape, *(np.shape(v) for v in vector)) + (8,))
    coeffs[..., 0] = scalar
    coeffs[..., 1], coeffs[..., 2], coeffs[..., 3] = vector
    return coeffs


def shifts(shape):
    return complex_arrays(shape + (3,), signed)


@EXAMPLES
@given(broadcastable(3).flatmap(lambda shapes: st.tuples(
    hnp.arrays(np.float64, shapes.input_shapes[0], elements=st.floats(-0.99, 0.99)),
    shifts(shapes.input_shapes[1]),
    hnp.arrays(np.float64, shapes.input_shapes[2] + (2,), elements=signed))))
# a -0 in p1 + Q1 that the map's + i 0 turns into +0, seen in the (0, 1) entry
@example((np.array([0.3]), complex_from(np.array([[-0.0, 0.0, -1.0]]), np.array([[1.0, 0.0, 0.0]])),
          np.array([[-0.0, 1.0]])))
def test_clifford_momentum_is_the_map_of_its_coefficients(operands):
    gamma, shift, p = operands
    got = clifford_momentum(gamma, shift, p)
    want = to_matrix(explicit_momentum(shift, p), gamma)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@EXAMPLES
@given(broadcastable(4).flatmap(lambda shapes: st.tuples(
    hnp.arrays(np.float64, shapes.input_shapes[0], elements=st.floats(-0.99, 0.99)),
    shifts(shapes.input_shapes[1]),
    shifts(shapes.input_shapes[2]),
    hnp.arrays(np.float64, shapes.input_shapes[3] + (2,), elements=signed))))
@example((np.array([0.3]), np.full((1, 1, 3), -0.0 + 0.0j), np.full((1, 3), 0.0 - 0.0j),
          np.full((1, 1, 2), -0.0)))
def test_momentum_product_is_the_map_of_its_coefficients(operands):
    gamma, left, right, p = operands
    got = momentum_product(gamma, left, right, p)
    want = to_matrix(explicit_product(left, right, p), gamma)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def uniform_momenta(cfg, rng, n):
    """The draw of checks._momenta through rng.uniform, redraws included."""
    lo, hi = np.array([cfg.p1_range, cfg.p2_range]).T
    p = rng.uniform(lo, hi, size=(n, 2))
    small = np.hypot(p[:, 0], p[:, 1]) <= 1e-2
    while small.any():
        p[small] = rng.uniform(lo, hi, size=(int(small.sum()), 2))
        small = np.hypot(p[:, 0], p[:, 1]) <= 1e-2
    return p


# boxes from wide to a few times the excluded disc, where most rows are redrawn
edges = st.sampled_from([3.0, 0.5, 0.05, 0.02, 0.015])


@EXAMPLES
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), p1=edges, p2=edges,
       shift=st.floats(-0.5, 0.5))
def test_momentum_draw_is_rng_uniform(seed, n, p1, p2, shift):
    cfg = SuiteConfig(p1_range=(-p1 + shift * p1, p1 + shift * p1), p2_range=(-p2, p2))
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = checks._momenta(cfg, rng, n), uniform_momenta(cfg, oracle_rng, n)
    assert got.tobytes() == want.tobytes()
    # the same stream consumed: the next draws agree too
    assert rng.random(4).tobytes() == oracle_rng.random(4).tobytes()


# finite and below overflow: |x| <= 1e150 keeps every square, and the sum of
# three, finite; -0.0, +0.0 and subnormals included
below_overflow = st.floats(-1e150, 1e150)


@EXAMPLES
@given(broadcastable(4).flatmap(lambda shapes: st.tuples(
    hnp.arrays(np.float64, shapes.input_shapes[0], elements=st.floats(-0.99, 0.99)),
    hnp.arrays(np.float64, shapes.input_shapes[1], elements=below_overflow),
    hnp.arrays(np.float64, shapes.input_shapes[2] + (2,), elements=below_overflow),
    hnp.arrays(np.float64, shapes.input_shapes[3] + (2,), elements=below_overflow))))
@example((np.array([0.3]), np.array([-0.0, 0.0]), np.array([[-0.0, 0.0]]),
          np.array([[0.0, -0.0], [-0.0, -0.0]])))
def test_rashba_and_magnetic_are_the_product_of_their_factors(operands):
    """rashba, and magnetic at B3 = 0, give the bits of momentum_product
    of their two factors' shifts, in both sectors (beta of either sign).
    On inputs whose squares overflow, the closed form's diagonal reads inf
    where the complex product's also has a NaN imaginary part (0 * inf);
    both are non-finite, so a check over them still FAILs."""
    gamma, beta, a_vec, p = operands
    got = magnetic(gamma, beta, a_vec, 0.0, p)
    want = momentum_product(gamma, *magnetic_shifts(beta, a_vec), p)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    got = rashba(gamma, beta, p)
    want = momentum_product(gamma, *magnetic_shifts(beta, (0.0, 0.0)), p)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@EXAMPLES
@given(broadcastable(5).flatmap(lambda shapes: st.tuples(
    hnp.arrays(np.float64, shapes.input_shapes[0], elements=st.floats(-0.99, 0.99)),
    hnp.arrays(np.float64, shapes.input_shapes[1], elements=below_overflow),
    hnp.arrays(np.float64, shapes.input_shapes[2] + (2,), elements=below_overflow),
    hnp.arrays(np.float64, shapes.input_shapes[3], elements=below_overflow),
    hnp.arrays(np.float64, shapes.input_shapes[4] + (2,), elements=below_overflow))))
# a -0 in beta (p2 + A2) that reaches the (0, 1) entry once B3 is nonzero
@example((np.array([0.3]), np.array([1.0]), np.array([[0.0, -0.0]]), np.array([-0.0, 1.0]),
          np.array([[0.5, -0.0]])))
def test_magnetic_is_the_map_of_its_coefficients(operands):
    """At any B3, magnetic gives the bits to_matrix gives for its closed
    form's coefficients, every -0 among them made +0 as the map does."""
    gamma, beta, a_vec, b3, p = operands
    got = magnetic(gamma, beta, a_vec, b3, p)
    want = to_matrix(explicit_magnetic(beta, a_vec, b3, p), gamma)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
