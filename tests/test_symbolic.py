"""Exact symbolic proof of the closed-form coefficient map, checked against
the library.

For gamma = sin(theta) with |theta| < pi/2 (so omega = sqrt(1 - gamma^2) =
cos(theta)), the similarity witness is T = cos(theta/2) + sin(theta/2) sigma_2
and the multivector s + v.e^gamma is T (s + v.sigma) T^-1.  sympy proves that
this equals the closed form :func:`bispinor.multivector.to_matrix` evaluates,
for symbolic complex s and v; sympy stays a test-only dependency.
"""

import numpy as np
import pytest
import sympy as sp

from bispinor.multivector import to_matrix

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
