"""conftest's assert_small, the one way a test judges a residual: every
|entry| finite and at most the tolerance, the modulus of a complex entry,
and a TypeError for a value that is not numeric."""

import math

import numpy as np
import pytest

from bispinor.harness.checks import worst_term

from conftest import assert_small


def passes(residual, tol):
    try:
        assert_small(residual, tol)
    except AssertionError:
        return False
    return True


@pytest.mark.parametrize("residual", [-1 + 0j, np.complex128(-1), -5 + 3j, np.array(-1.0), 2e-12,
                                      math.nan, np.float64(np.nan), np.inf, 1j * np.inf],
                         ids=["-1+0j", "complex128(-1)", "-5+3j", "array(-1.0)", "2e-12", "nan",
                              "float64(nan)", "inf", "1j*inf"])
def test_fails_a_modulus_over_tolerance_and_nan_and_inf(residual):
    assert not passes(residual, 1e-12)


@pytest.mark.parametrize("residual", ["x", True, np.array([0.0, None], dtype=object)],
                         ids=["str", "bool", "object"])
def test_refuses_a_value_that_is_not_numeric(residual):
    with pytest.raises(TypeError, match="not numeric"):
        assert_small(residual, 1e-12)


@pytest.mark.parametrize("residual", [0.0, np.zeros(0), {}], ids=["0.0", "empty", "no terms"])
def test_passes_zero_and_nothing(residual):
    assert passes(residual, 1e-12)


def test_names_the_failing_term_and_its_largest_entry():
    with pytest.raises(AssertionError, match=r"bad: 2\.0") as failure:
        assert_small({"good": np.array([0.5, -1.0]), "bad": np.array([1.5, -2.0j])}, 1.0)
    assert "good" not in str(failure.value)


def test_an_array_tolerance_is_honoured_entry_by_entry():
    bound = np.array([1.0, 2.0])
    assert passes(np.array([[1.0, -2.0], [0.5, 1.5j]]), bound)
    assert not passes(np.array([[1.0, -2.0], [1.5, 0.0]]), bound)
    assert passes(np.array([[1.0, 1.0], [2.0, 2.0]]), bound[:, None])


@pytest.mark.parametrize("terms", [
    {}, {"a": 0.5}, {"a": 1.0, "b": -1.0 + 0j}, {"a": np.array([0.1, -2j])},
    {"a": np.zeros((2, 2)), "b": np.array([[0.3, np.nan]])}, {"a": -5 + 3j},
    {"a": 1e-13, "b": np.array([-np.inf, 0.0])}, {"a": np.zeros(0), "b": 0.999}])
def test_agrees_with_the_registry_reducer(terms):
    # the registry passes a check when its worst term, NaN and inf read as
    # inf, is at most the tolerance
    registry_passes = worst_term(terms)[0] <= 1.0
    assert passes(terms, 1.0) == registry_passes
