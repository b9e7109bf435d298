"""Shared pytest configuration, and the helpers the test modules share:
``assert_small``, the one way a test judges a residual against a tolerance,
the common tolerance ``TOL``, and the operand helpers ``complex_from``,
``bits``, ``random_spinor`` and ``uniform_draws``."""

import numpy as np
from hypothesis import settings

# Property tests time nothing; per-example deadlines only make them flaky on
# slow or shared machines.
settings.register_profile("bispinor", deadline=None)
settings.load_profile("bispinor")

TOL = 1e-12


def assert_small(residual, tol):
    """Assert that every |entry| of a residual is finite and at most ``tol``.

    ``residual`` is a scalar, an array or a dict of them (a check's terms),
    and a complex entry is judged by its modulus, so neither a negative real
    part nor NaN or inf can pass.  ``tol`` is a scalar or an array that
    broadcasts against the entries.  A value that is not numeric (str,
    object or bool dtype) raises TypeError.  The message names each failing
    term and its largest |entry|."""
    terms = residual if isinstance(residual, dict) else {"residual": residual}
    failing = {}
    for key, value in terms.items():
        value = np.asarray(value)
        if value.dtype.kind not in "iufc":
            raise TypeError(f"{key}: dtype {value.dtype} is not numeric")
        size = np.abs(value)
        if not (np.isfinite(size) & (size <= tol)).all():
            failing[key] = float(size.max())
    assert not failing, "largest |entry| over tolerance or not finite: " + ", ".join(
        f"{key}: {largest!r}" for key, largest in failing.items())


def complex_from(re, im):
    """re + i im entry by entry, with no arithmetic on inf or NaN."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def bits(x):
    """dtype, shape and bytes of an array with every NaN made the same NaN:
    the sign of a NaN from 0 / 0 or 0 * inf depends on the machine loop that
    made it."""
    x = np.array(x)
    for part in (x.real, x.imag) if np.iscomplexobj(x) else (x,):
        part[np.isnan(part)] = np.nan
    return x.dtype, x.shape, x.tobytes()


def uniform_draws(rng, n, low, high):
    """(n, k) draws, row i the k calls rng.uniform(low[j], high[j]) of one
    sample in order: the same stream, as low + (high - low) u."""
    low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
    return low + (high - low) * rng.random((n, len(low)))


def random_spinor(rng, n=None):
    """A complex 2-spinor with standard normal real and imaginary parts, or
    n of them as (n, 2): the draws of n single calls, in order."""
    z = rng.normal(size=(2, 2) if n is None else (n, 2, 2))
    return z[..., 0, :] + 1j * z[..., 1, :]
