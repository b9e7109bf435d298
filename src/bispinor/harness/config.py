"""Suite configuration and validation for the verification harness."""

from __future__ import annotations

import math
from collections import namedtuple
from numbers import Real

# Random gamma draws are clipped away from +-1 by this margin (1/omega
# blows up as |gamma| -> 1).
GAMMA_MARGIN = 1e-3


class ConfigError(ValueError):
    """Raised for invalid suite configurations (CLI exit code 2)."""


def _floats(name: str, values, size: int | None = None) -> tuple[float, ...]:
    """``values`` as a tuple of floats; ConfigError for a string, a non-iterable,
    an entry that is not a real number (or is a bool) or a length other than ``size``."""
    try:
        entries = None if isinstance(values, (str, bytes)) else tuple(values)
    except TypeError:
        entries = None
    if (entries is None or size not in (None, len(entries))
            or not all(isinstance(x, Real) and not isinstance(x, bool) for x in entries)):
        shape = "a pair (lo, hi)" if size else "a sequence"
        raise ConfigError(f"{name} must be {shape} of numbers")
    return tuple(float(x) for x in entries)


class SuiteConfig(namedtuple("SuiteConfig", (
    "gamma_values", "beta_values", "p1_range", "p2_range",
    "grid_points", "samples", "seed", "tolerance",
), defaults=(
    (0.0, 0.3, -0.3, 0.6, -0.6, 0.9, -0.9), (0.5, 1.0, 2.0), (-3.0, 3.0), (-3.0, 3.0),
    12, 50, 7, 1e-10,
))):
    """The suite's inputs, an immutable tuple of fields compared and hashed by
    value: gamma_values and beta_values (tuples of floats), p1_range and
    p2_range (float pairs lo < hi), grid_points, samples and seed (ints) and
    tolerance (a positive number).  Every way of making one (keywords,
    positions, ``_make``, ``_replace``, copy, pickle) coerces the four float
    fields and validates them all, raising ConfigError at the first fault."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        given = super().__new__(cls, *args, **kwargs)
        self = super().__new__(cls, *(
            _floats(name, value, 2 if name.endswith("_range") else None)
            for name, value in zip(cls._fields[:4], given)), *given[4:])
        if not self.gamma_values:
            raise ConfigError("at least one gamma value is required")
        for g in self.gamma_values:
            if not abs(g) < 1.0:
                raise ConfigError(
                    f"gamma={g} outside the open unit interval (-1, 1)"
                )
        if not self.beta_values:
            raise ConfigError("at least one beta value is required")
        if not any(self.beta_values):
            raise ConfigError("beta_values are all zero: degenerate splitting")
        for count, minimum, message in (
                (self.samples, 1, "samples must be an integer >= 1"),
                (self.seed, 0, "seed must be a non-negative integer"),
                (self.grid_points, 2, "grid needs an integer of at least 2 points per axis")):
            if isinstance(count, bool) or not isinstance(count, int) or count < minimum:
                raise ConfigError(message)
        if isinstance(self.tolerance, bool) or not isinstance(self.tolerance, Real):
            raise ConfigError(f"tolerance must be a number, got {self.tolerance!r}")
        numbers = (*self.beta_values, *self.p1_range, *self.p2_range, self.tolerance)
        if not all(math.isfinite(x) for x in numbers):
            raise ConfigError("beta, momentum range and tolerance must be finite")
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be positive")
        for lo, hi in (self.p1_range, self.p2_range):
            if not lo < hi:
                raise ConfigError("momentum range must satisfy lo < hi")
            if not math.isfinite(hi - lo):
                raise ConfigError("momentum range width hi - lo must be finite")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def nonzero_betas(self) -> tuple[float, ...]:
        return tuple(b for b in self.beta_values if b != 0.0)
