"""Shared pytest configuration."""

from hypothesis import settings

# Property tests time nothing; per-example deadlines only make them flaky on
# slow or shared machines.
settings.register_profile("bispinor", deadline=None)
settings.load_profile("bispinor")
