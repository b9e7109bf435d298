"""Verification harness: suite configuration, the check registry, report
serialization and the tabular exporters behind the CLI.

The registry (:mod:`.checks`) loads on first use of ``run_all``, so the
exporters and the configuration import without it."""

from .config import ConfigError, SuiteConfig
from .report import ConformanceReport, ReportEntry

__all__ = [
    "ConfigError",
    "SuiteConfig",
    "ConformanceReport",
    "ReportEntry",
    "run_all",
]


def __getattr__(name):
    if name == "run_all":
        from .checks import run_all
        return run_all
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
