"""Verification harness: suite configuration, the check registry, report
serialization and the tabular exporters behind the CLI.

The registry (:mod:`.checks`) loads on first use of ``run_all`` and the
report classes (:mod:`.report`) on first use of their names, so the
exporters and the configuration import without them."""

from .config import ConfigError, SuiteConfig

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
    if name in ("ConformanceReport", "ReportEntry"):
        from . import report
        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
