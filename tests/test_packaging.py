"""pyproject.toml names the distribution after the package and points the
``bispinor`` console script at the CLI's entry point."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")        # the standard library from Python 3.11

PROJECT = tomllib.loads(
    (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())["project"]


def test_distribution_is_named_after_the_package():
    assert PROJECT["name"] == "bispinor"


def test_console_script_resolves_to_cli_main():
    module, _, attribute = PROJECT["scripts"]["bispinor"].partition(":")
    from bispinor import cli
    assert getattr(importlib.import_module(module), attribute) is cli.main
