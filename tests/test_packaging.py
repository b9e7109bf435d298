"""pyproject.toml names the distribution after the package, points the
``bispinor`` console script at the CLI's entry point, and names every
third-party module the tests import."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")        # the standard library from Python 3.11

TESTS = Path(__file__).resolve().parent
PROJECT = tomllib.loads((TESTS.parent / "pyproject.toml").read_text())["project"]


def test_distribution_is_named_after_the_package():
    assert PROJECT["name"] == "bispinor"


def test_console_script_resolves_to_cli_main():
    module, _, attribute = PROJECT["scripts"]["bispinor"].partition(":")
    from bispinor import cli
    assert getattr(importlib.import_module(module), attribute) is cli.main


def test_test_extra_covers_the_test_imports():
    # a module a test imports is the standard library's, the package's, the
    # test directory's own (conftest's shared helpers, a tests/data helper),
    # or a runtime or test requirement's
    requirements = PROJECT["dependencies"] + PROJECT["optional-dependencies"]["test"]
    allowed = (set(sys.stdlib_module_names) | {"bispinor"}
               | {path.stem for path in TESTS.rglob("*.py")}
               | {re.match(r"[\w.-]+", requirement).group() for requirement in requirements})
    imported = set()
    for path in TESTS.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert imported - allowed == set()
