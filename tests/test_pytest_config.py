"""The suite's pytest configuration survives a failing property test.

pyproject.toml turns warnings into errors.  When a hypothesis test fails,
its failure report imports libcst, which warns that a mypy_extensions name
is deprecated; unfiltered, that warning becomes an INTERNALERROR that ends
the session before the remaining tests run.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    test_file = tmp_path / "test_property.py"
    test_file.write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
