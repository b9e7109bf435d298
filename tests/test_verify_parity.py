"""``bispinor verify`` and ``bispinor report`` against a stored reference.

tests/data/verify_reference.json holds, for three configurations, the exit
code and the sha256 and byte length of the ``verify`` standard output and of
the JSON file ``report --out`` writes (see tests/data/make_verify_reference.py).
Changes meant to leave every draw and residual as it was must reproduce both
byte for byte; a change that moves residuals on purpose regenerates this
file with that script and says so.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bispinor import cli

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "verify_reference.json").read_text())


def check(data: bytes, want: dict) -> None:
    assert len(data) == want["bytes"]
    assert hashlib.sha256(data).hexdigest() == want["sha256"]


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_verify_stdout_matches_reference(name, capsys):
    block = REFERENCE[name]
    code = cli.main(["verify", *block["args"]])
    assert code == block["exit_code"]
    check(capsys.readouterr().out.encode("utf-8"), block["verify_stdout"])


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_report_json_matches_reference(name, tmp_path, capsys):
    block = REFERENCE[name]
    path = tmp_path / "report.json"
    code = cli.main(["report", *block["args"], f"--out={path}"])
    capsys.readouterr()
    assert code == block["exit_code"]
    check(path.read_bytes(), block["report_json"])
