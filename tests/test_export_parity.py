"""The spectrum and texture exports against a stored reference.

tests/data/export_reference.json holds, for three configurations, the
sha256 and byte length of each CSV and JSON export as produced by the
per-point exporters the batched ones replaced (see
tests/data/make_export_reference.py).  The batched exporters must
reproduce every export byte for byte.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bispinor import cli

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "export_reference.json").read_text())
CASES = [(name, key) for name, block in sorted(REFERENCE.items())
         for key in sorted(block["exports"])]


@pytest.mark.parametrize("name, key", CASES)
def test_export_matches_reference(name, key, capsys):
    table, fmt = key.split(".")
    code = cli.main([table, *REFERENCE[name]["args"], f"--format={fmt}"])
    data = capsys.readouterr().out.encode("utf-8")
    assert code == 0
    want = REFERENCE[name]["exports"][key]
    assert len(data) == want["bytes"]
    assert hashlib.sha256(data).hexdigest() == want["sha256"]
