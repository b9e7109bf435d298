"""``bispinor verify`` and its JSON report against a stored reference.

tests/data/verify_reference.json holds, for three configurations, the exit
code and the sha256 and byte length of the ``verify`` standard output and of
the JSON file ``verify --out`` writes.  Changes meant to leave every draw
and residual as it was must reproduce both byte for byte; a change that
moves residuals on purpose regenerates this file and the term digest with

    PYTHONPATH=src python tests/data/make_registry_references.py

and says so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bispinor import cli
from bispinor.harness import SuiteConfig

DATA = Path(__file__).parent / "data"
REFERENCE = json.loads((DATA / "verify_reference.json").read_text())
DIGEST = json.loads((DATA / "term_digest.json").read_text())


def check(data: bytes, want: dict) -> None:
    assert len(data) == want["bytes"]
    assert hashlib.sha256(data).hexdigest() == want["sha256"]


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_options_match_the_registry_reference_config(name):
    # both references come from tests/data/reference_configs.py: the options
    # stored here must give the configuration the term digest ran
    assert sorted(REFERENCE) == sorted(DIGEST)
    args = cli.build_parser().parse_args(["verify", *REFERENCE[name]["args"]])
    kwargs = {k: tuple(v) if isinstance(v, list) else v
              for k, v in DIGEST[name]["config"].items()}
    assert cli.config_from_args(args) == SuiteConfig(**kwargs)


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
    code = cli.main(["verify", *block["args"], f"--out={path}"])
    capsys.readouterr()
    assert code == block["exit_code"]
    check(path.read_bytes(), block["report_json"])
