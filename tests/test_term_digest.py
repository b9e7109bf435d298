"""Every registry term against a stored digest, bit for bit.

tests/data/term_digest.json holds, for each configuration in
tests/data/reference_configs.py, each check's sample count, its term names
and the sha256 of their residual arrays' ``tobytes()`` in term order.  The
verify reference pins only the printed digits; this pins every entry of
every term, so a refactor that must not move residuals (batching, stacking
variants into one call) is held to the same bits, and a moved residual is
named by its check.  The digest here is the one the script that writes the
reference computes (``term_digests``).  A change that moves residuals on
purpose regenerates both references with

    PYTHONPATH=src python tests/data/make_registry_references.py

and says so in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
sys.path.insert(0, str(DATA))

from make_registry_references import term_digests  # noqa: E402
from reference_configs import suite_config  # noqa: E402

DIGEST = json.loads((DATA / "term_digest.json").read_text())


@pytest.mark.parametrize("name", sorted(DIGEST))
def test_run_all_terms_match_the_digest(name):
    assert term_digests(suite_config(DIGEST[name]["config"])) == DIGEST[name]["checks"]
