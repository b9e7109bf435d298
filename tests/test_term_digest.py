"""Every registry term against a stored digest, bit for bit.

tests/data/term_digest.json holds, for each configuration in
tests/data/reference_configs.py, each check's sample count, its term names
and the sha256 of their residual arrays' ``tobytes()`` in term order.  The
verify reference pins only the printed digits; this pins every entry of
every term, so a refactor that must not move residuals (batching, stacking
variants into one call) is held to the same bits, and a moved residual is
named by its check.  A change that moves residuals on purpose regenerates
both references with

    PYTHONPATH=src python tests/data/make_registry_references.py

and says so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bispinor.harness import checks
from bispinor.harness.config import SuiteConfig

DIGEST = json.loads((Path(__file__).parent / "data" / "term_digest.json").read_text())


@pytest.mark.parametrize("name", sorted(DIGEST))
def test_run_all_terms_match_the_digest(name, monkeypatch):
    captured = []
    reduce = checks.worst_term

    def capture(terms):
        captured.append(terms)
        return reduce(terms)

    monkeypatch.setattr(checks, "worst_term", capture)
    cfg = SuiteConfig(**{k: tuple(v) if isinstance(v, list) else v
                         for k, v in DIGEST[name]["config"].items()})
    samples = {e.test_id: e.samples for e in checks.run_all(cfg).entries}
    want = DIGEST[name]["checks"]
    assert sorted(test_id for test_id, *_ in checks.REGISTRY) == sorted(want)
    assert len(captured) == len(want)          # no check raised
    for (test_id, *_), terms in zip(checks.REGISTRY, captured):
        h = hashlib.sha256()
        for residual in terms.values():
            h.update(np.asarray(residual).tobytes())
        assert (samples[test_id], list(terms), h.hexdigest()) == (
            want[test_id]["samples"], want[test_id]["terms"], want[test_id]["sha256"]), test_id
