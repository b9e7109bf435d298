"""The registry against a stored reference, and its verdicts on overflow.

tests/data/registry_reference.json holds, for three configurations, each
check's status, sample count and max_residual as ``run_all`` produces them
(see tests/data/make_registry_reference.py).  Every check draws from its own
stream keyed by the seed and its ID, so the run is deterministic and must
reproduce the reference exactly.  A change that moves residuals on purpose
regenerates the file with that script and says so.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from bispinor.harness.checks import run_all
from bispinor.harness.config import SuiteConfig

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "registry_reference.json").read_text())


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_registry_matches_reference(name):
    block = REFERENCE[name]
    cfg = SuiteConfig(**{k: tuple(v) if isinstance(v, list) else v
                         for k, v in block["config"].items()})
    report = run_all(cfg)
    assert sorted(e.test_id for e in report.entries) == sorted(block["entries"])
    for e in report.entries:
        want = block["entries"][e.test_id]
        assert (e.status, e.samples, e.max_residual) == (
            want["status"], want["samples"], want["max_residual"]), e.test_id


def test_overflowing_momenta_fail():
    # |p| ~ 1e160 overflows the Hamiltonians to inf/NaN; such residuals must
    # fail, and the run must still complete
    cfg = SuiteConfig(p1_range=(-1e160, 1e160), p2_range=(-1e160, 1e160))
    with np.errstate(all="ignore"):
        report = run_all(cfg)
    status = {e.test_id: e.status for e in report.entries}
    for test_id in ("spectrum.eigen_identity", "timereversal.pseudo_hermiticity",
                    "momenta.isospectrality", "momenta.factorization", "susy.algebra"):
        assert status[test_id] == "fail", test_id
