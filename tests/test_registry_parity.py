"""The registry's verdicts on overflow.

Status, sample count and max_residual at the reference configurations are
pinned by tests/test_verify_parity.py (the ``report --out`` JSON) and by
tests/test_term_digest.py (every term).
"""

import numpy as np

from bispinor.harness.checks import run_all
from bispinor.harness.config import SuiteConfig


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


def test_non_finite_residuals_fail_at_any_tolerance():
    # tolerance * multiplier overflows to inf at tol = 1e308, and inf <= inf;
    # a residual that is not finite must fail all the same
    cfg = SuiteConfig(p1_range=(-1e160, 1e160), p2_range=(-1e160, 1e160), tolerance=1e308)
    with np.errstate(all="ignore"):
        report = run_all(cfg)
    unbounded = [e for e in report.entries if not np.isfinite(e.max_residual)]
    assert unbounded
    assert [e.test_id for e in unbounded if e.status != "fail"] == []
