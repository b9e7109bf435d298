"""Write the term digest used by tests/test_term_digest.py.

Runs ``run_all`` for the default configuration and for the benchmark's
verify_deep inputs at seed 1 (see reference_configs.py) with whichever
``bispinor`` is first on the path, and prints, per configuration, the
configuration itself and, per check, its term names in order and the
sha256 of their residual arrays' ``tobytes()``, concatenated in term order.
The terms are the ones ``run_all`` hands to ``worst_term``.  The stored
file pins every term bit for bit, NaN signs included, so only a change that
moves residuals on purpose regenerates it, and says so in CHANGES.md:

    PYTHONPATH=src python tests/data/make_term_digest.py \
        > tests/data/term_digest.json
"""

import hashlib
import json

import numpy as np

from bispinor.harness import checks
from reference_configs import CONFIGS, suite_config

DIGEST_CONFIGS = ("default", "verify_deep_seed1")


def term_digests(cfg) -> dict:
    """Per check ID, the term names and the sha256 of their tobytes() in
    order, captured from one ``run_all`` over cfg."""
    captured = []
    reduce = checks.worst_term

    def capture(terms):
        captured.append(terms)
        return reduce(terms)

    checks.worst_term = capture
    try:
        checks.run_all(cfg)
    finally:
        checks.worst_term = reduce
    out = {}
    for (test_id, *_), terms in zip(checks.REGISTRY, captured, strict=True):
        h = hashlib.sha256()
        for residual in terms.values():
            h.update(np.asarray(residual).tobytes())
        out[test_id] = {"terms": list(terms), "sha256": h.hexdigest()}
    return out


def main():
    out = {name: {"config": CONFIGS[name], "checks": term_digests(suite_config(CONFIGS[name]))}
           for name in DIGEST_CONFIGS}
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
