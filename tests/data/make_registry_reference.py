"""Write the registry reference used by tests/test_registry_parity.py.

Runs ``run_all`` for each configuration in reference_configs.py with
whichever ``bispinor`` is first on the path and prints, per configuration,
the configuration itself and each check's status, sample count and
max_residual as JSON.  The test demands these numbers exactly, so run it
from the checkout under test whenever a change moves residuals on purpose
(a new draw, stream or formula), and say so in CHANGES.md:

    PYTHONPATH=src python tests/data/make_registry_reference.py \
        > tests/data/registry_reference.json
"""

import json

from bispinor.harness import run_all
from reference_configs import CONFIGS, suite_config


def main():
    out = {}
    for name, kwargs in CONFIGS.items():
        report = run_all(suite_config(kwargs))
        out[name] = {
            "config": kwargs,
            "entries": {e.test_id: {"status": e.status, "samples": e.samples,
                                    "max_residual": e.max_residual}
                        for e in report.entries},
        }
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
