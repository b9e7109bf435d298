"""Write the registry reference used by tests/test_registry_parity.py.

Runs ``run_all`` for each reference configuration with whichever
``bispinor`` is first on the path and prints, per configuration, the
configuration itself and each check's status, sample count and
max_residual as JSON:

    PYTHONPATH=<checkout>/src python tests/data/make_registry_reference.py \\
        > tests/data/registry_reference.json
"""

import json

from bispinor.harness import SuiteConfig, run_all

CONFIGS = {
    "default": {},
    "samples300_seed3": {"samples": 300, "seed": 3},
    # the benchmark's verify_deep inputs for seed 1
    "verify_deep_seed1": {
        "gamma_values": [0.0, -0.658144, 0.625381, 0.474794, -0.440876, -0.008217, -0.090916],
        "beta_values": [1.477389, 1.683085, 0.640789],
        "p1_range": [-3.471653, 2.528347],
        "p2_range": [-2.664235, 3.335765],
        "samples": 100,
        "seed": 1,
    },
}


def main():
    out = {}
    for name, kwargs in CONFIGS.items():
        cfg = SuiteConfig(**{k: tuple(v) if isinstance(v, list) else v
                             for k, v in kwargs.items()})
        report = run_all(cfg)
        out[name] = {
            "config": kwargs,
            "entries": {e.test_id: {"status": e.status, "samples": e.samples,
                                    "max_residual": e.max_residual}
                        for e in report.entries},
        }
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
