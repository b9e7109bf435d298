"""The configurations both stored registry references are made from.

Each entry is a set of ``SuiteConfig`` keyword arguments; ``cli_args``
spells the same configuration as ``bispinor`` options, so the term digest
and the verify reference cannot pin different inputs.  Both are
written by make_registry_references.py.
"""

from bispinor.harness import SuiteConfig

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


def suite_config(kwargs: dict) -> SuiteConfig:
    return SuiteConfig(**{k: tuple(v) if isinstance(v, list) else v
                          for k, v in kwargs.items()})


def cli_args(kwargs: dict) -> list[str]:
    """The options that give ``suite_config(kwargs)`` on the command line."""
    args = [f"--{flag}=" + ",".join(repr(x) for x in kwargs[key])
            for key, flag in (("gamma_values", "gamma"), ("beta_values", "beta"))
            if key in kwargs]
    if "p1_range" in kwargs:
        n = kwargs.get("grid_points", SuiteConfig.grid_points)
        args.append("--grid=" + ",".join(f"{lo!r}:{hi!r}:{n}" for lo, hi in
                                         (kwargs["p1_range"], kwargs["p2_range"])))
    return args + [f"--{key}={kwargs[key]}" for key in ("samples", "seed") if key in kwargs]
