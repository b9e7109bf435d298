"""Write the export reference used by tests/test_export_parity.py.

Runs ``bispinor spectrum`` and ``bispinor texture`` in CSV and JSON for each
reference configuration with whichever ``bispinor`` is first on the path and
prints, per configuration, its command-line options and each export's
sha256 and byte length as JSON:

    PYTHONPATH=<checkout>/src python tests/data/make_export_reference.py \\
        > tests/data/export_reference.json
"""

import contextlib
import hashlib
import io
import json

from bispinor import cli

EXPORTS = [(table, fmt) for table in ("spectrum", "texture") for fmt in ("csv", "json")]

CONFIGS = {
    "default": [],
    # the origin on the grid and a zero beta in the list
    "origin_zero_beta": ["--gamma=0,0.8,-0.3", "--beta=1,0,2.5", "--grid=-2:2:5"],
    # the benchmark's sweep_export inputs for seed 1
    "sweep_export_seed1": [
        "--gamma=-0.658144,0.625381,0.474794",
        "--beta=0.882604,1.243153",
        "--grid=-3.050509:2.949491:32,-2.848407:3.151593:32",
        "--samples=50",
        "--seed=1",
    ],
}


def export(table: str, fmt: str, args: list[str]) -> bytes:
    """Standard output of one export as UTF-8 bytes; raises on a nonzero
    exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([table, *args, f"--format={fmt}"])
    if code != 0:
        raise RuntimeError(f"{table} {fmt} {args}: exit code {code}")
    return out.getvalue().encode("utf-8")


def main():
    out = {}
    for name, args in CONFIGS.items():
        digests = {}
        for table, fmt in EXPORTS:
            data = export(table, fmt, args)
            digests[f"{table}.{fmt}"] = {"sha256": hashlib.sha256(data).hexdigest(),
                                         "bytes": len(data)}
        out[name] = {"args": args, "exports": digests}
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
