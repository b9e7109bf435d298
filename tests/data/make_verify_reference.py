"""Write the verify/report reference used by tests/test_verify_parity.py.

Runs ``bispinor verify`` and ``bispinor report --out`` for each reference
configuration with whichever ``bispinor`` is first on the path and prints,
per configuration, its command-line options, the exit code, and the sha256
and byte length of the ``verify`` standard output and of the written JSON
report:

    PYTHONPATH=<checkout>/src python tests/data/make_verify_reference.py \\
        > tests/data/verify_reference.json
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

from bispinor import cli

CONFIGS = {
    "default": [],
    "samples300_seed3": ["--samples=300", "--seed=3"],
    # the benchmark's verify_deep inputs for seed 1
    "verify_deep_seed1": [
        "--gamma=0.0,-0.658144,0.625381,0.474794,-0.440876,-0.008217,-0.090916",
        "--beta=1.477389,1.683085,0.640789",
        "--grid=-3.471653:2.528347:12,-2.664235:3.335765:12",
        "--samples=100",
        "--seed=1",
    ],
}


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def verify_stdout(args: list[str]) -> tuple[int, bytes]:
    """Exit code and standard output (UTF-8) of ``bispinor verify``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", *args])
    return code, out.getvalue().encode("utf-8")


def report_json(args: list[str]) -> bytes:
    """The JSON file ``bispinor report --out`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["report", *args, f"--out={path}"])
        with open(path, "rb") as fh:
            return fh.read()


def main():
    out = {}
    for name, args in CONFIGS.items():
        code, text = verify_stdout(args)
        out[name] = {"args": args, "exit_code": code,
                     "verify_stdout": digest(text), "report_json": digest(report_json(args))}
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
