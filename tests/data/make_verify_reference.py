"""Write the verify/report reference used by tests/test_verify_parity.py.

Runs ``bispinor verify`` and ``bispinor report --out`` for each
configuration in reference_configs.py, spelled as command-line options,
with whichever ``bispinor`` is first on the path and prints, per
configuration, the options, the exit code, and the sha256 and byte length
of the ``verify`` standard output and of the written JSON report.
Regenerate it together with registry_reference.json:

    PYTHONPATH=src python tests/data/make_verify_reference.py \
        > tests/data/verify_reference.json
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

from bispinor import cli
from reference_configs import CONFIGS, cli_args


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
    for name, kwargs in CONFIGS.items():
        args = cli_args(kwargs)
        code, text = verify_stdout(args)
        out[name] = {"args": args, "exit_code": code,
                     "verify_stdout": digest(text), "report_json": digest(report_json(args))}
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
