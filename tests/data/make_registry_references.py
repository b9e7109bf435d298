"""Write the two registry references, term_digest.json and verify_reference.json.

For each configuration in reference_configs.py, with whichever ``bispinor``
is first on the path:

* term_digest.json (tests/test_term_digest.py) holds the configuration and,
  per check, its sample count, its term names in order and the sha256 of
  their residual arrays' ``tobytes()``, concatenated in term order.  The
  terms are the ones ``run_all`` hands to ``worst_term``, so every entry of
  every term is pinned bit for bit, NaN signs included.
* verify_reference.json (tests/test_verify_parity.py) holds the same
  configuration spelled as command-line options, the exit code, and the
  sha256 and byte length of the ``bispinor verify`` standard output and of
  the JSON file ``bispinor verify --out`` writes.

Only a change that moves residuals on purpose (a new draw, stream or
formula) regenerates them, from the checkout under test, and says so in
CHANGES.md:

    PYTHONPATH=src python tests/data/make_registry_references.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from bispinor import cli
from bispinor.harness import checks
from reference_configs import CONFIGS, cli_args, suite_config

DATA = Path(__file__).resolve().parent


def term_digests(cfg) -> dict:
    """Per check ID, the sample count, the term names and the sha256 of
    their tobytes() in order, captured from one ``run_all`` over cfg."""
    captured = []
    reduce = checks.worst_term

    def capture(terms):
        captured.append(terms)
        return reduce(terms)

    checks.worst_term = capture
    try:
        report = checks.run_all(cfg)
    finally:
        checks.worst_term = reduce
    samples = {e.test_id: e.samples for e in report.entries}
    out = {}
    for (test_id, *_), terms in zip(checks.REGISTRY, captured, strict=True):
        h = hashlib.sha256()
        for residual in terms.values():
            h.update(np.asarray(residual).tobytes())
        out[test_id] = {"samples": samples[test_id], "terms": list(terms),
                        "sha256": h.hexdigest()}
    return out


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def verify_stdout(args: list[str]) -> tuple[int, bytes]:
    """Exit code and standard output (UTF-8) of ``bispinor verify``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", *args])
    return code, out.getvalue().encode("utf-8")


def report_json(args: list[str]) -> bytes:
    """The JSON file ``bispinor verify --out`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", *args, f"--out={path}"])
        with open(path, "rb") as fh:
            return fh.read()


def write(name: str, out: dict) -> None:
    (DATA / name).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main():
    terms, verify = {}, {}
    for name, kwargs in CONFIGS.items():
        terms[name] = {"config": kwargs, "checks": term_digests(suite_config(kwargs))}
        args = cli_args(kwargs)
        code, text = verify_stdout(args)
        verify[name] = {"args": args, "exit_code": code,
                        "verify_stdout": digest(text), "report_json": digest(report_json(args))}
    write("term_digest.json", terms)
    write("verify_reference.json", verify)


if __name__ == "__main__":
    main()
