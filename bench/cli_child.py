"""Run one ``bispinor`` command in a fresh process under the tracer.

Usage: python3 bench/cli_child.py STATS_JSON SPANS_FILE COMMAND [OPTIONS...]

Times the import of ``bispinor.cli`` and the call of ``cli.main`` with the
remaining arguments, then writes the exit code, the captured standard
output, both times and the tracer's counts to STATS_JSON and the spans to
SPANS_FILE.  ``src`` must be on PYTHONPATH.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    stats_path, spans_path, *argv = sys.argv[1:]
    t0 = time.perf_counter()
    from bispinor import cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer, leftover_patches

    tracer = Tracer()
    out = io.StringIO()
    t0 = time.perf_counter()
    with tracer, contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    main_s = time.perf_counter() - t0
    tracer.write_spans(spans_path)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "stdout": out.getvalue(), "import_s": import_s,
                   "main_s": main_s, "leftover": leftover_patches(),
                   "stats": tracer.stats()}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
