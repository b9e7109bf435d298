"""Conformance report data model and serialization (JSON and plain text).

The report body is deterministic for a fixed configuration and seed: no
timestamps or environment data are included.  The JSON form is strict: a
non-finite max_residual (always a failing entry) is written as null.  An
entry's term, the worst sub-identity of a failing check, and its error, the
exception a check raised, are written only when set.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

# status is "pass" or "fail"; term is the worst term of a failing check and
# error the exception of a check that raised, both None when unset
ReportEntry = namedtuple("ReportEntry", (
    "test_id", "paper_ref", "status", "max_residual", "samples", "term", "error",
), defaults=(None, None))


def _entry_dict(entry: ReportEntry) -> dict:
    """The entry as JSON-ready fields: a non-finite max_residual becomes
    None (JSON null), and an unset term or error is left out."""
    out = {key: value for key, value in entry._asdict().items() if value is not None}
    if not math.isfinite(out["max_residual"]):
        out["max_residual"] = None
    return out


class ConformanceReport(namedtuple("ConformanceReport", ("entries", "tolerance", "seed"))):
    """The entries of one run, in registry order, with its tolerance and seed."""

    __slots__ = ()

    @property
    def passed(self) -> int:
        return sum(1 for e in self.entries if e.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for e in self.entries if e.status != "pass")

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "seed": self.seed,
            "summary": {
                "total": len(self.entries),
                "passed": self.passed,
                "failed": self.failed,
            },
            "entries": [_entry_dict(e) for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            lines.append(
                f"{e.status.upper():4s} {e.test_id:40s} "
                f"residual={e.max_residual:.3e} samples={e.samples} "
                f"[ref {e.paper_ref}]"
                + (f" term={e.term}" if e.term is not None else "")
                + (f" error={e.error}" if e.error is not None else "")
            )
        lines.append(
            f"{self.passed}/{len(self.entries)} checks passed "
            f"(tolerance {self.tolerance:g}, seed {self.seed})"
        )
        return "\n".join(lines) + "\n"
