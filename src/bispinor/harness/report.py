"""Conformance report data model and serialization (JSON and plain text).

The report body is deterministic for a fixed configuration and seed: no
timestamps or environment data are included.  The JSON form is strict: a
non-finite max_residual (always a failing entry) is written as null.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class ReportEntry:
    test_id: str
    paper_ref: str
    status: str            # "pass" | "fail"
    max_residual: float
    samples: int


def _finite_residual(entry: dict) -> dict:
    """The entry with a non-finite max_residual replaced by None (JSON null)."""
    if not math.isfinite(entry["max_residual"]):
        entry["max_residual"] = None
    return entry


@dataclass(frozen=True)
class ConformanceReport:
    entries: tuple[ReportEntry, ...]
    tolerance: float
    seed: int

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
            "entries": [_finite_residual(asdict(e)) for e in self.entries],
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
            )
        lines.append(
            f"{self.passed}/{len(self.entries)} checks passed "
            f"(tolerance {self.tolerance:g}, seed {self.seed})"
        )
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
