"""Outside-in tracer: spans around calls into the public functions of each
``bispinor`` module, installed and removed from the benchmark's side.

No file under ``src/`` is touched.  A traced function is rebound in every
``bispinor.*`` module namespace that holds it (``checks`` keeps its own
copies of the multivector kernel; ``spectrum``, ``timereversal`` and
``susy`` hold ``rashba``; ``timereversal`` holds ``eigensystem``), methods
are patched on their classes, and the check registry tuple is swapped for
one whose check functions are wrapped.  Callable instances such as
``timereversal.TIME_REVERSAL`` are never wrapped; patching ``TimeReversal``
itself covers them.

Spans (name, start, end, parent) are kept in memory and written out by
:meth:`Tracer.write_spans` when the run ends.  A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (module, attribute, span name, metrics reported for the span).  Functions
# are rebound wherever the same object appears in a bispinor module
# namespace.
FUNCTIONS = (
    ("bispinor.multivector", "make_deformed_basis", "multivector.make_deformed_basis",
     ("calls", "misses", "hit_ratio", "self_s")),
    ("bispinor.multivector", "time_reverse_matrix", "multivector.time_reverse_matrix",
     ("calls", "self_s")),
    ("bispinor.multivector", "geometric_product", "multivector.geometric_product",
     ("calls", "self_s")),
    ("bispinor.multivector", "to_matrix", "multivector.to_matrix", ("self_s",)),
    ("bispinor.multivector", "involute", "multivector.involute", ("self_s",)),
    ("bispinor.momenta", "rashba", "momenta.rashba", ("calls",)),
    ("bispinor.spectrum", "eigensystem", "spectrum.eigensystem", ("calls", "self_s")),
    ("bispinor.spectrum", "phi_angles", "spectrum.phi_angles", ("self_s",)),
    ("bispinor.spectrum", "spin_vector", "spectrum.spin_vector", ("self_s",)),
    ("bispinor.spectrum", "projectors", "spectrum.projectors", ("self_s",)),
    ("bispinor.timereversal", "pseudo_hermitian_residual",
     "timereversal.pseudo_hermitian_residual", ("self_s",)),
    ("bispinor.timereversal", "kramers_analogue", "timereversal.kramers_analogue",
     ("self_s",)),
    ("bispinor.ideal", "to_ideal", "ideal.to_ideal", ("calls", "self_s")),
    ("bispinor.ideal", "inner_c1", "ideal.inner_c1", ("self_s",)),
    ("bispinor.susy", "supercharges", "susy.supercharges", ("self_s",)),
    ("bispinor.susy", "susy_hamiltonian", "susy.susy_hamiltonian", ("self_s",)),
    ("bispinor.susy", "pseudo_susy", "susy.pseudo_susy", ("self_s",)),
    ("bispinor.biortho", "build_pair", "biortho.build_pair", ("self_s",)),
    ("bispinor.harness.tables", "render", "harness.tables.render", ("self_s",)),
)

# (module, class, method, span name, metrics reported for the span).
METHODS = (
    ("bispinor.momenta", "MomentumHamiltonian", "evaluate",
     "momenta.MomentumHamiltonian.evaluate", ("calls", "self_s")),
    ("bispinor.momenta", "CliffordMomentum", "evaluate",
     "momenta.CliffordMomentum.evaluate", ("calls", "self_s")),
    ("bispinor.timereversal", "TimeReversal", "apply", "timereversal.TimeReversal.apply",
     ("calls",)),
    ("bispinor.harness.report", "ConformanceReport", "to_text", "harness.report.to_text",
     ("self_s",)),
)

CACHED = ("bispinor.multivector", "make_deformed_basis")
CHECK_PREFIX = "harness.check."
_MARK = "_bench_traced"


def bispinor_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bispinor" or name.startswith("bispinor."))]


class Tracer:
    """Records spans for the calls it wraps between install() and restore()."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.table_rows = 0
        self.table_bytes = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cache_info = None
        self._cache_before = None
        self.cache_delta = (0, 0)   # (hits, misses) over the traced interval

    # ------------------------------------------------------------ spans

    def _wrap(self, name: str, fn, counts_table: bool = False):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
            self.total_s[name] = 0.0
        name_id = self._ids[name]
        stack = self._stack
        sname, sstart, send, sparent = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter

        def counted(rows):
            for row in rows:
                self.table_rows += 1
                yield row

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_table and len(args) >= 2:
                args = (args[0], counted(args[1])) + args[2:]
            idx = len(sstart)
            frame = [idx, 0.0]
            sname.append(name_id)
            sparent.append(stack[-1][0] if stack else -1)
            send.append(0.0)
            stack.append(frame)
            t0 = clock()
            sstart.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                send[idx] = t1
                dur = t1 - t0
                calls[name] += 1
                total_s[name] += dur
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if counts_table and isinstance(result, str):
                self.table_bytes += len(result.encode("utf-8"))
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    # ----------------------------------------------------------- patching

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced name.  Targets missing from the program are
        skipped; their metrics then read 0."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name in {t[0] for t in FUNCTIONS + METHODS}:
            try:
                importlib.import_module(mod_name)
            except ImportError:
                pass
        mods = bispinor_modules()
        by_name = {m.__name__: m for m in mods}
        cached = getattr(by_name.get(CACHED[0]), CACHED[1], None)
        self._cache_info = getattr(cached, "cache_info", None)
        for mod_name, attr, span, _ in FUNCTIONS:
            mod = by_name.get(mod_name)
            orig = getattr(mod, attr, None) if mod is not None else None
            if orig is None:
                continue
            wrapper = self._wrap(span, orig, counts_table=span == "harness.tables.render")
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapper)
        for mod_name, cls_name, meth, span, _ in METHODS:
            cls = getattr(by_name.get(mod_name), cls_name, None)
            orig = vars(cls).get(meth) if cls is not None else None
            if orig is None:
                continue
            self._set(cls, meth, self._wrap(span, orig))
        checks = by_name.get("bispinor.harness.checks")
        registry = getattr(checks, "REGISTRY", None)
        if registry is not None:
            wrapped = tuple(
                tuple(self._wrap(CHECK_PREFIX + entry[0], item) if callable(item) else item
                      for item in entry)
                for entry in registry
            )
            self._set(checks, "REGISTRY", wrapped)
        self._cache_before = self._cache_info() if self._cache_info else None

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        if self._cache_before is not None:
            after = self._cache_info()
            self.cache_delta = (after.hits - self._cache_before.hits,
                                after.misses - self._cache_before.misses)
            self._cache_before = None
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # ------------------------------------------------------------ output

    def write_spans(self, path) -> None:
        """Write the spans: one JSON header line naming the layout, then the
        four arrays in native byte order (name ids, starts, ends, parents;
        parent -1 marks a root span)."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "layout": ["name:int32", "start:float64", "end:float64", "parent:int32"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.span_name, self.span_start, self.span_end, self.span_parent):
                arr.tofile(fh)

    def stats(self) -> dict:
        """Per-span-name counts and times, plus the cache and table counters."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "cache_hits": self.cache_delta[0],
            "cache_misses": self.cache_delta[1],
            "table_rows": self.table_rows,
            "table_bytes": self.table_bytes,
        }


def leftover_patches() -> list[str]:
    """Names in bispinor modules, classes or the registry that still hold a
    tracer wrapper.  Empty after a clean restore()."""
    found = []
    for m in bispinor_modules():
        for key, value in vars(m).items():
            if getattr(value, _MARK, False):
                found.append(f"{m.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == m.__name__:
                for meth, fn in vars(value).items():
                    if getattr(fn, _MARK, False):
                        found.append(f"{m.__name__}.{key}.{meth}")
            elif key == "REGISTRY" and isinstance(value, tuple):
                for entry in value:
                    if any(getattr(item, _MARK, False) for item in entry):
                        found.append(f"{m.__name__}.REGISTRY[{entry[0]}]")
    return found
