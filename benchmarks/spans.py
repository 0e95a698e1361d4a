"""Spans around calls into the package, recorded from the benchmark's side.

:func:`install` replaces public functions of the package with wrappers that
record how long each call took and how often it ran. The package itself is
not edited: the wrappers replace module attributes that callers look up at
call time (for example the ``pipeline`` globals that ``rank_alternatives``
calls), and :meth:`Tracer.uninstall` puts the originals back.

Each span has a name of the form ``<layer>.<step>``, where the layer is the
package module. Inclusive time, self time (inclusive minus the time of the
spans nested in it) and call counts are summed per name. Coarse spans (one
per op and stage) are also kept individually as (name, start, end, parent,
op) records and written out when the run ends; per-cell spans are only
summed, so a traced run holds a bounded amount of memory.
"""

from __future__ import annotations

import gc
import json
from collections import Counter, defaultdict
from time import perf_counter

#: Span names kept as individual records.
KEPT = frozenset(
    {
        "op",
        "loading.load",
        "pipeline.rank",
        "pipeline.normalize",
        "reporting.emit",
        "cli.startup",
        "cli.import",
        "cli.main",
        "cli.teardown",
    }
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.stack: list[list] = []
        self.op: int | None = None
        self.section = "other"  # "load" or "rank": where MassFunction objects are built
        self.phase = "dm"  # "dm" until the first cross-decision-maker discount of a rank call
        self.gc_time = 0.0
        self.gc_collections = 0
        self._gc_start: float | None = None
        self._undo: list[tuple] = []

    # --- spans ---------------------------------------------------------------

    def enter(self, name: str) -> list:
        frame = [name, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        self.record(frame[0], frame[1], end, child_time=frame[2])

    def record(self, name: str, start: float, end: float, child_time: float = 0.0) -> None:
        """Account a finished span under the innermost open one."""
        duration = end - start
        self.total[name] += duration
        self.self_time[name] += duration - child_time
        self.calls[name] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if name in KEPT:
            self.spans.append((name, start, end, parent[0] if parent else None, self.op))

    def merge(self, child: dict) -> None:
        """Fold the sums and kept spans of a traced child process (see child.py)
        into this tracer, under the innermost open span."""
        for name, value in child["total"].items():
            self.total[name] += value
        for name, value in child["self_time"].items():
            self.self_time[name] += value
        self.calls.update(child["calls"])
        self.stack[-1][2] += child["end"] - child["start"]
        self.spans += [(name, start, end, parent, self.op) for name, start, end, parent, _ in child["spans"]]
        self.gc_time += child["gc_time"]
        self.gc_collections += child["gc_collections"]

    def dump(self) -> dict:
        return {
            "total": dict(self.total),
            "self_time": dict(self.self_time),
            "calls": dict(self.calls),
            "spans": self.spans,
            "gc_time": self.gc_time,
            "gc_collections": self.gc_collections,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                out.write("\n")

    # --- wrappers --------------------------------------------------------------

    def wrap(self, owner, attr: str, name, section: str | None = None, phase: str | None = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper. ``name`` is a span name
        or a function returning one; ``section`` and ``phase`` are set while
        the call runs (``phase`` stays set after it returns)."""
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if phase is not None:
                tracer.phase = phase
            if section is not None:
                outer, tracer.section = tracer.section, section
            frame = tracer.enter(name if isinstance(name, str) else name())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
                if section is not None:
                    tracer.section = outer

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def count(self, owner, attr: str, name) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts calls."""
        fn = getattr(owner, attr)
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name()] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, fn))

    def _on_gc(self, phase: str, info: dict) -> None:
        # Only collections that run inside a span count; the benchmark's own
        # checks between ops may collect too.
        if phase == "start":
            self._gc_start = perf_counter() if self.stack else None
        elif self._gc_start is not None:
            self.gc_time += perf_counter() - self._gc_start
            self.gc_collections += 1

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)


def install(tracer: Tracer, entry) -> None:
    """Trace the package's stages as called through ``entry``, a module that
    exposes ``load_problem``, ``rank_alternatives`` and ``emit_report`` (the
    package itself, or ``intervalfusion.cli``)."""
    from intervalfusion import evidence, loading, pipeline

    tracer.wrap(entry, "load_problem", "loading.load", section="load")
    tracer.wrap(entry, "rank_alternatives", "pipeline.rank", section="rank", phase="dm")
    tracer.wrap(entry, "emit_report", "reporting.emit")
    tracer.wrap(loading, "as_interval", "fuzzy.as_interval")
    tracer.wrap(pipeline, "normalize_weight_group", "pipeline.normalize")
    tracer.wrap(pipeline, "discount_to_interval_bpa", "pipeline.discount")
    tracer.wrap(pipeline, "discount_interval_bpa", "pipeline.discount_cross", phase="cross")
    tracer.wrap(pipeline, "fuse_interval_bpas", lambda: "pipeline.fuse_" + tracer.phase)
    tracer.wrap(pipeline, "collapse_interval_bpa", "pipeline.collapse")
    tracer.wrap(pipeline, "bet_ideal", "pipeline.bet")
    tracer.wrap(evidence.MassFunction, "combine", "evidence.combine")
    tracer.count(evidence.MassFunction, "__post_init__", lambda: "evidence.masses_built." + tracer.section)
    gc.callbacks.append(tracer._on_gc)
