"""In-memory span recorder for the benchmark.

Spans are recorded only around the calls the benchmark itself makes into
the package (one span per public call), never inside ``src/``.  A span
holds a name, the layer (package module) it is charged to, start and end
times, its parent span and the run id.  Counts (steps, records, ...) are
attached at the same boundaries, so ratios are measured where the work
happens.  With ``keep_spans=False`` only the counts are kept: that is the
untraced mode, whose per-call cost is one generator and a few dict adds.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class _Counts:
    __slots__ = ("totals",)

    def __init__(self, totals: dict):
        self.totals = totals

    def count(self, **counts) -> None:
        for key, value in counts.items():
            self.totals[key] = self.totals.get(key, 0) + int(value)


class Span(_Counts):
    __slots__ = ("id", "name", "layer", "parent", "run_id", "start", "end", "counts", "ok")

    def __init__(self, totals, sid, name, layer, parent, run_id):
        super().__init__(totals)
        self.id, self.name, self.layer, self.parent, self.run_id = sid, name, layer, parent, run_id
        self.start = self.end = 0.0
        self.counts = {}
        self.ok = True

    @property
    def duration(self) -> float:
        return self.end - self.start

    def count(self, **counts) -> None:
        super().count(**counts)
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + int(value)

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "layer": self.layer, "parent": self.parent,
                "run_id": self.run_id, "start": self.start, "end": self.end,
                "counts": self.counts, "ok": self.ok}


class Tracer:
    """Collects spans in memory; ``write`` dumps them once, at the end."""

    def __init__(self, run_id: str = "", keep_spans: bool = True):
        self.run_id = run_id
        self.keep_spans = keep_spans
        self.totals: dict[str, int] = {}
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, layer: str):
        if not self.keep_spans:
            yield _Counts(self.totals)
            return
        parent = self._stack[-1].id if self._stack else None
        sp = Span(self.totals, len(self.spans), name, layer, parent, self.run_id)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException:
            sp.ok = False
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.duration
        out: dict[str, float] = {}
        for sp in self.spans:
            out[sp.layer] = out.get(sp.layer, 0.0) + sp.duration - child_time[sp.id]
        return out

    def layer_calls(self) -> dict[str, dict[str, int]]:
        """Calls and failed (raising) calls per layer."""
        out: dict[str, dict[str, int]] = {}
        for sp in self.spans:
            entry = out.setdefault(sp.layer, {"calls": 0, "failed": 0})
            entry["calls"] += 1
            entry["failed"] += 0 if sp.ok else 1
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([sp.as_dict() for sp in self.spans], fh)
            fh.write("\n")
