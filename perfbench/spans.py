"""In-memory spans recorded around calls into the slgeo modules.

A span has a name, a layer (the slgeo module it calls into, or "bench"
for the harness itself), a start, an end, its parent span and a pass id.
Spans are kept in memory and written out once, when the benchmark ends.
With tracing off, ``span`` returns a shared no-op context manager, so an
untraced pass pays one method call per span site and records nothing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.tracer._open.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._open.pop()
        return False


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.pass_id = None
        self._open: list[int] = []

    def span(self, name: str):
        """Context manager timing one call; the layer is the name's prefix."""
        if not self.enabled:
            return _NULL
        record = {"id": len(self.spans), "name": name,
                  "layer": name.split(".", 1)[0], "start": None, "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "pass": self.pass_id}
        self.spans.append(record)
        return _Span(self, record)

    def _closed(self, pass_id):
        return [s for s in self.spans
                if s["pass"] == pass_id and s["end"] is not None]

    def durations(self, pass_id) -> dict:
        """Total seconds per span name within one pass."""
        out = defaultdict(float)
        for s in self._closed(pass_id):
            out[s["name"]] += s["end"] - s["start"]
        return dict(out)

    def self_times(self, pass_id) -> dict:
        """Seconds per layer within one pass, each span's duration minus
        the part of it covered by its child spans."""
        spans = self._closed(pass_id)
        child = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in spans:
            out[s["layer"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"clock": "time.perf_counter", "spans": self.spans}, fh)
