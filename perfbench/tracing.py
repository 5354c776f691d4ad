"""In-memory spans for the traced run, written out when the run ends."""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time


class Tracer:
    """Spans with name, start, end and the id of the span that caused
    them. A top-level span is one operation; its children share its id as
    their ``op``."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": sid, "name": name, "parent": parent,
               "op": self.spans[self._stack[0]]["id"] if self._stack else sid,
               "start": time.perf_counter() - self.t0, "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self.t0

    def durations(self, name: str, **match) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None
                and all(s.get(k) == v for k, v in match.items())]

    def total(self, name: str, **match) -> float:
        return sum(self.durations(name, **match))

    def median(self, name: str, **match) -> float:
        return statistics.median(self.durations(name, **match))

    def dump(self, path: str, extra: dict) -> None:
        with open(path + ".tmp", "w") as f:
            json.dump({**extra, "spans": self.spans}, f)
        os.replace(path + ".tmp", path)


class NoTracer:
    """Tracing off: spans cost nothing and record nothing."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext({})
