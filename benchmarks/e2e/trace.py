"""Benchmark-owned tracer: in-memory spans, self time, JSON dump.

Spans are recorded from the benchmark's own files around the calls into
each layer (``repro.obs`` spans inside the program are a later issue).
A span is ``{id, name, start, end, parent, run_id}``; the parent is the
span open on the same thread when this one started.  Nothing is written
until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Collects spans when ``enabled``; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    @contextmanager
    def span(self, name: str, run_id: str = ""):
        """Time the enclosed block as one span (no-op when disabled)."""
        if not self.enabled:
            yield None
            return
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        record = {
            "id": None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1]["id"] if stack else None,
            "run_id": run_id or (stack[-1]["run_id"] if stack else ""),
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def total(self, name: str, run_id: str | None = None) -> float:
        """Summed duration of the closed spans called ``name`` (of one run)."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name
            and s["end"] is not None
            and (run_id is None or s["run_id"] == run_id)
        )

    def dump(self, path) -> None:
        """Write every span, with its self time, as JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self_times(self.spans)
        rows = [dict(s, self_s=own[s["id"]]) for s in self.spans]
        path.write_text(json.dumps({"spans": rows}, indent=1) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: duration minus the part of the interval
    its child spans cover (overlapping children are not counted twice)."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None and s["end"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out: dict[int, float] = {}
    for s in spans:
        if s["end"] is None:
            continue
        covered = 0.0
        reach = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo = max(c["start"], reach)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
