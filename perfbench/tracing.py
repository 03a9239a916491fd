"""In-memory spans recorded from the benchmark around calls into the library.

A span has a name, a start and an end (ns), a parent span and the run id
it belongs to.  Spans stay in memory until the run ends: a worker process
returns its spans to ``run.py``, which links them under its own span for
that worker and writes them all out in one file.
"""

from __future__ import annotations

import statistics
import time

# CLOCK_MONOTONIC on Linux, so timestamps from different processes compare.
now_ns = time.perf_counter_ns


class Tracer:
    """Records nested spans.  ``begin``/``end`` rather than a context
    manager keeps the bookkeeping per span small."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.errors: dict[str, int] = {}

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, now_ns(), 0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int, error: BaseException | None = None) -> None:
        self.spans[idx][2] = now_ns()
        self.stack.pop()
        if error is not None:
            layer = self.spans[idx][0].split(".", 1)[0]
            self.errors[layer] = self.errors.get(layer, 0) + 1

    def record(self, name: str, start: int, end: int) -> int:
        """Add a finished span, such as one for a process that ran
        alongside other spans, under the current parent."""
        self.spans.append([name, start, end, self.stack[-1] if self.stack else -1])
        return len(self.spans) - 1

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name``; an exception is
        counted against the span's layer (the name up to the first dot)."""
        idx = self.begin(name)
        try:
            out = fn(*args)
        except Exception as e:
            self.end(idx, e)
            raise
        self.end(idx)
        return out

    def export(self, prefix: str, root_parent: str | None = None) -> list[list]:
        """Spans as [id, parent id, name, start, end]; ids get ``prefix`` so
        spans from several processes stay distinct, and top-level spans hang
        under ``root_parent``."""
        return [[f"{prefix}{i}", f"{prefix}{p}" if p >= 0 else root_parent, name, start, end]
                for i, (name, start, end, p) in enumerate(self.spans)]


def self_times(spans) -> dict[str, int]:
    """Span id -> its duration minus the part of it that child spans cover."""
    children: dict[str, list[tuple[int, int]]] = {}
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = end - start - covered
    return out


def self_times_by_name(spans) -> dict[str, list[int]]:
    """Span name -> self times (ns) of the spans with that name."""
    selfs = self_times(spans)
    out: dict[str, list[int]] = {}
    for sid, _parent, name, _start, _end in spans:
        out.setdefault(name, []).append(selfs[sid])
    return out


def median_us(values_ns) -> float:
    return statistics.median(values_ns) / 1e3


def total_s(values_ns) -> float:
    return sum(values_ns) / 1e9
