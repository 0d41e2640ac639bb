"""Span-based tracing for the per-epoch pipeline stages.

A :class:`Tracer` records wall-time spans with nesting — one span per
pipeline stage (``epoch`` → ``dataplane`` → ``recovery.lens`` …) — via
a context manager that costs two ``perf_counter`` calls per stage.
Spans render as an indented stage-timing tree
(:func:`repro.reporting.span_tree`) or export as Chrome trace-event
JSON loadable in ``chrome://tracing`` / Perfetto for flamegraph
inspection.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed pipeline stage."""

    name: str
    start: float  # seconds since the tracer's origin
    duration: float  # seconds; 0.0 while still open
    depth: int
    parent: int | None  # index of the enclosing span, None for roots
    attrs: dict = field(default_factory=dict)
    #: Process/thread that recorded the span (its Chrome-trace lane).
    pid: int = 0
    tid: int = 0

    @property
    def open(self) -> bool:
        return self.duration == 0.0 and self.end is None

    @property
    def end(self) -> float | None:
        return None if self.duration == 0.0 else self.start + self.duration


class Tracer:
    """Records nested wall-time spans in start order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()
        self.pid = os.getpid()

    @contextmanager
    def span(self, name: str, **attrs):
        """Time a stage: ``with tracer.span("recovery.lens", epoch=3):``."""
        start = time.perf_counter()
        index = len(self.spans)
        record = Span(
            name=name,
            start=start - self._origin,
            duration=0.0,
            depth=len(self._stack),
            parent=self._stack[-1] if self._stack else None,
            attrs=attrs,
            pid=self.pid,
            tid=threading.get_native_id(),
        )
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.duration = time.perf_counter() - start
            self._stack.pop()

    # ------------------------------------------------------------------
    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self.spans[self._stack[-1]] if self._stack else None

    def tree_rows(self) -> list[tuple[int, str, float, dict]]:
        """``(depth, name, seconds, attrs)`` rows for reporting."""
        return [
            (span.depth, span.name, span.duration, span.attrs)
            for span in self.spans
        ]

    def roots(self) -> list[Span]:
        return [span for span in self.spans if span.parent is None]

    def children(self, parent: Span) -> list[Span]:
        parent_index = self.spans.index(parent)
        return [
            span for span in self.spans if span.parent == parent_index
        ]

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (``chrome://tracing`` "complete" events).

        Timestamps and durations are microseconds relative to the
        tracer's origin.  Spans carry the pid/tid that recorded them,
        so each thread renders as its own lane while the nesting within
        a lane still reads as a flamegraph.
        """
        events = []
        for span in self.spans:
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": span.pid,
                    "tid": span.tid,
                    "args": {
                        key: str(value)
                        for key, value in span.attrs.items()
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._origin = time.perf_counter()
