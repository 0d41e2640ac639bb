"""Sliding windows: the incremental-epoch seam for streaming service mode."""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.traffic.trace import Trace


@dataclass
class Window:
    """One closed sliding window of a continuous packet stream."""

    #: Zero-based window id — the epoch number the pipeline will stamp
    #: on this window's reports (windows feed epochs one to one).
    index: int
    trace: Trace
    #: Wall-clock seconds (``time.time``) when the first packet landed.
    opened_at: float
    #: Wall-clock seconds when the window closed.
    closed_at: float


class WindowScheduler:
    """Slice a continuous packet stream into pipeline epochs.

    The streaming daemon's seam into the batch pipeline: packets are
    offered in arbitrary chunks and come back as closed
    :class:`Window` objects, each carrying a plain :class:`Trace` that
    :meth:`~repro.framework.pipeline.SketchVisorPipeline.run_epoch`
    processes exactly as a batch epoch — same code path, bit-identical
    results.

    Windows close on a packet-count boundary (``window_packets``), a
    wall-clock deadline (``window_seconds``), or both (whichever
    strikes first).  Packet-count windows are deterministic: feeding
    the same packets under any chunking yields identical window
    contents, which is what makes ``repro serve`` over a replayed
    trace bit-identical to the same trace run as batch epochs.
    """

    def __init__(
        self,
        window_packets: int | None = None,
        window_seconds: float | None = None,
        clock=time.monotonic,
    ):
        if not window_packets and not window_seconds:
            raise ConfigError(
                "need window_packets and/or window_seconds"
            )
        if window_packets is not None and window_packets < 1:
            raise ConfigError("window_packets must be >= 1")
        if window_seconds is not None and window_seconds <= 0:
            raise ConfigError("window_seconds must be > 0")
        self.window_packets = window_packets
        self.window_seconds = window_seconds
        self._clock = clock
        #: The in-flight window's packets, as the trace slices offered.
        self._buffer: list[Trace] = []
        self._pending = 0
        self._opened_wall: float | None = None
        self._opened_clock: float | None = None
        #: Windows closed so far (the next window's ``index``).
        self.windows_closed = 0

    @property
    def pending_packets(self) -> int:
        """Packets buffered in the in-flight (unclosed) window."""
        return self._pending

    def _deadline_expired(self) -> bool:
        return (
            self.window_seconds is not None
            and self._opened_clock is not None
            and self._clock() - self._opened_clock
            >= self.window_seconds
        )

    def _close(self) -> Window:
        window = Window(
            index=self.windows_closed,
            trace=Trace.join(self._buffer),
            opened_at=self._opened_wall or time.time(),
            closed_at=time.time(),
        )
        self.windows_closed += 1
        self._buffer = []
        self._pending = 0
        self._opened_wall = None
        self._opened_clock = None
        return window

    def offer(self, chunk) -> list[Window]:
        """Feed a chunk of packets; returns any windows it closed.

        ``chunk`` may be a :class:`Trace` or any sequence of packets.
        One large chunk can close several packet-count windows.
        """
        if not isinstance(chunk, Trace):
            chunk = Trace(chunk)
        closed: list[Window] = []
        position = 0
        total = len(chunk)
        while position < total:
            if self._opened_clock is None:
                self._opened_wall = time.time()
                self._opened_clock = self._clock()
            end = total
            if self.window_packets is not None:
                end = min(end, position + self.window_packets - self._pending)
            take = chunk if end - position == total else chunk[position:end]
            self._buffer.append(take)
            self._pending += len(take)
            position = end
            if (
                self.window_packets is not None
                and self._pending >= self.window_packets
            ):
                closed.append(self._close())
                continue
            if self._deadline_expired():
                closed.append(self._close())
        if not closed and self._buffer and self._deadline_expired():
            closed.append(self._close())
        return closed

    def poll(self) -> list[Window]:
        """Close the in-flight window if its wall-clock deadline passed
        with no new packets arriving (idle-stream tick)."""
        if self._buffer and self._deadline_expired():
            return [self._close()]
        return []

    def flush(self) -> Window | None:
        """Drain the in-flight partial window (graceful shutdown)."""
        if not self._buffer:
            return None
        return self._close()
