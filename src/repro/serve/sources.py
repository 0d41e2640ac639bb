"""Packet sources for the streaming service.

A source is just an iterable of packet chunks (:class:`Trace` slices
that share their segment's columns); the service feeds each chunk to
the :class:`~repro.serve.windows.WindowScheduler` and runs
whatever windows close.  Two concrete sources cover the daemon's two
deployment stories:

* :class:`ReplaySource` — iterate an existing trace in chunks,
  optionally paced to a packet rate and optionally looping, so real
  (or previously generated) traffic drives the live pipeline;
* :class:`SyntheticSource` — an endless stream of generated segments
  with a fresh seed per segment, for soak runs and smoke tests with
  no trace on disk.

Pacing sleeps in small slices and checks the service's shutdown event
between them, so SIGTERM never waits out a long rate-limit sleep.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator

from repro.common.errors import ConfigError
from repro.traffic.generator import TraceConfig, generate_trace
from repro.traffic.trace import Trace

#: Default packets per chunk offered to the window scheduler.
DEFAULT_CHUNK_PACKETS = 512

#: Longest single sleep while pacing, so shutdown stays responsive.
_SLEEP_SLICE = 0.05


class PacketSource:
    """Base class: chunk iteration plus shared rate pacing."""

    def __init__(
        self,
        chunk_packets: int = DEFAULT_CHUNK_PACKETS,
        rate_pps: float | None = None,
    ):
        if chunk_packets < 1:
            raise ConfigError("chunk_packets must be >= 1")
        if rate_pps is not None and rate_pps <= 0:
            raise ConfigError("rate_pps must be > 0")
        self.chunk_packets = chunk_packets
        self.rate_pps = rate_pps
        #: Set by the service before iteration; pacing sleeps and the
        #: chunk loop both stop promptly once it is set.
        self.stop_event: threading.Event | None = None
        # Timestamp of the last packet emitted, so segment boundaries
        # (a looped replay pass, the next synthetic seed) rebase onto
        # one continuous stream clock — windows that straddle a
        # boundary must still satisfy Trace's monotonicity invariant.
        self._last_ts: float | None = None

    # ------------------------------------------------------------------
    def _stopped(self) -> bool:
        return self.stop_event is not None and self.stop_event.is_set()

    def _pace(self, packets: int) -> None:
        """Sleep long enough that ``packets`` arrive at ``rate_pps``."""
        if self.rate_pps is None:
            return
        deadline = time.monotonic() + packets / self.rate_pps
        while not self._stopped():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(remaining, _SLEEP_SLICE))

    def _rebased(self, trace: Trace) -> Trace:
        """The trace on the continuous stream clock.

        The very first segment passes through untouched (so a single
        replay pass stays bit-identical to the trace on disk); later
        segments are shifted so they start where the stream left off.
        """
        if self._last_ts is None:
            return trace
        return trace.starting_at(self._last_ts)

    def _chunks_of(self, trace: Trace) -> Iterator[Trace]:
        trace = self._rebased(trace)
        for start in range(0, len(trace), self.chunk_packets):
            if self._stopped():
                return
            chunk = trace[start:start + self.chunk_packets]
            yield chunk
            self._last_ts = float(chunk.timestamps[-1])
            self._pace(len(chunk))

    def __iter__(self) -> Iterator[Trace]:  # pragma: no cover
        raise NotImplementedError


class ReplaySource(PacketSource):
    """Replay an existing trace in chunks, optionally paced + looped.

    Parameters
    ----------
    trace:
        The trace to replay.
    chunk_packets:
        Packets per chunk offered downstream.
    rate_pps:
        Target packet rate (packets/second); ``None`` replays as fast
        as the pipeline drains.
    loop:
        Restart from the beginning when the trace ends (an endless
        soak from one capture).
    """

    def __init__(
        self,
        trace: Trace,
        chunk_packets: int = DEFAULT_CHUNK_PACKETS,
        rate_pps: float | None = None,
        loop: bool = False,
    ):
        super().__init__(chunk_packets, rate_pps)
        if len(trace) == 0:
            raise ConfigError("cannot replay an empty trace")
        self.trace = trace
        self.loop = loop

    def __iter__(self) -> Iterator[Trace]:
        while True:
            yield from self._chunks_of(self.trace)
            if not self.loop or self._stopped():
                return


class SyntheticSource(PacketSource):
    """An endless synthetic stream: one generated segment per seed.

    Segment ``i`` is ``generate_trace(config.with_seed(seed + i))``,
    so the stream never repeats, stays fully deterministic for a given
    base seed, and each segment carries the same heavy-tailed flow
    structure the batch experiments use.
    """

    def __init__(
        self,
        config: TraceConfig,
        chunk_packets: int = DEFAULT_CHUNK_PACKETS,
        rate_pps: float | None = None,
        max_segments: int | None = None,
    ):
        super().__init__(chunk_packets, rate_pps)
        if max_segments is not None and max_segments < 1:
            raise ConfigError("max_segments must be >= 1")
        self.config = config
        self.max_segments = max_segments

    def __iter__(self) -> Iterator[Trace]:
        segment = 0
        while self.max_segments is None or segment < self.max_segments:
            if self._stopped():
                return
            trace = generate_trace(
                self.config.with_seed(self.config.seed + segment)
            )
            yield from self._chunks_of(trace)
            segment += 1
