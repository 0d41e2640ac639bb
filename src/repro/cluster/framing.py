"""Incremental frame extraction from a TCP byte stream.

The wire format (``repro.controlplane.transport``) is already
length-prefixed — ``MAGIC | version | host | epoch | length | crc |
payload`` — so a socket receiver only needs to reassemble frames from
an arbitrarily chunked byte stream.  :class:`FrameAssembler` is the
sans-IO core of that: feed it whatever ``recv`` returned, get back
every *complete* frame, keep the partial tail buffered.  It validates
only what a stream parser must (magic and version, via the shared
:func:`~repro.controlplane.transport.parse_header`, and the declared
length) and leaves payload validation (CRC, array section, restricted
unpickling, host cross-check) to :func:`~repro.controlplane.transport.decode_report`,
so a corrupted length field can never make the receiver buffer
gigabytes or mis-split every subsequent frame: the connection is
declared poisoned and dropped.

Used by the aggregator servers in ``repro.cluster.transport`` and
directly by the socket-corruption property tests.
"""

from __future__ import annotations

from repro.common.errors import CorruptFrameError
from repro.controlplane.transport import (
    DEFAULT_MAX_FRAME_BYTES,
    parse_header,
)


class FrameAssembler:
    """Reassemble wire frames from a chunked byte stream.

    ``feed`` returns complete frames in arrival order and buffers any
    trailing partial frame for the next call.  Malformed stream state
    (bad magic, unknown version, oversized declared length) raises
    :class:`CorruptFrameError` — once a stream mis-frames there is no
    way to resynchronize, so the caller must drop the connection.
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward a not-yet-complete frame."""
        return len(self._buffer)

    @property
    def mid_frame(self) -> bool:
        """Whether the stream ended inside a frame (truncated tail)."""
        return bool(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb ``data``; return every frame completed by it."""
        self._buffer.extend(data)
        frames: list[bytes] = []
        while True:
            frame = self._pop_frame()
            if frame is None:
                return frames
            frames.append(frame)

    def _pop_frame(self) -> bytes | None:
        buffer = self._buffer
        header = parse_header(buffer)
        if header is None:
            return None
        if header.length > self.max_frame_bytes:
            raise CorruptFrameError(
                f"frame declares {header.length} payload bytes, above "
                f"the {self.max_frame_bytes}-byte stream ceiling "
                "(corrupt length field?)"
            )
        total = header.size + header.length
        if len(buffer) < total:
            return None
        frame = bytes(buffer[:total])
        del buffer[:total]
        return frame
