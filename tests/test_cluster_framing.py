"""FrameAssembler: stream reassembly and hostile-bytes robustness.

The property sweeps reuse the corruption generators from the fault
injector (seeded truncation and bit-flips) and push the mangled bytes
through a *real* socket pair in arbitrary chunkings, asserting the
receiver path (assembler + ``decode_report``) always terminates in one
of exactly three states: a decoded report, a raised
``CorruptFrameError``, or an incomplete tail awaiting bytes — never a
hang, never an unhandled exception, never a mis-split next frame.
"""

from __future__ import annotations

import asyncio
import random
import socket
import struct
import zlib

import pytest

from repro.cluster import (
    ACK,
    AggregatorListener,
    ClusterConfig,
    FrameAssembler,
    HostChannel,
)
from repro.common.errors import ConfigError, CorruptFrameError
from repro.controlplane.transport import (
    CollectionStats,
    decode_report,
    encode_report,
)
from repro.dataplane.host import Host
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.sketches.countmin import CountMinSketch
from repro.traffic.generator import TraceConfig, generate_trace


@pytest.fixture(scope="module")
def frame():
    trace = generate_trace(TraceConfig(num_flows=200, seed=3))
    host = Host(
        1, CountMinSketch(width=256, depth=2, seed=2), fastpath_bytes=4096
    )
    return encode_report(host.run_epoch(trace), epoch=7)


def chunked(data: bytes, rng: random.Random):
    """Yield ``data`` in random-sized chunks (1..4096 bytes)."""
    offset = 0
    while offset < len(data):
        size = rng.randrange(1, 4097)
        yield data[offset : offset + size]
        offset += size


def through_socket(data: bytes, rng: random.Random) -> bytes:
    """Round-trip bytes through a real connected socket pair so the
    kernel (not the test) decides the read-side chunking."""
    left, right = socket.socketpair()
    received = bytearray()
    try:
        left.setblocking(True)
        right.settimeout(5.0)
        for chunk in chunked(data, rng):
            left.sendall(chunk)
        left.shutdown(socket.SHUT_WR)
        while True:
            piece = right.recv(8192)
            if not piece:
                break
            received.extend(piece)
    finally:
        left.close()
        right.close()
    return bytes(received)


class TestReassembly:
    def test_single_frame_any_chunking(self, frame):
        rng = random.Random(0)
        for _ in range(20):
            assembler = FrameAssembler()
            frames = []
            for chunk in chunked(frame, rng):
                frames.extend(assembler.feed(chunk))
            assert frames == [frame]
            assert not assembler.mid_frame

    def test_back_to_back_frames_split_exactly(self, frame):
        rng = random.Random(1)
        stream = frame * 5
        assembler = FrameAssembler()
        frames = []
        for chunk in chunked(stream, rng):
            frames.extend(assembler.feed(chunk))
        assert frames == [frame] * 5

    def test_byte_at_a_time(self, frame):
        assembler = FrameAssembler()
        frames = []
        for i in range(len(frame)):
            frames.extend(assembler.feed(frame[i : i + 1]))
        assert frames == [frame]

    def test_partial_tail_reported(self, frame):
        assembler = FrameAssembler()
        assert assembler.feed(frame[:-10]) == []
        assert assembler.mid_frame
        assert assembler.pending_bytes == len(frame) - 10
        assert assembler.feed(frame[-10:]) == [frame]
        assert not assembler.mid_frame

    def test_frames_survive_a_real_socket(self, frame):
        rng = random.Random(2)
        stream = frame * 3
        received = through_socket(stream, rng)
        assembler = FrameAssembler()
        frames = assembler.feed(received)
        assert frames == [frame] * 3
        for got in frames:
            report = decode_report(got)
            assert report.host_id == 1


class TestHostileStreams:
    def test_bad_magic_poisons_stream(self, frame):
        assembler = FrameAssembler()
        with pytest.raises(CorruptFrameError, match="magic"):
            assembler.feed(b"XXXX" + frame)

    def test_unknown_version_rejected(self, frame):
        mangled = bytearray(frame)
        mangled[4] = 9
        with pytest.raises(CorruptFrameError, match="version"):
            FrameAssembler().feed(bytes(mangled))

    def test_oversized_declared_length_rejected(self, frame):
        header = struct.pack(
            ">4sBIIII", b"SKVR", 3, 1, 7, 1 << 30, 0
        )
        with pytest.raises(CorruptFrameError, match="ceiling"):
            FrameAssembler(max_frame_bytes=1 << 20).feed(header)

    def test_trailing_garbage_after_frame_detected(self, frame):
        assembler = FrameAssembler()
        with pytest.raises(CorruptFrameError):
            # The valid frame pops cleanly; the garbage behind it
            # cannot start a frame.
            assembler.feed(frame + b"\xde\xad\xbe\xef\x00")

    def test_truncation_sweep_off_a_real_socket(self, frame):
        """Seeded truncations: the stream always ends mid-frame (the
        tail is discardable) or, when the cut lands inside the probe
        of a *next* frame, stays pending — decode never sees a frame
        that lies about its length."""
        injector = FaultInjector(FaultPlan(seed=5))
        rng = random.Random(3)
        for attempt in range(40):
            cut = injector.truncate(frame, 0, 1, attempt)
            received = through_socket(cut, rng) if cut else b""
            assembler = FrameAssembler()
            frames = assembler.feed(received)
            assert frames == []  # at least one byte is always lost
            assert assembler.pending_bytes == len(cut)

    def test_bitflip_sweep_off_a_real_socket(self, frame):
        """Seeded single-bit flips anywhere in the frame: every
        outcome is a classified rejection or a CRC/decode failure —
        silent acceptance of corrupted payload bytes is the only
        forbidden result."""
        injector = FaultInjector(FaultPlan(seed=6))
        rng = random.Random(4)
        outcomes = {"assembler": 0, "decode": 0, "pending": 0, "ok": 0}
        for attempt in range(60):
            flipped = injector.bitflip(frame, 0, 1, attempt)
            received = through_socket(flipped, rng)
            assembler = FrameAssembler()
            try:
                frames = assembler.feed(received)
            except CorruptFrameError:
                outcomes["assembler"] += 1
                continue
            if not frames:
                outcomes["pending"] += 1  # length field grew
                continue
            for got in frames:
                try:
                    report = decode_report(got)
                except ConfigError:
                    # CorruptFrameError or an unpickle rejection —
                    # both classified, both safe.
                    outcomes["decode"] += 1
                else:
                    # A flip that decodes must have hit the epoch
                    # field (the only header field without a payload
                    # cross-check) — the stale-epoch gate upstream
                    # owns that case.
                    outcomes["ok"] += 1
                    assert report.host_id == 1
        assert outcomes["assembler"] + outcomes["decode"] > 0
        assert outcomes["decode"] > 0

    def test_garbage_streams_never_hang(self):
        rng = random.Random(7)
        for _ in range(30):
            blob = bytes(
                rng.randrange(256)
                for _ in range(rng.randrange(1, 2000))
            )
            assembler = FrameAssembler()
            try:
                frames = assembler.feed(through_socket(blob, rng))
            except CorruptFrameError:
                continue
            for got in frames:
                with pytest.raises(ConfigError):
                    decode_report(got)

    def test_interleaved_good_and_truncated_final_frame(self, frame):
        """A clean frame followed by a truncated one: the good frame
        decodes, the tail stays pending for EOF discard."""
        injector = FaultInjector(FaultPlan(seed=8))
        cut = injector.truncate(frame, 1, 1, 0)
        assembler = FrameAssembler()
        frames = assembler.feed(frame + cut)
        assert frames == [frame]
        assert assembler.mid_frame
        assert assembler.pending_bytes == len(cut)


class TestListenerExchange:
    """Live ``AggregatorListener`` exchanges: reassembly across many
    TCP writes while slow peers stall alongside, and ACK delivery for
    an in-flight connection during listener drain."""

    def _frame(self, host_id: int) -> bytes:
        trace = generate_trace(TraceConfig(num_flows=120, seed=4))
        host = Host(
            host_id,
            CountMinSketch(width=256, depth=2, seed=2),
            fastpath_bytes=4096,
        )
        return encode_report(host.run_epoch(trace), epoch=7)

    def _listener(self, sink, stats, idle_timeout=0.2):
        return AggregatorListener(
            0,
            7,
            sink,
            stats,
            seen=set(),
            delivered=set(),
            idle_timeout=idle_timeout,
        )

    def test_multi_chunk_frame_interleaved_with_slow_peers(self):
        """One sender dribbles its frame across 5 paced TCP writes
        while a slow-peer channel stalls mid-frame on the same
        listener: the dribbled frame is reassembled and ACKed, the
        slow peer is hung up on and succeeds on retry."""

        async def run():
            stats = CollectionStats()
            got: list = []
            listener = self._listener(got.append, stats)
            address = await listener.start("127.0.0.1", 0)
            frame_a, frame_b = self._frame(1), self._frame(2)

            async def chunked_sender() -> bytes:
                reader, writer = await asyncio.open_connection(
                    *address
                )
                try:
                    step = max(1, len(frame_a) // 5)
                    chunks = [
                        frame_a[i : i + step]
                        for i in range(0, len(frame_a), step)
                    ]
                    assert len(chunks) >= 3
                    for chunk in chunks:
                        writer.write(chunk)
                        await writer.drain()
                        # Pause between writes — long enough that the
                        # kernel flushes each as its own segment, well
                        # under the listener's idle deadline.
                        await asyncio.sleep(0.03)
                    return await asyncio.wait_for(
                        reader.readexactly(1), timeout=5.0
                    )
                finally:
                    writer.close()

            cfg = ClusterConfig(
                connect_timeout=2.0,
                ack_timeout=2.0,
                idle_timeout=0.2,
                backoff_base=0.002,
            )
            channel = HostChannel(
                2,
                7,
                frame_factory=lambda: frame_b,
                address=address,
                config=cfg,
                stats=stats,
                faults=[FaultKind.SLOW_PEER],
            )
            ack, delivered = await asyncio.gather(
                chunked_sender(), channel.deliver()
            )
            await listener.close(1.0)
            assert ack == ACK
            assert delivered == frame_b
            assert stats.slow_peers == 1
            assert stats.retries == 1
            assert stats.corrupt_frames == 0
            assert sorted(report.host_id for report in got) == [1, 2]

        asyncio.run(run())

    def test_ack_reaches_client_during_listener_drain(self):
        """``close(drain_timeout)`` stops accepting immediately but
        the in-flight connection finishes its exchange: the tail of a
        parked frame still lands, decodes, and is ACKed inside the
        drain window."""

        async def run():
            stats = CollectionStats()
            got: list = []
            listener = self._listener(got.append, stats)
            address = await listener.start("127.0.0.1", 0)
            frame = self._frame(1)
            reader, writer = await asyncio.open_connection(*address)
            try:
                writer.write(frame[:-6])
                await writer.drain()
                # Let the handler pick up the partial frame before the
                # drain starts.
                await asyncio.sleep(0.05)
                close_task = asyncio.create_task(listener.close(2.0))
                await asyncio.sleep(0.05)
                # The server socket is gone: new connections fail ...
                refused = False
                try:
                    _, probe = await asyncio.wait_for(
                        asyncio.open_connection(*address), timeout=0.5
                    )
                except (
                    ConnectionError,
                    OSError,
                    asyncio.TimeoutError,
                ):
                    refused = True
                else:
                    probe.close()
                assert refused
                # ... but the parked exchange still completes.
                writer.write(frame[-6:])
                await writer.drain()
                ack = await asyncio.wait_for(
                    reader.readexactly(1), timeout=5.0
                )
                assert ack == ACK
            finally:
                writer.close()
            await close_task
            assert [report.host_id for report in got] == [1]
            assert stats.corrupt_frames == 0

        asyncio.run(run())
