"""Asyncio host → aggregator socket transport.

The client half (:class:`HostChannel`) drives one host's
:class:`~repro.controlplane.transport.Delivery` — the same retry and
fault policy the in-process collector runs — over a real TCP
connection per attempt: connect with a deadline, write under kernel
backpressure (bounded write buffer + ``drain()``), wait for the
aggregator's one-byte ack, sleep the machine's backoff between
attempts.  A process-wide in-flight semaphore bounds how many hosts
hold open sockets and encoded frames at once, so a 1000-host epoch
runs in bounded transport memory.

The server half (:class:`AggregatorListener`) accepts connections for
one aggregator, reassembles frames with the sans-IO
:class:`~repro.cluster.framing.FrameAssembler` under an idle deadline,
and answers each frame with the verdict of
:func:`~repro.controlplane.transport.accept_frame` — the in-process
collector's receiver check — so the client knows whether to retry.

Connection-level faults (refused, reset, partial write, slow peer,
partition) act on the socket operations; frame-level faults act on
the bytes the machine hands over — all drawn from the same seeded
:class:`~repro.faults.FaultPlan` schedules, so a chaos run is
reproducible byte for byte.
"""

from __future__ import annotations

import asyncio
from contextlib import nullcontext, suppress

from repro.cluster.framing import FrameAssembler
from repro.common.errors import CorruptFrameError
from repro.controlplane.transport import (
    NAK_CORRUPT,
    SUCCESS_ACKS,
    CollectionStats,
    Delivery,
    accept_frame,
)
from repro.faults.plan import AggregatorFault, FaultKind

#: What a socket operation raises when the peer is gone or too slow.
_CONN_ERRORS = (ConnectionError, OSError, asyncio.TimeoutError)

#: Per-connection socket write-buffer high-watermark; writes past it
#: block in ``drain()`` (kernel backpressure, also counted).
WRITE_BUFFER_BYTES = 1 << 16


class AggregatorListener:
    """One aggregator's listening socket.

    Frames that decode cleanly are handed to ``sink`` (an
    :class:`~repro.cluster.aggregator.Aggregator`'s ``add``); every
    defensive outcome is counted into the shared
    :class:`CollectionStats`.  All handler state runs on one event
    loop, so no locking is needed.

    An optional scheduled :class:`~repro.faults.AggregatorFault` makes
    the listener *itself* the failure: once it has accepted
    ``fault.offset`` reports it strikes — a crash closes the server
    and RSTs the triggering connection; a hang leaves the socket open
    but swallows every subsequent byte without answering.  Either way
    it calls ``on_strike(listener)``, which arms the controller's
    watchdog verdict.
    """

    def __init__(
        self,
        aggregator_id: int,
        epoch: int,
        sink,
        stats: CollectionStats,
        seen: set[tuple[int, int]],
        delivered: set[int],
        *,
        idle_timeout: float,
        on_strike=None,
        fault: AggregatorFault | None = None,
        injector=None,
    ):
        self.aggregator_id = aggregator_id
        self.epoch = epoch
        self.sink = sink
        self.stats = stats
        self.seen = seen
        self.delivered = delivered
        self.idle_timeout = idle_timeout
        self.on_strike = on_strike
        self.fault = fault
        self.injector = injector
        self.server: asyncio.AbstractServer | None = None
        self.address: tuple[str, int] | None = None
        self._handlers: set[asyncio.Task] = set()
        #: Hosts this aggregator has ACKed this epoch, in arrival
        #: order — the shard state that dies with it on a strike.
        self.accepted: list[int] = []
        #: The fault kind that struck, or ``None`` while healthy.
        self.struck: FaultKind | None = None
        self._hung = False

    async def start(self, host: str, port: int) -> tuple[str, int]:
        self.server = await asyncio.start_server(
            self._handle, host=host, port=port
        )
        sockname = self.server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def close(self, drain_timeout: float) -> None:
        """Stop accepting, give in-flight handlers a drain window."""
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
        if self._handlers:
            done, pending = await asyncio.wait(
                self._handlers, timeout=drain_timeout
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        # A closed listener strikes no more and sinks nothing.  The
        # server keeps the bound ``_handle`` it was started with, so
        # dropping it breaks the listener's cycle with its server, and
        # the epoch's aggregators and the state the callback
        # reaches go when the epoch does, not at the next collection.
        self.server = self.sink = self.on_strike = None

    async def _handle(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # Listener shutdown (drain window expired, or a fail-over
            # tearing down a dead aggregator mid-read): the connection
            # dies, not the epoch.  Complete normally so the event
            # loop's stream machinery does not log the cancellation.
            if task is not None:
                task.uncancel()
        finally:
            self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _serve_connection(self, reader, writer) -> None:
        assembler = FrameAssembler()
        while True:
            if self._hung:
                # A hung aggregator sits on the connection forever:
                # bytes are swallowed, nothing is acked, and no idle
                # deadline fires — the *client's* ack timeout is what
                # ends the exchange.
                try:
                    chunk = await reader.read(64 * 1024)
                except (ConnectionError, OSError):
                    return
                if not chunk:
                    return
                continue
            try:
                chunk = await asyncio.wait_for(
                    reader.read(64 * 1024), timeout=self.idle_timeout
                )
            except asyncio.TimeoutError:
                # Slow peer: mid-frame silence past the idle deadline.
                # Hang up; the client's fault bookkeeping (or its ack
                # timeout) classifies the loss.
                return
            except (ConnectionError, OSError):
                return
            if not chunk:
                # Clean EOF.  A buffered partial frame is a short
                # write (injected partial_write/truncate or a genuine
                # killed sender); the tail is discarded and the
                # *sender* attributes the loss — the server cannot
                # distinguish why the stream ended early.
                return
            try:
                frames = assembler.feed(chunk)
            except CorruptFrameError:
                # Mis-framed stream: unrecoverable for the connection.
                self.stats.corrupt_frames += 1
                await self._respond(writer, NAK_CORRUPT)
                return
            for frame in frames:
                if not await self._process_frame(writer, frame):
                    return

    async def _process_frame(self, writer, frame: bytes) -> bool:
        """Decode + account one frame; False drops the connection."""
        if self._hung:
            # Struck mid-batch: the rest of this read's frames are
            # swallowed too.
            return True
        if self.struck is not None:
            return False
        if (
            self.fault is not None
            and len(self.accepted) >= self.fault.offset
        ):
            return self._strike(writer)
        verdict, report = accept_frame(
            frame, self.epoch, self.seen, self.stats
        )
        if report is not None:
            self.delivered.add(report.host_id)
            self.accepted.append(report.host_id)
            self.sink(report)
            # Merged: hold no decoded sketch while the ack is awaited.
            report = None
        return await self._respond(writer, verdict)

    def _strike(self, writer) -> bool:
        """Fire the scheduled aggregator fault.  The frame in hand is
        never acked; whether the connection survives depends on how
        the aggregator "died"."""
        kind = self.fault.kind
        self.struck = kind
        if self.injector is not None:
            self.injector.record(kind)
        if self.on_strike is not None:
            self.on_strike(self)
        if kind is FaultKind.AGG_CRASH:
            self.stats.agg_crashes += 1
            # The process is gone: no new connections, and the one
            # that tripped the fault dies with an RST.
            if self.server is not None:
                self.server.close()
            with suppress(*_CONN_ERRORS):
                writer.transport.abort()
            return False
        self.stats.agg_hangs += 1
        self._hung = True
        return True

    async def _respond(self, writer, code: bytes) -> bool:
        try:
            writer.write(code)
            await writer.drain()
            return True
        except (ConnectionError, OSError):
            return False


class HostChannel:
    """One host's :class:`Delivery` for one epoch, driven over TCP.

    The machine decides what each attempt sends and books every
    retry; the channel does the socket work — sleeping the backoff,
    holding an in-flight slot, connecting, writing, reading the acks —
    and counts the faults only a socket can see (resets, short
    writes, slow peers, and truncation, whose cut the receiver cannot
    tell from a killed sender).

    The encoded frame is materialized lazily, per attempt, *inside*
    the in-flight semaphore window (``frame_factory``), so an epoch
    never holds more encoded frames at once than the semaphore has
    slots, no matter how many hosts it spans.

    ``address`` may be a ``(host, port)`` pair or a zero-arg callable
    resolving to one (or ``None`` when no aggregator is reachable).
    The callable form is how fail-over re-routes mid-flight: every
    *attempt* re-resolves, so a host whose aggregator died between
    retries lands its next attempt on the rendezvous survivor without
    any channel-level coordination.
    """

    def __init__(
        self,
        host_id: int,
        epoch: int,
        frame_factory,
        address,
        config,
        stats: CollectionStats,
        injector=None,
        faults: list[FaultKind] | None = None,
        inflight: asyncio.Semaphore | None = None,
    ):
        self.host_id = host_id
        self.epoch = epoch
        self.frame_factory = frame_factory
        self.address = address
        self.config = config
        self.stats = stats
        self.inflight = inflight
        self.delivery = Delivery(
            host_id, epoch, faults or (), config, stats, injector
        )
        #: The final ack byte received (``ACK``/``ACK_DUP``), ``None``
        #: until an attempt succeeds — lets redelivery distinguish "my
        #: copy landed" from "someone already delivered it".
        self.last_ack: bytes | None = None

    def _resolve_address(self):
        return self.address() if callable(self.address) else self.address

    # ------------------------------------------------------------------
    async def deliver(self) -> bytes | None:
        """Run the delivery machine over TCP.

        Returns the acked frame bytes on success, ``None`` when every
        attempt failed.
        """
        delivery = self.delivery
        for attempt, fault in delivery.attempts():
            if attempt:
                await asyncio.sleep(delivery.backoff(attempt))
            if self.inflight is not None and self.inflight.locked():
                # The bounded in-flight pool is full: this send waits
                # for a slot — the transport's backpressure signal.
                self.stats.backpressure_waits += 1
            async with self.inflight or nullcontext():
                frame = self.frame_factory()
                payloads = delivery.payloads(fault, frame, attempt)
                if payloads is not None and await self._exchange(
                    fault, frame, payloads
                ):
                    delivery.acked(frame)
        return delivery.delivered

    async def _exchange(
        self,
        fault: FaultKind | None,
        frame: bytes,
        payloads: tuple[bytes, ...],
    ) -> bool:
        """One connection: write ``payloads``, read one ack each;
        ``True`` when every ack says the report is accounted for."""
        cfg = self.config
        address = self._resolve_address()
        if address is None:
            # No live aggregator to route to; indistinguishable from
            # a dead listener on the host side.
            self.stats.conn_refused += 1
            return False
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(*address),
                timeout=cfg.connect_timeout,
            )
        except _CONN_ERRORS:
            self.stats.conn_refused += 1
            return False
        transport = writer.transport
        transport.set_write_buffer_limits(high=WRITE_BUFFER_BYTES)
        try:
            if fault is FaultKind.CONN_RESET:
                # Write a prefix, then abort (RST): the receiver's
                # stream dies mid-frame with no clean EOF.
                writer.write(frame[: max(1, len(frame) // 3)])
                with suppress(*_CONN_ERRORS):
                    await writer.drain()
                transport.abort()
                self.stats.conn_resets += 1
                return False
            if fault is FaultKind.SLOW_PEER:
                # Send a sliver, then stall past the aggregator's
                # idle deadline; it hangs up on us.
                writer.write(frame[:8])
                with suppress(*_CONN_ERRORS):
                    await writer.drain()
                with suppress(*_CONN_ERRORS):
                    await asyncio.wait_for(
                        reader.read(1),
                        timeout=max(
                            cfg.idle_timeout * 4, cfg.idle_timeout + 0.2
                        ),
                    )
                self.stats.slow_peers += 1
                return False

            for payload in payloads:
                if transport.get_write_buffer_size() >= WRITE_BUFFER_BYTES:
                    self.stats.backpressure_waits += 1
                writer.write(payload)
                await asyncio.wait_for(
                    writer.drain(), timeout=cfg.ack_timeout
                )
            if fault in (FaultKind.TRUNCATE, FaultKind.PARTIAL_WRITE):
                # The receiver is left waiting for bytes that will
                # never come; close cleanly and classify the loss.
                if transport.can_write_eof():
                    writer.write_eof()
                if fault is FaultKind.TRUNCATE:
                    self.stats.corrupt_frames += 1
                else:
                    self.stats.partial_writes += 1
                return False

            ok = True
            for _ in payloads:
                ack = await asyncio.wait_for(
                    reader.readexactly(1), timeout=cfg.ack_timeout
                )
                ok = ok and ack in SUCCESS_ACKS
                if ack in SUCCESS_ACKS:
                    self.last_ack = ack
            return ok
        except (*_CONN_ERRORS, asyncio.IncompleteReadError):
            self.stats.conn_resets += 1
            return False
        finally:
            with suppress(*_CONN_ERRORS):
                writer.close()
