"""The per-host measurement engine: one chunked pass over trace columns.

:class:`HostEngine` is the only data-plane loop.  It walks a trace in
*chunks*; a chunk ends at the next of ``stop_at``, a
``checkpoint_every`` multiple, or the end of the trace.  Inside a chunk
the routing pass replays the producer/consumer cycle recurrences and
decides, per packet, normal path or fast path (or block), in two
stretches: up to the first packet that finds the FIFO full every
packet is enqueued, and exact array scans (:func:`max_plus_scan`)
advance both clocks; from there a lean loop — plain lists and locals,
the FIFO as a deque of enqueue cycles and its head's completion cycle
in a local, no packet-object reads — takes each packet in turn.
Counter state never influences routing, so the chunk's normal-path
packets go to the sketch afterwards in one
:meth:`~repro.sketches.base.Sketch.update_trace` call, and the
report's packet/byte counts are derived from the chunk's index arrays
(integer sums: exact in any order).  The flows diverted to the fast
path are marked in a mask over the trace's flow ordinals;
:meth:`HostEngine.finish` counts the report's flows from it and the
flow column.  The fast path is order-dependent (kick-outs), so it
stays inline, one protocol for every kind of top-k table (Algorithm 1,
Misra-Gries, Space-Saving), profiled or not: a hit is a dict probe and
an add on the :class:`~repro.fastpath.topk.TopKTable`'s columns, a miss
calls the table's ``miss`` rule, and the hits are credited once per
chunk.  For the length of :meth:`HostEngine.run` the table is keyed on
the trace's flow ordinals (:meth:`~repro.fastpath.topk.TopKTable.bind`),
so the loop probes with the ``flow`` column's values and no
:class:`FlowKey` is hashed per packet; the keys are translated through
``trace.table`` at the edges, once each way per ``run``, and hooks and
snapshots read flows through the bound table.  A profiler adds two
clock reads around the per-packet stretch and nothing inside it.

The engine's *entire* execution state — sketch, fast path, FIFO
backlog, producer/consumer clocks, partially filled report, fast-flow
mask and the trace offset — lives on the instance between chunks, and
the ``on_checkpoint`` hook fires only after it has been written back.
That makes an epoch **interruptible and resumable**:
``run(trace, stop_at=k)`` stops at offset ``k``; calling ``run`` again
(on this engine, or on one rebuilt from a
:class:`~repro.durability.StateCodec` snapshot) continues exactly there
and ends bit-identical to an uninterrupted run.  The cycle recurrences
use the same sequential float operations whatever the chunking, which
is what the per-packet oracle in ``tests/reference_engine.py`` pins.

:class:`~repro.dataplane.switch.SoftwareSwitch` and the durability
:class:`~repro.durability.Supervisor` both drive this engine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.common.errors import ConfigError
from repro.dataplane.buffer import BoundedFIFO
from repro.dataplane.cost_model import CostModel
from repro.fastpath.topk import TopKTable, UpdateKind
from repro.traffic.trace import used_flows

#: Whole-array passes :func:`max_plus_scan` makes before it chains
#: every busy run still open.
SCAN_PASSES = 16
#: Elements a run's first accumulate span reaches past its open block;
#: each further span doubles.
_CHAIN_SPAN = 64


@dataclass
class SwitchReport:
    """Per-epoch statistics of one software switch."""

    total_packets: int = 0
    total_bytes: float = 0.0
    normal_packets: int = 0
    normal_bytes: float = 0.0
    fastpath_packets: int = 0
    fastpath_bytes: float = 0.0
    producer_cycles: float = 0.0
    consumer_cycles: float = 0.0
    makespan_cycles: float = 0.0
    throughput_gbps: float = 0.0
    buffer_high_water: int = 0
    #: Distinct flows seen; those sent down the fast path at least once.
    flow_count: int = 0
    fastpath_flow_count: int = 0

    @classmethod
    def combine(
        cls, reports: list["SwitchReport"], cost_model: CostModel
    ) -> "SwitchReport":
        """One host's report from its cores' (§7.2).  Counts add (flow
        counts too: the cores split the host's flows); cores run
        concurrently, so the cycle counts and the buffer high-water
        mark are the slowest (fullest) core's, and throughput is total
        bytes over the longest makespan."""
        total_bytes = sum(r.total_bytes for r in reports)
        makespan = max(r.makespan_cycles for r in reports)
        return cls(
            total_packets=sum(r.total_packets for r in reports),
            total_bytes=total_bytes,
            normal_packets=sum(r.normal_packets for r in reports),
            normal_bytes=sum(r.normal_bytes for r in reports),
            fastpath_packets=sum(r.fastpath_packets for r in reports),
            fastpath_bytes=sum(r.fastpath_bytes for r in reports),
            producer_cycles=max(r.producer_cycles for r in reports),
            consumer_cycles=max(r.consumer_cycles for r in reports),
            makespan_cycles=makespan,
            throughput_gbps=cost_model.gbps(total_bytes, makespan),
            buffer_high_water=max(r.buffer_high_water for r in reports),
            flow_count=sum(r.flow_count for r in reports),
            fastpath_flow_count=sum(
                r.fastpath_flow_count for r in reports
            ),
        )

    @property
    def fastpath_packet_fraction(self) -> float:
        if self.total_packets == 0:
            return 0.0
        return self.fastpath_packets / self.total_packets

    @property
    def fastpath_byte_fraction(self) -> float:
        if self.total_bytes == 0:
            return 0.0
        return self.fastpath_bytes / self.total_bytes

    @property
    def fastpath_flow_fraction(self) -> float:
        if self.flow_count == 0:
            return 0.0
        return self.fastpath_flow_count / self.flow_count


def arrival_cycles_array(trace, offered_gbps, cost_model: CostModel):
    """Per-packet arrival cycles for a trace replayed at ``offered_gbps``.

    Returns ``None`` for back-to-back replay (``offered_gbps=None`` or a
    zero-duration trace): every arrival is cycle 0.  The element-wise
    float64 operations match scalar Python-float arithmetic bit for bit,
    so chunked, resumed, and per-packet runs see identical clocks.
    """
    if offered_gbps is None:
        return None
    if offered_gbps <= 0:
        raise ConfigError("offered_gbps must be positive")
    total_bytes = trace.total_bytes
    target_duration = total_bytes * 8.0 / (offered_gbps * 1e9)
    span = trace.duration
    start = trace.timestamps[0] if len(trace) else 0.0
    hz = cost_model.cpu_hz
    if span <= 0:
        return None
    scale = target_duration / span * hz
    return (trace.timestamps - start) * scale


class HostEngine:
    """One host's measurement loop with externally visible state.

    Parameters
    ----------
    sketch:
        The normal-path sketch (mutated in place, chunk by chunk).
    fastpath:
        A :class:`~repro.fastpath.topk.TopKTable` (:class:`FastPath`,
        Misra-Gries or Space-Saving), or ``None`` for the NoFastPath
        (blocking) arm.
    cost_model:
        Cycle accounting; also needed to finalize throughput.
    buffer_packets:
        FIFO capacity when no ``fifo`` is supplied.
    ideal:
        Bypass all capacity limits (accuracy yardstick).
    fifo:
        An existing :class:`BoundedFIFO` to (re)use — the switch passes
        its own buffer so ``switch.buffer.high_water`` keeps reflecting
        the last epoch.  The queue is cleared on construction; restored
        engines refill it through :meth:`BoundedFIFO.restore`.
    profiler:
        Optional :class:`~repro.telemetry.profiling.Profiler`.  When
        set, each ``run`` call attributes its wall time to stages,
        never a span per packet: ``switch.sketch_update`` (the
        normal-path ``update_trace`` calls), ``fastpath.topk`` (the
        routing loop's per-packet stretch, which handles every
        fast-path packet; credited per chunk with the chunk's
        fast-path packets) and ``switch.dispatch`` (the rest).  The
        loop is the unprofiled one with two clock reads around it, so
        results are bit-identical either way.
    """

    def __init__(
        self,
        sketch,
        fastpath: TopKTable | None = None,
        cost_model: CostModel | None = None,
        buffer_packets: int = 1024,
        ideal: bool = False,
        fifo: BoundedFIFO | None = None,
        profiler=None,
    ):
        if ideal and fastpath is not None:
            raise ConfigError("ideal mode does not use a fast path")
        self.sketch = sketch
        self.fastpath = fastpath
        self.cost_model = cost_model or CostModel.in_memory()
        self.fifo = fifo if fifo is not None else BoundedFIFO(buffer_packets)
        self.fifo.clear()
        self.ideal = ideal
        #: Packets consumed so far — the replay cursor the write-ahead
        #: journal records.
        self.offset = 0
        self.producer = 0.0  # next cycle the producer is free
        self.consumer = 0.0  # next cycle the consumer is free
        self.report = SwitchReport()
        #: Per flow ordinal, whether the fast path saw it: relative to
        #: the epoch's trace, like ``offset``; sized by the first run.
        self.fast_flows: np.ndarray | None = None
        self._flow = None  # the flow column ``run`` last saw
        self.profiler = profiler
        self._sketch_cycles = self.cost_model.sketch_cycles(sketch)
        self._fastpath_cycles = (
            None
            if fastpath is None
            else {
                kind: self.cost_model.fastpath_cycles(
                    kind, fastpath.capacity
                )
                for kind in UpdateKind
            }
        )

    # ------------------------------------------------------------------
    def run(
        self,
        trace,
        offered_gbps: float | None = None,
        stop_at: int | None = None,
        checkpoint_every: int = 0,
        on_checkpoint=None,
    ) -> "HostEngine":
        """Process ``trace[self.offset : stop_at]`` and return self.

        ``offered_gbps`` scales the trace's timestamps to an arrival
        rate (``None`` replays back-to-back); pass the same value on
        every call of one epoch.  ``stop_at`` bounds the *offset*
        reached, so a supervisor can stop exactly where a scheduled
        fault fires; ``None`` runs to the end of the trace.

        ``on_checkpoint(engine)`` fires when the absolute offset is a
        multiple of ``checkpoint_every`` (alignment is to the trace, not
        to the restart point, so boundaries are stable across crashes)
        and packets remain; it sees the engine with the chunk fully
        applied.
        """
        n = len(trace)
        end = n if stop_at is None else min(stop_at, n)
        self._flow = trace.flow
        if self.fast_flows is None:
            self.fast_flows = np.zeros(len(trace.table), dtype=bool)
        if end <= self.offset:
            return self
        if on_checkpoint is None:
            checkpoint_every = 0

        arrivals = arrival_cycles_array(
            trace, offered_gbps, self.cost_model
        )
        sizes, flow, table = trace.sizes, trace.flow, trace.table
        report = self.report
        fast_flows = self.fast_flows

        # Fast-path protocol: the table's columns are probed inline by
        # flow ordinal (the table is bound for this call), a miss goes
        # to its ``miss`` rule, and the hits are credited per chunk.
        # Only fast-path packets have their size and flow read inside
        # the loop.
        fastpath = self.fastpath
        profiler = self.profiler
        clock = time.perf_counter_ns if profiler is not None else None
        probe = residuals = miss = size_list = flow_list = None
        if fastpath is not None:
            size_list, flow_list = sizes.tolist(), flow.tolist()
            probe, residuals = fastpath.bind(table), fastpath.r
            miss = fastpath.miss
        began = clock() if clock is not None else 0
        first = self.offset
        staged_ns = 0  # profiled: credited to the two stages below

        try:
            while self.offset < end:
                lo = self.offset
                hi = end
                if checkpoint_every:
                    hi = min(
                        hi, (lo // checkpoint_every + 1) * checkpoint_every
                    )
                if self.ideal:
                    self._pace(_due(arrivals, lo, hi))
                    normal = np.arange(lo, hi, dtype=np.intp)
                    fast = normal[:0]
                    misses = loop_ns = 0
                else:
                    normal, fast, misses, loop_ns = self._route(
                        lo, hi, arrivals, flow_list, size_list,
                        probe, residuals, miss, clock,
                    )

                normal_bytes = fast_bytes = 0
                if normal.size:
                    whole = normal.size == n
                    t0 = clock() if clock is not None else 0
                    self.sketch.update_trace(trace, None if whole else normal)
                    if clock is not None:
                        spent = clock() - t0
                        profiler.add(
                            "switch.sketch_update", spent, normal.size
                        )
                        staged_ns += spent
                    normal_bytes = int(
                        (sizes if whole else sizes[normal]).sum()
                    )
                    report.normal_packets += normal.size
                    report.normal_bytes += normal_bytes
                if fast.size:
                    fast_bytes = int(sizes[fast].sum())
                    fastpath.account(
                        fast.size, fast.size - misses, fast_bytes
                    )
                    if clock is not None:
                        profiler.add("fastpath.topk", loop_ns, fast.size)
                        staged_ns += loop_ns
                    report.fastpath_packets += fast.size
                    report.fastpath_bytes += fast_bytes
                    fast_flows[flow[fast]] = True
                report.total_packets += hi - lo
                report.total_bytes += normal_bytes + fast_bytes

                self.offset = hi
                if checkpoint_every and hi % checkpoint_every == 0 and hi < n:
                    on_checkpoint(self)
        finally:
            if fastpath is not None:
                fastpath.unbind()

        if profiler is not None:
            total_ns = clock() - began
            packets = self.offset - first
            profiler.add(
                "switch.dispatch", max(total_ns - staged_ns, 0), packets
            )
        return self

    # ------------------------------------------------------------------
    def _pace(self, due) -> None:
        """Ideal mode: every packet is recorded; only the clocks move."""
        produced = max_plus_scan(
            due, self.cost_model.dispatch_cycles, self.producer
        )[0]
        done = max_plus_scan(produced, self._sketch_cycles, self.consumer)[0]
        self.producer = float(produced[-1])
        self.consumer = float(done[-1])

    def _scan(self, lo, hi, arrivals) -> int:
        """Route packets ``lo..`` to the normal path as array scans.

        While the backlog stays below capacity every packet is enqueued,
        so the producer clock is the max-plus recurrence over arrivals,
        the consumer's completion times the same recurrence over the
        queue behind it, and the backlog at each arrival a
        ``searchsorted`` of one in the other.  The clocks, the FIFO and
        its high-water mark are advanced up to the first packet that
        would find the FIFO full, whose index is returned; the loop in
        :meth:`_route` takes over from there.
        """
        fifo = self.fifo
        due = _due(arrivals, lo, hi)
        held = len(fifo.queue)
        produced = max_plus_scan(
            due, self.cost_model.dispatch_cycles, self.producer
        )[0]
        enqueued = np.concatenate((np.array(fifo.queue), produced))
        done = max_plus_scan(enqueued, self._sketch_cycles, self.consumer)[0]
        # Before each packet is enqueued, the loop pops every item done
        # by `now` of the `queued` items pushed so far.
        now = np.maximum(
            np.concatenate(((self.producer,), produced[:-1])), due
        )
        queued = np.arange(held, held + hi - lo)
        popped = np.minimum(done.searchsorted(now, "right"), queued)
        backlog = queued - popped
        full = np.flatnonzero(backlog >= fifo.capacity)
        stop = int(full[0]) if full.size else hi - lo
        if stop:
            gone = int(popped[stop - 1])
            self.producer = float(produced[stop - 1])
            if gone:
                self.consumer = float(done[gone - 1])
            fifo.queue.clear()
            fifo.queue.extend(enqueued[gone : held + stop].tolist())
            fifo.high_water = max(
                fifo.high_water, int(backlog[:stop].max()) + 1
            )
        return lo + stop

    def _route(
        self, lo, hi, arrivals, flows, sizes, probe, residuals, miss, clock
    ):
        """Cycle accounting for packets ``lo..hi``: who goes where.

        Returns ``(normal, fast, misses, loop_ns)`` — index arrays of
        the packets enqueued for the normal path and of those diverted
        to the fast path, how many of the latter ``probe`` did not find
        (those went to ``miss``; the rest were added to ``residuals``),
        and the nanoseconds ``clock`` (if not ``None``) read across the
        per-packet stretch, which is where every fast-path packet is
        handled.  The
        recurrences are the paper's dispatch rule (§3.1) in sequential
        floating point: :meth:`_scan` up to the first full backlog, then
        one packet at a time, where ``x if x > y else y`` is
        ``max(x, y)`` without the call.  The FIFO head's completion
        cycle is kept in a local (infinite while the FIFO is empty), so
        a packet that pops nothing costs one compare.
        """
        begin = lo
        lo = self._scan(lo, hi, arrivals)
        scanned = np.arange(begin, lo, dtype=np.intp)
        if lo == hi:
            return scanned, scanned[:0], 0, 0
        due = (
            repeat(0.0, hi - lo)
            if arrivals is None
            else arrivals[lo:hi].tolist()
        )
        producer = self.producer
        consumer = self.consumer
        dispatch = self.cost_model.dispatch_cycles
        sketch_cycles = self._sketch_cycles
        fifo = self.fifo
        queue = fifo.queue
        capacity = fifo.capacity
        high_water = fifo.high_water
        push = queue.append
        pop = queue.popleft
        head_done = math.inf
        if queue:
            head = queue[0]
            head_done = (consumer if consumer > head else head) + sketch_cycles
        normal: list[int] = []
        to_normal = normal.append
        misses = 0
        cycles = self._fastpath_cycles or {}
        hit_cycles = cycles.get(UpdateKind.HIT, 0.0)
        insert_cycles = cycles.get(UpdateKind.INSERT, 0.0)
        kickout_cycles = cycles.get(UpdateKind.KICKOUT, 0.0)
        kickout = UpdateKind.KICKOUT
        began = clock() if clock is not None else 0

        for index, arrival in zip(range(lo, hi), due):
            now = producer if producer > arrival else arrival
            # Let the consumer catch up to `now` in parallel.
            while head_done <= now:
                pop()
                consumer = head_done
                if queue:
                    head = queue[0]
                    head_done = (
                        consumer if consumer > head else head
                    ) + sketch_cycles
                else:
                    head_done = math.inf
            producer = now + dispatch

            backlog = len(queue)
            if backlog < capacity:
                push(producer)
                to_normal(index)
                if not backlog:
                    head_done = (
                        consumer if consumer > producer else producer
                    ) + sketch_cycles
                if backlog >= high_water:
                    high_water = backlog + 1
            elif probe is None:
                # NoFastPath: block until the daemon frees a slot.
                pop()
                consumer = head_done
                if consumer > producer:
                    producer = consumer
                push(producer)
                to_normal(index)
                head = queue[0]
                head_done = (
                    consumer if consumer > head else head
                ) + sketch_cycles
            else:
                flow = flows[index]
                slot = probe(flow)
                if slot is not None:
                    residuals[slot] += sizes[index]
                    producer += hit_cycles
                else:
                    misses += 1
                    # Kinds compare by identity: an Enum hashes in
                    # Python code.
                    kind = miss(flow, sizes[index])
                    producer += (
                        kickout_cycles if kind is kickout else insert_cycles
                    )

        loop_ns = clock() - began if clock is not None else 0
        self.producer = producer
        self.consumer = consumer
        fifo.high_water = high_water
        routed = np.asarray(normal, dtype=np.intp)
        # The rest of lo..hi went to the fast path.
        fast = np.ones(hi - lo, dtype=bool)
        fast[routed - lo] = False
        return (
            np.concatenate((scanned, routed)),
            np.flatnonzero(fast) + lo,
            misses,
            loop_ns,
        )

    # ------------------------------------------------------------------
    def finish(self) -> SwitchReport:
        """Drain the FIFO and finalize the epoch's report."""
        fifo = self.fifo
        if fifo.queue:
            done = max_plus_scan(
                np.array(fifo.queue), self._sketch_cycles, self.consumer
            )[0]
            self.consumer = float(done[-1])
            fifo.queue.clear()
        consumer = self.consumer

        report = self.report
        report.buffer_high_water = fifo.high_water
        report.producer_cycles = self.producer
        report.consumer_cycles = consumer
        report.makespan_cycles = max(self.producer, consumer)
        report.throughput_gbps = self.cost_model.gbps(
            report.total_bytes, report.makespan_cycles
        )
        # Every packet up to the offset was routed one way or other.
        seen = used_flows(self._flow[: self.offset], self.fast_flows.size)
        report.flow_count = seen.size
        report.fastpath_flow_count = int(self.fast_flows.sum())
        return report


def max_plus_scan(x, step, start):
    """``y[i] = max(y[i-1], x[i]) + step`` from ``y[-1] = start``.

    Both clocks of the paper's dispatch rule are this recurrence.  It is
    solved as a fix-point of whole-array passes: every ``y[i]`` starts
    as ``x[i] + step`` (a busy run of its own), and a pass sets
    ``y[i] = y[i-1] + step`` wherever ``y[i-1] > x[i]``, revisiting
    only the elements whose predecessor moved.  Each settled element is
    the loop's own ``max`` and one ``+`` of its settled predecessor, so
    the result matches the sequential loop bit for bit; no sum is
    reassociated.  A pass settles at least one more element of every
    open busy run.  When most of what a pass revisited moved (long
    runs), the first open run is settled at once as ``np.add.accumulate``
    of ``+ step``, the loop's own chain; after :data:`SCAN_PASSES`
    passes every open run is, so the work stays near-linear.

    Returns ``(y, passes)``, ``passes`` counting whole-array passes and
    accumulate spans.
    """
    n = len(x)
    y = np.empty(n + 1)
    y[0] = start
    np.add(x, step, out=y[1:])
    # y[i] pairs with x[i - 1].  The first pass covers every element,
    # later ones only those whose predecessor moved.
    value = np.maximum(y[:-1], x) + step
    moved = np.flatnonzero(value != y[1:]) + 1
    y[1:] = value
    passes, revisited = 1, n
    while True:
        active = moved[moved < n] + 1
        capped = passes >= SCAN_PASSES
        if active.size and (capped or 2 * moved.size > revisited):
            spans, active = _chain_runs(y, x, step, active, every=capped)
            passes += spans
        if not active.size:
            break
        passes += 1
        revisited = active.size
        value = np.maximum(y[active - 1], x[active - 1]) + step
        changed = value != y[active]
        moved = active[changed]
        y[moved] = value[changed]
    return y[1:], passes


def _chain_runs(y, x, step, active, every):
    """Settle the first open busy run of ``y`` (see
    :func:`max_plus_scan`), or ``every`` one, by accumulate chains;
    returns the spans taken and the ``active`` elements left.

    Everything before the first element of ``active`` is settled, and an
    element outside ``active`` agrees with its predecessor, so each run
    that opens at a next ``active`` element follows a settled one.  A
    run's first span covers its block of consecutive ``active``
    elements, the part of it the passes left open.
    """
    last = np.append(np.flatnonzero(np.diff(active) > 1), active.size - 1)
    at = spans = 0
    while at < active.size:
        j = int(active[at])
        block = int(active[last[last.searchsorted(at)]]) - j + 1
        end, taken = _chain(y, x, step, j, block + _CHAIN_SPAN)
        spans += taken
        at = int(active.searchsorted(end, "right"))
        if not every:
            break
    return spans, active[at:]


def _chain(y, x, step, j, span):
    """Settle the busy run that continues at ``y[j]`` from a settled
    ``y[j - 1]``: ``+ step`` for as long as the clock is ahead of
    ``x``, as ``np.add.accumulate`` over spans that start at ``span``
    and double.

    Returns ``(end, spans)``: the first index past the run (its element
    keeps its seed ``x + step``, which is settled) or ``len(y)``.
    """
    spans = 0
    while j < len(y):
        top = min(j + span, len(y))
        span *= 2
        spans += 1
        chain = np.full(top - j + 1, step, dtype=np.float64)
        chain[0] = y[j - 1]
        chain = np.add.accumulate(chain)
        # The run goes on at y[j + m] while chain[m] > x[j + m - 1].
        ends = np.flatnonzero(chain[:-1] <= x[j - 1 : top - 1])
        end = j + int(ends[0]) if ends.size else top
        y[j:end] = chain[1 : end - j + 1]
        if ends.size:
            return end, spans
        j = top
    return j, spans


def _due(arrivals, lo, hi):
    """Arrival cycles of packets ``lo..hi`` (zeros for back-to-back)."""
    return np.zeros(hi - lo) if arrivals is None else arrivals[lo:hi]
