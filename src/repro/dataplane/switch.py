"""The software-switch measurement module: normal path + fast path.

Two coupled actors simulate the prototype's architecture (§6):

* the **producer** models the kernel module: it receives each packet
  (``dispatch_cycles``), then either enqueues its header into the
  bounded FIFO (when there is room) or updates the fast path in place
  (when the FIFO is full) — exactly the paper's dispatch rule, with no
  proactive packet classification (§3.1);
* the **consumer** models the user-space daemon: it drains the FIFO and
  records each packet into the normal-path sketch at the sketch's
  calibrated per-packet cycle cost, running concurrently on its own
  core.

Three operating modes cover the paper's evaluation arms:

* ``fastpath`` given — SketchVisor (or MGFastPath when handed a
  :class:`~repro.fastpath.misra_gries.MisraGriesTopK`);
* ``fastpath=None`` — NoFastPath: the producer *blocks* on a full FIFO
  (nothing is dropped, so the measured throughput collapses to the
  normal path's rate, matching Figure 6);
* ``ideal=True`` — the accuracy yardstick: every packet goes through
  the normal path with no capacity constraint (§7.3 "Ideal").
"""

from __future__ import annotations

import time
from itertools import repeat

import numpy as np

from repro.common.errors import ConfigError
from repro.dataplane.buffer import BoundedFIFO
from repro.dataplane.cost_model import CostModel
from repro.dataplane.engine import (
    HostEngine,
    SwitchReport,
    arrival_cycles_array,
)
from repro.fastpath.misra_gries import MisraGriesTopK
from repro.fastpath.topk import FastPath
from repro.sketches.base import Sketch
from repro.telemetry import Telemetry, trace_span
from repro.telemetry.publish import (
    fastpath_stats,
    publish_fastpath_epoch,
    publish_switch_epoch,
)

__all__ = ["SoftwareSwitch", "SwitchReport"]


class SoftwareSwitch:
    """One host's measurement module.

    Parameters
    ----------
    sketch:
        The normal-path sketch-based solution (operator's choice, §3.1).
    fastpath:
        A :class:`FastPath` / :class:`MisraGriesTopK`, or None for
        NoFastPath (blocking) behaviour.
    cost_model:
        Cycle accounting (in-memory or testbed profile).
    buffer_packets:
        FIFO capacity in packets.
    ideal:
        When True, bypass all capacity limits (accuracy yardstick).
    batch:
        When True, run the two-phase batched simulation: a cheap
        per-packet *cycle-accounting* pass decides routing (normal path
        vs fast path vs block) exactly as the scalar loop does, and a
        *batch-apply* pass then feeds all normal-path packets to the
        sketch in one ``Sketch.update_trace`` call — a NumPy kernel for
        every sketch except UnivMon, whose order-dependent trackers
        keep the per-packet loop.  Counter state never influences
        routing, and each kernel reproduces the in-order result
        exactly, so reports and sketch state are bit-identical to the
        scalar path.
    """

    def __init__(
        self,
        sketch: Sketch,
        fastpath: FastPath | MisraGriesTopK | None = None,
        cost_model: CostModel | None = None,
        buffer_packets: int = 1024,
        ideal: bool = False,
        batch: bool = False,
        telemetry: Telemetry | None = None,
        host_label: str = "0",
    ):
        if ideal and fastpath is not None:
            raise ConfigError("ideal mode does not use a fast path")
        self.sketch = sketch
        self.fastpath = fastpath
        self.cost_model = cost_model or CostModel.in_memory()
        self.buffer = BoundedFIFO(buffer_packets)
        self.ideal = ideal
        self.batch = batch
        self.telemetry = telemetry
        self.host_label = host_label
        #: Optional :class:`~repro.telemetry.profiling.Profiler`; the
        #: pipeline attaches one (serially, or per worker) so both
        #: engines attribute their epoch wall time to named stages.
        #: Independent of ``telemetry`` — per-host metrics publish
        #: centrally from reports, but stage timers must run where the
        #: cycles are spent.
        self.profiler = None
        # Fast-path operation counters are lifetime totals; remember
        # what was already published so each epoch increments by delta.
        self._published_fastpath: dict[str, float] | None = None

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """The evaluation arm this switch realizes (for log lines)."""
        if self.ideal:
            return "ideal"
        if self.fastpath is None:
            return "no_fastpath"
        if isinstance(self.fastpath, MisraGriesTopK):
            return "mg_fastpath"
        return "sketchvisor"

    def describe(self) -> str:
        """One-line configuration summary for logs and error messages."""
        parts = [
            f"mode={self.mode}",
            f"engine={'batch' if self.batch else 'scalar'}",
            f"sketch={self.sketch.describe()}",
            f"buffer={self.buffer.capacity}p",
        ]
        if self.fastpath is not None:
            parts.append(
                f"fastpath={type(self.fastpath).__name__}"
                f"(k={self.fastpath.capacity})"
            )
        parts.append(
            f"telemetry={'on' if self.telemetry is not None else 'off'}"
        )
        return f"SoftwareSwitch({', '.join(parts)})"

    def __repr__(self) -> str:
        return self.describe()

    # ------------------------------------------------------------------
    def process(self, trace, offered_gbps: float | None = None) -> SwitchReport:
        """Run one epoch of traffic through the measurement module.

        ``offered_gbps`` scales the trace's timestamps to the given
        arrival rate; ``None`` replays back-to-back ("each host sends
        out traffic as fast as possible", §7.1), which measures the
        switch's maximum sustainable throughput.

        Dispatches to the scalar or the two-phase batched engine
        depending on ``batch``; both produce identical reports.
        """
        engine = "batch" if self.batch else "scalar"
        with trace_span(
            self.telemetry,
            "switch.process",
            host=self.host_label,
            engine=engine,
        ):
            if self.batch:
                report = self._process_batch(trace, offered_gbps)
            else:
                report = self._process_scalar(trace, offered_gbps)
        if self.telemetry is not None:
            self._publish(report, engine)
        return report

    def _publish(self, report: SwitchReport, engine: str) -> None:
        """Publish this epoch's counters (fast-path stats by delta)."""
        registry = self.telemetry.registry
        publish_switch_epoch(
            registry,
            report,
            host=self.host_label,
            sketch=self.sketch.name,
            engine=engine,
        )
        if self.fastpath is None:
            return
        stats = fastpath_stats(self.fastpath)
        previous = self._published_fastpath
        if previous is not None:
            deltas = {
                key: value - previous.get(key, 0.0)
                for key, value in stats.items()
            }
            deltas["tracked"] = stats["tracked"]  # gauge: absolute
        else:
            deltas = stats
        self._published_fastpath = stats
        publish_fastpath_epoch(registry, deltas, host=self.host_label)

    def _process_scalar(
        self, trace, offered_gbps: float | None = None
    ) -> SwitchReport:
        """The per-packet reference implementation (see ``engine.py``).

        Delegates to a fresh :class:`HostEngine` over the switch's own
        FIFO, so the interactive switch and the resumable/supervised
        paths execute one shared loop.
        """
        engine = HostEngine(
            sketch=self.sketch,
            fastpath=self.fastpath,
            cost_model=self.cost_model,
            ideal=self.ideal,
            fifo=self.buffer,
            profiler=self.profiler,
        )
        arrivals = self._arrival_cycles_array(trace, offered_gbps)
        engine.run(
            trace.packets,
            None if arrivals is None else arrivals.tolist(),
        )
        return engine.finish()

    # ------------------------------------------------------------------
    # Two-phase batched engine
    # ------------------------------------------------------------------
    def _process_batch(
        self, trace, offered_gbps: float | None = None
    ) -> SwitchReport:
        """Phase 1: cycle accounting + routing; phase 2: batch apply.

        The cycle recurrences are evaluated with the *same sequential
        floating-point operations* as the scalar loop (closed-form
        reassociation would change rounding), but without any sketch
        hashing — the expensive per-packet work moves into one
        ``Sketch.update_trace`` call at the end.
        """
        report = SwitchReport()
        sketch_cycles = self.cost_model.sketch_cycles(self.sketch)
        dispatch = self.cost_model.dispatch_cycles
        arrivals = self._arrival_cycles_array(trace, offered_gbps)
        n = len(trace)
        profiler = self.profiler
        clock = time.perf_counter_ns if profiler is not None else None

        if self.ideal:
            loop_start = clock() if clock is not None else 0
            producer = 0.0
            consumer = 0.0
            if arrivals is None:
                for _ in range(n):
                    producer = producer + dispatch
                    consumer = max(consumer, producer) + sketch_cycles
            else:
                for arrival in arrivals.tolist():
                    producer = max(producer, arrival) + dispatch
                    consumer = max(consumer, producer) + sketch_cycles
            if profiler is not None:
                profiler.add(
                    "switch.dispatch", clock() - loop_start, n
                )
                with profiler.stage(
                    "switch.sketch_update", packets=n
                ):
                    self._apply_normal_batch(trace, None)
            else:
                self._apply_normal_batch(trace, None)
            report.total_packets = n
            report.total_bytes = float(trace.sizes.sum())
            report.normal_packets = n
            report.normal_bytes = report.total_bytes
            report.normal_flows = trace.flows()
            report.producer_cycles = producer
            report.consumer_cycles = consumer
            report.makespan_cycles = max(producer, consumer)
            report.throughput_gbps = self.cost_model.gbps(
                report.total_bytes, report.makespan_cycles
            )
            return report

        producer = 0.0
        consumer = 0.0
        fifo = self.buffer
        fifo.clear()
        normal_indices: list[int] = []
        arrival_iter = repeat(0.0, n) if arrivals is None else iter(
            arrivals.tolist()
        )
        loop_start = clock() if clock is not None else 0
        fp_ns = 0
        fp_count = 0

        for index, (packet, arrival) in enumerate(
            zip(trace.packets, arrival_iter)
        ):
            now = max(producer, arrival)
            while not fifo.empty:
                start = max(consumer, fifo.peek_enqueue_cycle())
                if start + sketch_cycles > now:
                    break
                fifo.pop()
                consumer = start + sketch_cycles

            producer = now + dispatch
            report.total_packets += 1
            report.total_bytes += packet.size

            if fifo.full and self.fastpath is None:
                # NoFastPath: block until the daemon frees a slot.
                start = max(consumer, fifo.peek_enqueue_cycle())
                fifo.pop()
                consumer = start + sketch_cycles
                producer = max(producer, consumer)

            if not fifo.full:
                fifo.push(packet, producer)
                normal_indices.append(index)
                report.normal_packets += 1
                report.normal_bytes += packet.size
                report.normal_flows.add(packet.flow)
            else:
                # The fast path is order-dependent (top-k kick-outs), so
                # it stays inline in the accounting pass.
                if clock is None:
                    kind = self.fastpath.update(packet.flow, packet.size)
                else:
                    t0 = clock()
                    kind = self.fastpath.update(packet.flow, packet.size)
                    fp_ns += clock() - t0
                    fp_count += 1
                producer += self.cost_model.fastpath_cycles(
                    kind, self.fastpath.capacity
                )
                report.fastpath_packets += 1
                report.fastpath_bytes += packet.size
                report.fastpath_flows.add(packet.flow)

        while not fifo.empty:
            _packet, enqueued = fifo.pop()
            consumer = max(consumer, enqueued) + sketch_cycles

        if profiler is not None:
            loop_ns = clock() - loop_start
            if fp_count:
                profiler.add("fastpath.topk", fp_ns, fp_count)
            profiler.add(
                "switch.dispatch", max(loop_ns - fp_ns, 0), n
            )

        if normal_indices:
            if profiler is not None:
                with profiler.stage(
                    "switch.sketch_update",
                    packets=len(normal_indices),
                ):
                    self._apply_normal_batch(
                        trace,
                        np.asarray(normal_indices, dtype=np.intp),
                    )
            else:
                self._apply_normal_batch(
                    trace, np.asarray(normal_indices, dtype=np.intp)
                )

        report.buffer_high_water = fifo.high_water
        report.producer_cycles = float(producer)
        report.consumer_cycles = float(consumer)
        report.makespan_cycles = max(
            report.producer_cycles, report.consumer_cycles
        )
        report.throughput_gbps = self.cost_model.gbps(
            report.total_bytes, report.makespan_cycles
        )
        return report

    def _apply_normal_batch(self, trace, indices) -> None:
        """Apply deferred normal-path updates (``indices=None`` = all).

        One call into :meth:`Sketch.update_trace`, which picks the
        sketch's own kernel (``update_batch`` on the key64 column, or a
        header-reading kernel for FlowRadar/Deltoid) and otherwise runs
        the per-packet loop (UnivMon); all are bit-identical to the
        scalar engine.
        """
        self.sketch.update_trace(trace, indices)

    # ------------------------------------------------------------------
    def _arrival_cycles_array(self, trace, offered_gbps: float | None):
        """Per-packet arrival cycles (``None`` = back-to-back replay).

        See :func:`repro.dataplane.engine.arrival_cycles_array`.
        """
        return arrival_cycles_array(trace, offered_gbps, self.cost_model)
