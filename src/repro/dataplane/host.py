"""Host wrapper: one data-plane instance reporting to the control plane.

Each epoch, the host runs its traffic shard through the software switch
and emits a :class:`LocalReport` — the normal-path sketch, the fast-path
snapshot (top-k table with bounds plus the ``V``/``E`` globals), and the
switch statistics — mirroring the per-epoch ZeroMQ report of the
prototype (§6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataplane.cost_model import CostModel
from repro.dataplane.switch import SoftwareSwitch, SwitchReport
from repro.fastpath.misra_gries import MisraGriesTopK
from repro.fastpath.topk import FastPath, FastPathSnapshot
from repro.sketches.base import Sketch
from repro.traffic.trace import Trace


@dataclass
class LocalReport:
    """One host's per-epoch report to the controller.

    A report that leaves as a frame is handed off the moment it is
    built (:meth:`hand_off`): it keeps the encoded frame instead of the
    sketch, and :attr:`sketch` reads the sketch back from the frame
    each time it is asked for.  Either way a report pickles — and so
    encodes — as its four fields.
    """

    host_id: int
    #: ``None`` once the epoch is retired (:meth:`retire`).
    sketch: Sketch | None
    fastpath: FastPathSnapshot | None
    switch: SwitchReport
    #: The encoded frame of a handed-off report, else ``None``.
    frame: bytes | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def build(
        cls,
        host_id: int,
        sketch: Sketch,
        fastpath: FastPath | MisraGriesTopK | None,
        switch: SwitchReport,
    ) -> "LocalReport":
        """The report of a finished epoch: only a :class:`FastPath`
        reports a snapshot (Misra-Gries and no fast path send none)."""
        return cls(
            host_id=host_id,
            sketch=sketch,
            fastpath=(
                fastpath.snapshot()
                if isinstance(fastpath, FastPath)
                else None
            ),
            switch=switch,
        )

    def _get_sketch(self) -> Sketch | None:
        if self._sketch is None and self.frame is not None:
            from repro.controlplane.transport import decode_report

            return decode_report(self.frame).sketch
        return self._sketch

    def _set_sketch(self, sketch: Sketch | None) -> None:
        self._sketch = sketch

    def __getstate__(self) -> dict:
        return {
            "host_id": self.host_id,
            "sketch": self.sketch,
            "fastpath": self.fastpath,
            "switch": self.switch,
        }

    def __setstate__(self, state: dict) -> None:
        self.host_id = state["host_id"]
        self._sketch = state["sketch"]
        self.fastpath = state["fastpath"]
        self.switch = state["switch"]
        self.frame = None

    def hand_off(self, frame: bytes) -> None:
        """Keep ``frame`` (this report, encoded) and let go of the
        sketch, which the host may now reset and reuse."""
        self.frame = frame
        self._sketch = None

    def retire(self) -> None:
        """Drop the sketch (or its frame) once its epoch has been
        merged and answered; the switch statistics and fast-path
        snapshot stay."""
        self._sketch = self.frame = None


LocalReport.sketch = property(LocalReport._get_sketch, LocalReport._set_sketch)


class Host:
    """A monitored host: software switch + measurement module.

    Parameters
    ----------
    host_id:
        Identifier used in control-plane reports.
    sketch:
        Normal-path solution.  All hosts in a deployment must build
        their sketches from the same seed so the controller can merge
        them counter-wise.
    fastpath_bytes:
        Fast-path memory (paper default 8 KB); ``None`` disables the
        fast path (NoFastPath arm).
    use_misra_gries:
        Use the Misra-Gries baseline in the fast path (MGFastPath arm).
    ideal:
        Run the accuracy yardstick (all packets through the normal path).
    batch:
        Accepted and ignored (there is one data-plane engine).
    """

    def __init__(
        self,
        host_id: int,
        sketch: Sketch,
        fastpath_bytes: int | None = 8192,
        use_misra_gries: bool = False,
        ideal: bool = False,
        cost_model: CostModel | None = None,
        buffer_packets: int = 1024,
        batch: bool = False,
    ):
        self.host_id = host_id
        self.sketch = sketch
        if ideal or fastpath_bytes is None:
            self.fastpath = None
        elif use_misra_gries:
            self.fastpath = MisraGriesTopK(fastpath_bytes)
        else:
            self.fastpath = FastPath(fastpath_bytes)
        self.switch = SoftwareSwitch(
            sketch=sketch,
            fastpath=self.fastpath,
            cost_model=cost_model,
            buffer_packets=buffer_packets,
            ideal=ideal,
        )

    def run_epoch(
        self, trace: Trace, offered_gbps: float | None = None
    ) -> LocalReport:
        """Process one epoch and emit the control-plane report."""
        return LocalReport.build(
            self.host_id,
            self.sketch,
            self.fastpath,
            self.switch.process(trace, offered_gbps),
        )

    def reset(self) -> None:
        """Clear sketch and fast path for the next epoch (§6)."""
        self.sketch.reset()
        if self.fastpath is not None:
            self.fastpath.reset()


class MultiCoreHost:
    """A host that parallelizes measurement across CPU cores (§7.2).

    The paper: "We can further boost the throughput by parallelizing
    the normal path and fast path with multiple CPU cores and merging
    their results later in the control plane.  Our results show that
    two CPU cores are sufficient to achieve above 40 Gbps for all
    sketches."  Each core runs an independent switch (same sketch seed)
    over a flow-consistent share of the host's traffic; the per-core
    results merge exactly like per-host results do.

    Parameters
    ----------
    num_cores:
        Worker cores; traffic splits flow-consistently across them.
    """

    def __init__(
        self,
        host_id: int,
        sketch_factory,
        num_cores: int = 2,
        fastpath_bytes: int | None = 8192,
        cost_model: CostModel | None = None,
        buffer_packets: int = 1024,
    ):
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        self.host_id = host_id
        self.num_cores = num_cores
        self.cores = [
            Host(
                host_id=host_id * 1000 + core,
                sketch=sketch_factory(),
                fastpath_bytes=fastpath_bytes,
                cost_model=cost_model,
                buffer_packets=buffer_packets,
            )
            for core in range(num_cores)
        ]

    def run_epoch(
        self, trace: Trace, offered_gbps: float | None = None
    ) -> LocalReport:
        """Process one epoch across all cores and merge the results."""
        from repro.controlplane.merge import (
            merge_fastpath_snapshots,
            merge_sketches,
        )
        from repro.dataplane.switch import SwitchReport

        shards = trace.partition(self.num_cores)
        per_core_rate = (
            None if offered_gbps is None else offered_gbps / self.num_cores
        )
        reports = [
            core.run_epoch(shard, per_core_rate)
            for core, shard in zip(self.cores, shards)
        ]
        merged_sketch = merge_sketches([r.sketch for r in reports])
        merged_snapshot = merge_fastpath_snapshots(
            [r.fastpath for r in reports]
        )
        combined = SwitchReport()
        for report in reports:
            switch = report.switch
            combined.total_packets += switch.total_packets
            combined.total_bytes += switch.total_bytes
            combined.normal_packets += switch.normal_packets
            combined.normal_bytes += switch.normal_bytes
            combined.fastpath_packets += switch.fastpath_packets
            combined.fastpath_bytes += switch.fastpath_bytes
            combined.normal_flows |= switch.normal_flows
            combined.fastpath_flows |= switch.fastpath_flows
            combined.producer_cycles = max(
                combined.producer_cycles, switch.producer_cycles
            )
            combined.consumer_cycles = max(
                combined.consumer_cycles, switch.consumer_cycles
            )
        # Cores run concurrently: the epoch finishes when the slowest
        # core does, so aggregate throughput is total bytes over the
        # longest makespan.
        combined.makespan_cycles = max(
            r.switch.makespan_cycles for r in reports
        )
        cost_model = self.cores[0].switch.cost_model
        combined.throughput_gbps = cost_model.gbps(
            combined.total_bytes, combined.makespan_cycles
        )
        return LocalReport(
            host_id=self.host_id,
            sketch=merged_sketch,
            fastpath=merged_snapshot,
            switch=combined,
        )

    def reset(self) -> None:
        for core in self.cores:
            core.reset()
