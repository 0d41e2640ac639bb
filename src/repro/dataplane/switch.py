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

from repro.common.errors import ConfigError
from repro.dataplane.buffer import BoundedFIFO
from repro.dataplane.cost_model import CostModel
from repro.dataplane.engine import HostEngine, SwitchReport
from repro.fastpath.misra_gries import MisraGriesTopK
from repro.fastpath.topk import TopKTable
from repro.sketches.base import Sketch

__all__ = ["SoftwareSwitch", "SwitchReport"]


class SoftwareSwitch:
    """One host's measurement module.

    Parameters
    ----------
    sketch:
        The normal-path sketch-based solution (operator's choice, §3.1).
    fastpath:
        A :class:`~repro.fastpath.topk.TopKTable` (FastPath,
        Misra-Gries or Space-Saving), or None for NoFastPath
        (blocking) behaviour.
    cost_model:
        Cycle accounting (in-memory or testbed profile).
    buffer_packets:
        FIFO capacity in packets.
    ideal:
        When True, bypass all capacity limits (accuracy yardstick).
    """

    def __init__(
        self,
        sketch: Sketch,
        fastpath: TopKTable | None = None,
        cost_model: CostModel | None = None,
        buffer_packets: int = 1024,
        ideal: bool = False,
    ):
        if ideal and fastpath is not None:
            raise ConfigError("ideal mode does not use a fast path")
        self.sketch = sketch
        self.fastpath = fastpath
        self.cost_model = cost_model or CostModel.in_memory()
        self.buffer = BoundedFIFO(buffer_packets)
        self.ideal = ideal
        #: Optional :class:`~repro.telemetry.profiling.Profiler`; the
        #: pipeline attaches one to each host it runs so the engine
        #: attributes its epoch wall time to named stages.  Metrics are
        #: not published here: the pipeline publishes them centrally
        #: from the reports.
        self.profiler = None

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
            f"sketch={self.sketch.describe()}",
            f"buffer={self.buffer.capacity}p",
        ]
        if self.fastpath is not None:
            parts.append(
                f"fastpath={type(self.fastpath).__name__}"
                f"(k={self.fastpath.capacity})"
            )
        return f"SoftwareSwitch({', '.join(parts)})"

    def __repr__(self) -> str:
        return self.describe()

    # ------------------------------------------------------------------
    def engine(self) -> HostEngine:
        """A fresh engine over this switch's sketch, fast path and FIFO.

        :meth:`process` runs one to the end of the trace; the durability
        supervisor drives one in ``stop_at`` steps under checkpointing.
        """
        return HostEngine(
            sketch=self.sketch,
            fastpath=self.fastpath,
            cost_model=self.cost_model,
            ideal=self.ideal,
            fifo=self.buffer,
            profiler=self.profiler,
        )

    def process(self, trace, offered_gbps: float | None = None) -> SwitchReport:
        """Run one epoch of traffic through the measurement module.

        ``offered_gbps`` scales the trace's timestamps to the given
        arrival rate; ``None`` replays back-to-back ("each host sends
        out traffic as fast as possible", §7.1), which measures the
        switch's maximum sustainable throughput.
        """
        return self.engine().run(trace, offered_gbps).finish()
