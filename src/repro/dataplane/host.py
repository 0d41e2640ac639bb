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
from repro.fastpath.topk import FastPath, FastPathSnapshot, TopKTable
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
    #: The frame's checked sketch, its sparse fold buffers still in
    #: the frame, until a merge takes it (:meth:`fold_sketch`).
    _unlanded: Sketch | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def build(
        cls,
        host_id: int,
        sketch: Sketch,
        fastpath: TopKTable | None,
        switch: SwitchReport,
    ) -> "LocalReport":
        """The report of a finished epoch: only a :class:`FastPath`
        reports a snapshot (Misra-Gries, Space-Saving and no fast path
        send none)."""
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
        self.frame = self._unlanded = None

    @property
    def host_ids(self) -> tuple[int, ...]:
        """The one host behind this report, as a merge records it
        (:class:`~repro.controlplane.merge.MergeFold`)."""
        return (self.host_id,)

    def hand_off(
        self, frame: bytes, unlanded: Sketch | None = None
    ) -> None:
        """Keep ``frame`` (this report, encoded) and let go of the
        sketch, which the host may now reset and reuse.  ``unlanded``
        is the frame's sketch as a receiver's check decoded it for a
        merge (``decode_report(frame, fold=True)``), kept so the merge
        does not decode the frame again."""
        self.frame = frame
        self._sketch = None
        self._unlanded = unlanded

    def fold_sketch(self) -> Sketch | None:
        """The sketch a merge folds.  A frame-backed report's has its
        sparse fold buffers left in the frame, for the merge to land
        at their indices: the one its receiver's check decoded, handed
        over once, else the frame decoded for the fold.  :attr:`sketch`
        always decodes whole, so no other reader sees an unlanded
        buffer."""
        if self.frame is None:
            return self.sketch
        sketch, self._unlanded = self._unlanded, None
        if sketch is None:
            from repro.controlplane.transport import decode_report

            sketch = decode_report(self.frame, fold=True).sketch
        return sketch

    def retire(self) -> None:
        """Drop the sketch (or its frame) once its epoch has been
        merged and answered; the switch statistics and fast-path
        snapshot stay."""
        self._sketch = self.frame = self._unlanded = None


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
