"""SketchVisor reproduction: robust sketch-based network measurement.

A from-scratch Python implementation of *SketchVisor: Robust Network
Measurement for Software Packet Processing* (SIGCOMM 2017), including:

* the nine sketch-based solutions of Table 1 (:mod:`repro.sketches`);
* the fast path's top-k algorithm with Lemma 4.1 bounds
  (:mod:`repro.fastpath`);
* a simulated software-switch data plane with a calibrated CPU cost
  model (:mod:`repro.dataplane`);
* network-wide recovery via compressive sensing
  (:mod:`repro.controlplane`);
* the seven measurement tasks of §2.1 (:mod:`repro.tasks`);
* synthetic heavy-tailed traffic with exact ground truth
  (:mod:`repro.traffic`);
* baselines: Trumpet hash tables and packet sampling
  (:mod:`repro.baselines`).

Quickstart::

    from repro import (
        DataPlaneMode, HeavyHitterTask, PipelineConfig, RecoveryMode,
        SketchVisorPipeline, TraceConfig, generate_trace,
    )

    trace = generate_trace(TraceConfig(num_flows=5000, seed=1))
    task = HeavyHitterTask("deltoid", threshold=50_000)
    pipeline = SketchVisorPipeline(task)
    result = pipeline.run_epoch(trace)
    print(result.score.recall, result.score.precision)
"""

from repro.common.errors import (
    ConfigError,
    CorruptFrameError,
    DecodeError,
    MergeError,
    QuorumError,
    ReproError,
    TransportError,
)
from repro.common.flow import FlowKey, Packet
from repro.controlplane.recovery import DegradedEpoch, RecoveryMode
from repro.durability import Checkpointer, StateCodec, Supervisor
from repro.faults import FaultKind, FaultPlan, FaultSpec, moderate_plan
from repro.framework.modes import DataPlaneMode
from repro.framework.pipeline import (
    EpochResult,
    PipelineConfig,
    SketchVisorPipeline,
)
from repro.framework.registry import TASK_REGISTRY, create_task
from repro.telemetry import MetricsRegistry, Telemetry, Tracer, trace_span
from repro.tasks import (
    CardinalityTask,
    DDoSTask,
    EntropyTask,
    FlowSizeDistributionTask,
    HeavyChangerTask,
    HeavyHitterTask,
    SuperspreaderTask,
)
from repro.traffic.generator import TraceConfig, generate_trace
from repro.traffic.groundtruth import GroundTruth
from repro.traffic.trace import Trace

__version__ = "1.0.0"

__all__ = [
    "CardinalityTask",
    "Checkpointer",
    "ConfigError",
    "CorruptFrameError",
    "DDoSTask",
    "DataPlaneMode",
    "DecodeError",
    "DegradedEpoch",
    "EntropyTask",
    "EpochResult",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "FlowKey",
    "FlowSizeDistributionTask",
    "GroundTruth",
    "HeavyChangerTask",
    "HeavyHitterTask",
    "MergeError",
    "MetricsRegistry",
    "Packet",
    "PipelineConfig",
    "QuorumError",
    "Telemetry",
    "Tracer",
    "TransportError",
    "trace_span",
    "RecoveryMode",
    "ReproError",
    "SketchVisorPipeline",
    "StateCodec",
    "Supervisor",
    "moderate_plan",
    "SuperspreaderTask",
    "TASK_REGISTRY",
    "Trace",
    "TraceConfig",
    "create_task",
    "generate_trace",
    "__version__",
]
