"""The four batch workloads: set-up and the closed-loop measured phase.

One driver thread calls ``SketchVisorPipeline.run_epoch`` back to back
(``workers=1``); nothing else runs in the process.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from repro.cluster import ClusterConfig
from repro.framework.modes import DataPlaneMode
from repro.framework.pipeline import PipelineConfig, SketchVisorPipeline
from repro.tasks.distribution import FlowSizeDistributionTask
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.traffic.generator import TraceConfig, generate_trace
from repro.traffic.groundtruth import GroundTruth
from repro.traffic.trace import Trace

from harness import Budget, Gate, SetupTimings, Speedometer

logger = logging.getLogger(__name__)

#: Heavy hitters are flows above this share of the epoch's bytes.
HH_SHARE = 0.005


@dataclass(frozen=True)
class BatchSpec:
    flows: int
    hosts: int
    #: ``None`` picks the flow-size-distribution task on MRAC.
    hh_solution: str | None
    offered_gbps: float | None = None
    durable: bool = False
    cluster: bool = False


SPECS = {
    "dp_overload": BatchSpec(10_000, 4, "flowradar"),
    "dp_underload": BatchSpec(10_000, 4, "flowradar", offered_gbps=1.0),
    "dp_durable": BatchSpec(10_000, 4, None, durable=True),
    "cp_fanin": BatchSpec(3_000, 32, "deltoid", cluster=True),
}


@dataclass
class EpochInput:
    """One generated epoch and its exact answer."""

    trace: Trace
    truth: GroundTruth

    def fresh(self) -> Trace:
        """The same packets as a new ``Trace``.  Its columnar views are
        cold, as they are for every epoch a monitor receives, so the
        measured epoch pays for building them."""
        return Trace(self.trace.packets)


@dataclass
class Setup:
    pipeline: SketchVisorPipeline | None = None
    inputs: list[EpochInput] = field(default_factory=list)
    timings: SetupTimings = field(default_factory=SetupTimings)


def generate_input(flows: int, seed: int):
    """``(EpochInput, generation seconds, ground-truth seconds)``."""
    start = time.perf_counter()
    trace = generate_trace(TraceConfig(num_flows=flows, seed=seed))
    generated = time.perf_counter()
    truth = GroundTruth.from_trace(trace)
    return (
        EpochInput(trace, truth),
        generated - start,
        time.perf_counter() - generated,
    )


def make_task(spec: BatchSpec, truth: GroundTruth):
    if spec.hh_solution is None:
        return FlowSizeDistributionTask("mrac")
    return HeavyHitterTask(
        spec.hh_solution, threshold=HH_SHARE * truth.total_bytes
    )


def make_pipeline(
    spec: BatchSpec, task, checkpoint_dir: Path | None, telemetry=None
) -> SketchVisorPipeline:
    return SketchVisorPipeline(
        task,
        DataPlaneMode.SKETCHVISOR,
        config=PipelineConfig(
            num_hosts=spec.hosts,
            batch=True,
            offered_gbps=spec.offered_gbps,
            cluster=ClusterConfig() if spec.cluster else None,
            checkpoint_dir=(
                None if checkpoint_dir is None else str(checkpoint_dir)
            ),
            telemetry=telemetry,
        ),
    )


def set_up(
    spec: BatchSpec, seed: int, repeats: int, scale: float, workdir: Path
) -> Setup:
    """Set the workload up ``repeats`` times, trace seed ``seed + k``.

    Each repeat generates a trace, computes its ground truth, builds the
    pipeline and runs one discarded warm-up epoch.  The traces become
    the inputs the measured phase cycles through; the last pipeline is
    the one it drives.
    """
    setup = Setup()
    meter = Speedometer()
    for k in range(repeats):
        start = time.perf_counter()
        epoch_input, generate_s, groundtruth_s = generate_input(
            int(spec.flows * scale), seed + k
        )
        setup.pipeline = make_pipeline(
            spec,
            make_task(spec, epoch_input.truth),
            workdir / f"checkpoints-{k}" if spec.durable else None,
        )
        setup.pipeline.run_epoch(epoch_input.fresh(), epoch_input.truth)
        total = time.perf_counter() - start
        setup.timings.add(total, meter.factor(), generate_s, groundtruth_s)
        setup.inputs.append(epoch_input)
    return setup


def timed_epoch(pipeline, epoch_input: EpochInput):
    """``(result or None, wall seconds, cpu seconds)`` of one epoch."""
    trace = epoch_input.fresh()
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        result = pipeline.run_epoch(trace, epoch_input.truth)
    except Exception:
        # The harness must outlive a failed epoch to count it.
        logger.exception("run_epoch failed")
        result = None
    return (
        result,
        time.perf_counter() - start,
        time.process_time() - cpu,
    )


def measure(setup: Setup, gate: Gate, budget: Budget) -> dict:
    """The untraced pass: end-to-end numbers of one workload, each
    epoch's times taken to reference speed (see ``Speedometer``)."""
    walls, cpus, raw_walls, packets = [], [], [], []
    per_input: dict[int, dict] = {}
    meter = Speedometer()
    done = 0
    while budget.more(done):
        index = done % len(setup.inputs)
        epoch_input = setup.inputs[index]
        result, wall, cpu = timed_epoch(setup.pipeline, epoch_input)
        factor = meter.factor()
        done += 1
        if result is None:
            gate.operation(False, f"{gate.workload}[{index}]: exception")
            continue
        counts = gate.epoch(result, index)
        per_input.setdefault(index, counts)
        walls.append(wall / factor)
        cpus.append(cpu / factor)
        raw_walls.append(wall)
        packets.append(len(epoch_input.trace))
    return {
        "samples": len(walls),
        "epoch_s": walls,
        "raw_epoch_s": raw_walls,
        "speed_factor": median(meter.factors),
        "counts": [per_input[i] for i in sorted(per_input)],
        "metrics": {
            "pkts_per_s": median(
                n / wall for n, wall in zip(packets, walls)
            ),
            "epoch_s_p50": median(walls),
            "cpu_s_per_mpkt": sum(cpus) / (sum(packets) / 1e6),
        },
    }
