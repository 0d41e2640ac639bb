"""SHA-256 digests of what the pipelines compute, for comparing commits.

A change that claims bit-identity to its parent runs this file on both
checkouts and compares the printed lines::

    PYTHONPATH=src python tests/identity_digest.py

It uses only public entry points and reads state through names every
commit since the columnar engine has (``FlowRadar.flow_xor`` is a list
on older commits and a derived view on newer ones), so the same file
runs unchanged on either side.  Three sections, each its own digest:

* ``monitor`` — a :class:`ContinuousMonitor` with the FlowRadar / LC /
  MRAC tasks (heavy hitter, cardinality, flow-size distribution, heavy
  changer, entropy) over 4096-packet windows, telemetry on, 2 hosts;
* ``dp_overload`` / ``dp_underload`` — one 4-host FlowRadar
  heavy-hitter epoch each, as fast as possible and at 1 Gbps offered;
* ``cp_fanin`` — 32-host Deltoid epochs over the loopback socket tier.

Per result: the answer with its dict order, the score, the LENS
iteration count and convergence flag, ``flow_estimates`` with order,
the recovered sketch (``to_matrix().tobytes()``, and for FlowRadar the
XOR / count / byte fields and Bloom bits), and every host's
``SwitchReport`` and reported sketch.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro.cluster import ClusterConfig
from repro.common.flow import FlowKey
from repro.framework.modes import DataPlaneMode
from repro.framework.monitor import ContinuousMonitor
from repro.framework.pipeline import PipelineConfig, SketchVisorPipeline
from repro.sketches.base import Sketch
from repro.sketches.flowradar import FlowRadar
from repro.tasks.cardinality import CardinalityTask
from repro.tasks.distribution import FlowSizeDistributionTask
from repro.tasks.entropy import EntropyTask
from repro.tasks.heavy_changer import HeavyChangerTask
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.telemetry import Telemetry
from repro.traffic.generator import TraceConfig, generate_trace
from repro.traffic.groundtruth import GroundTruth
from repro.traffic.trace import Trace

WINDOW_PACKETS = 4096
HH_SHARE = 0.005


def feed(digest, obj) -> None:
    """Fold ``obj`` into ``digest`` canonically: floats by their bits,
    arrays by dtype, shape and bytes, dicts and sequences in order,
    sets sorted."""
    if isinstance(obj, Sketch):
        feed(digest, sketch_state(obj))
    elif isinstance(obj, FlowKey):
        digest.update(b"F%d;" % obj.key104)
    elif isinstance(obj, (bool, int, str, type(None))):
        digest.update(repr(obj).encode() + b";")
    elif isinstance(obj, (float, np.floating)):
        digest.update(float(obj).hex().encode() + b";")
    elif isinstance(obj, np.integer):
        feed(digest, int(obj))
    elif isinstance(obj, np.ndarray):
        digest.update(f"{obj.dtype}{obj.shape}".encode())
        digest.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        digest.update(b"{")
        for key, value in obj.items():
            feed(digest, key)
            feed(digest, value)
        digest.update(b"}")
    elif isinstance(obj, (list, tuple)):
        digest.update(b"[")
        for item in obj:
            feed(digest, item)
        digest.update(b"]")
    elif isinstance(obj, (set, frozenset)):
        parts = []
        for item in obj:
            part = hashlib.sha256()
            feed(part, item)
            parts.append(part.digest())
        digest.update(b"<" + b"".join(sorted(parts)) + b">")
    elif dataclasses.is_dataclass(obj):
        feed(
            digest,
            {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)},
        )
    else:
        raise TypeError(f"no canonical form for {type(obj).__name__}")


def sketch_state(sketch: Sketch) -> dict:
    state = {"matrix": sketch.to_matrix()}
    if isinstance(sketch, FlowRadar):
        state.update(
            flow_xor=list(sketch.flow_xor),
            flow_count=sketch.flow_count,
            byte_count=sketch.byte_count,
            bloom=sketch.bloom.bits,
        )
    return state


def feed_result(digest, result) -> None:
    network = result.network
    feed(
        digest,
        [
            result.answer,
            result.score,
            network.lens_iterations,
            network.lens_converged,
            network.flow_estimates,
            network.tracked_bytes,
            network.small_flow_bytes,
            network.sketch,
            [
                [report.host_id, report.switch, report.sketch]
                for report in result.reports
            ],
        ],
    )


def monitor_digest(windows: int = 12, seed: int = 7) -> str:
    trace = generate_trace(TraceConfig(num_flows=10_000, seed=seed))
    share = WINDOW_PACKETS / len(trace)
    threshold = HH_SHARE * trace.total_bytes * share
    monitor = ContinuousMonitor(
        [
            HeavyHitterTask("flowradar", threshold=threshold),
            CardinalityTask("lc"),
            FlowSizeDistributionTask("mrac"),
            HeavyChangerTask("flowradar", threshold=threshold),
            EntropyTask("flowradar"),
        ],
        config=PipelineConfig(num_hosts=2, telemetry=Telemetry()),
    )
    digest = hashlib.sha256()
    packets = trace.packets
    for index in range(windows):
        low = index * WINDOW_PACKETS
        summary = monitor.process_epoch(
            Trace(packets[low : low + WINDOW_PACKETS])
        )
        for name, result in summary.results.items():
            feed(digest, name)
            feed_result(digest, result)
    return digest.hexdigest()


def epoch_digest(
    solution: str,
    hosts: int,
    flows: int,
    seed: int,
    offered_gbps: float | None = None,
    cluster: bool = False,
) -> str:
    trace = generate_trace(TraceConfig(num_flows=flows, seed=seed))
    truth = GroundTruth.from_trace(trace)
    pipeline = SketchVisorPipeline(
        HeavyHitterTask(solution, threshold=HH_SHARE * truth.total_bytes),
        DataPlaneMode.SKETCHVISOR,
        config=PipelineConfig(
            num_hosts=hosts,
            offered_gbps=offered_gbps,
            cluster=ClusterConfig() if cluster else None,
        ),
    )
    digest = hashlib.sha256()
    feed_result(digest, pipeline.run_epoch(trace, truth))
    return digest.hexdigest()


def digests(windows: int = 12, cluster_epochs: int = 3) -> dict[str, str]:
    out = {
        "monitor": monitor_digest(windows),
        "dp_overload": epoch_digest("flowradar", 4, 10_000, 7),
        "dp_underload": epoch_digest(
            "flowradar", 4, 10_000, 7, offered_gbps=1.0
        ),
    }
    for k in range(cluster_epochs):
        out[f"cp_fanin[{k}]"] = epoch_digest(
            "deltoid", 32, 3_000, 2017 + k, cluster=True
        )
    return out


if __name__ == "__main__":
    for section, value in digests().items():
        print(f"{section:14s} {value}")
