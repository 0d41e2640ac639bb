"""Seeded LENS epochs, run to completion with their SVD fall-backs.

``np.linalg.svd`` (gesdd) raises ``SVD did not converge`` on a few
ordinary, finite LENS inputs; which ones depends on the BLAS build and
its thread count, so this file is run as a process with
``OPENBLAS_NUM_THREADS=1`` — what ``benchmarks/e2e/run.py`` pins.
Trace seed 321 (``--fanin``) and the seed-11 monitor defeated gesdd
when every sweep factored the whole matrix; the range finder's small
projection of them converges, and they stay as regressions in
``tests/test_lens_robustness.py``.  CI's "LENS seed sweep" runs a
range::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/lens_seeds.py \\
        --fanin 300:364 --monitor 11

Every epoch must complete; one JSON line per run says what the solver
did, SVD fallbacks included.
"""

from __future__ import annotations

import argparse
import json

from repro.cluster import ClusterConfig
from repro.framework.monitor import ContinuousMonitor
from repro.framework.pipeline import PipelineConfig, SketchVisorPipeline
from repro.tasks.heavy_changer import HeavyChangerTask
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.telemetry import Telemetry
from repro.traffic.generator import TraceConfig, generate_trace
from repro.traffic.trace import Trace

WINDOW_PACKETS = 4096
SHARE = 0.005


def _fallbacks(telemetry: Telemetry) -> dict[str, float]:
    return {
        rung: telemetry.registry.value(
            "sketchvisor_lens_svd_fallbacks_total", rung=rung
        )
        or 0.0
        for rung in ("gesvd", "full", "midpoint")
    }


def fanin_epoch(seed: int) -> dict:
    """One ``cp_fanin``-shaped epoch: 32 hosts, Deltoid, 3 000 flows,
    reports over the loopback socket tier."""
    trace = generate_trace(TraceConfig(num_flows=3_000, seed=seed))
    telemetry = Telemetry()
    pipeline = SketchVisorPipeline(
        HeavyHitterTask("deltoid", threshold=SHARE * trace.total_bytes),
        config=PipelineConfig(
            num_hosts=32, cluster=ClusterConfig(), telemetry=telemetry
        ),
    )
    network = pipeline.run_epoch(trace).network
    return {
        "fanin": seed,
        "lens_iterations": network.lens_iterations,
        "lens_converged": network.lens_converged,
        **_fallbacks(telemetry),
    }


def monitor_windows(seed: int, windows: int = 12) -> dict:
    """A Deltoid heavy-changer monitor over 4096-packet windows."""
    trace = generate_trace(TraceConfig(num_flows=10_000, seed=seed))
    share = WINDOW_PACKETS / len(trace)
    telemetry = Telemetry()
    monitor = ContinuousMonitor(
        [
            HeavyChangerTask(
                "deltoid", threshold=SHARE * trace.total_bytes * share
            )
        ],
        config=PipelineConfig(num_hosts=2, telemetry=telemetry),
    )
    packets = trace.packets
    for index in range(windows):
        low = index * WINDOW_PACKETS
        monitor.process_epoch(Trace(packets[low : low + WINDOW_PACKETS]))
    return {
        "monitor": seed,
        "windows": len(monitor.history),
        **_fallbacks(telemetry),
    }


def _seed_range(text: str) -> range:
    low, _, high = text.partition(":")
    return range(int(low), int(high or int(low) + 1))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fanin", type=_seed_range, default=range(0))
    parser.add_argument("--monitor", type=_seed_range, default=range(0))
    args = parser.parse_args()
    for seed in args.fanin:
        print(json.dumps(fanin_epoch(seed)), flush=True)
    for seed in args.monitor:
        print(json.dumps(monitor_windows(seed)), flush=True)
