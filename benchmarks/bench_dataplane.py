#!/usr/bin/env python
"""Data-plane throughput harness: reference loop vs engine vs parallel.

Times packets/sec of the simulated data plane and appends the results
to a JSON trajectory file so future PRs can track speedups (and catch
regressions) over time:

* ``scalar``  — the per-packet reference loop, which is no longer a
  mode of the switch: ``tests/reference_engine.py``, the oracle the
  engine is tested against;
* ``batch``   — the engine (``SoftwareSwitch.process``: chunked routing
  pass + one vectorized ``update_trace`` per chunk);
* ``parallel``— the engine with per-host epochs fanned out to a process
  pool via :class:`~repro.framework.pipeline.SketchVisorPipeline`.

The arm names are the trajectory file's keys and stay as they were.

Usage::

    PYTHONPATH=src python benchmarks/bench_dataplane.py            # full run
    PYTHONPATH=src python benchmarks/bench_dataplane.py --smoke    # CI quick pass

The scalar-vs-batch comparison runs the ideal-mode CountMin arm the
acceptance gate tracks, plus a SketchVisor (fast-path) arm, where the
routing pass stays per-packet.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for entry in (REPO_ROOT / "src", REPO_ROOT):  # repro, and tests.*
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from repro.dataplane.cost_model import CostModel  # noqa: E402
from repro.dataplane.switch import SoftwareSwitch  # noqa: E402
from repro.fastpath.topk import FastPath  # noqa: E402
from repro.framework.modes import DataPlaneMode  # noqa: E402
from repro.framework.pipeline import (  # noqa: E402
    PipelineConfig,
    SketchVisorPipeline,
)
from repro.sketches.countmin import CountMinSketch  # noqa: E402
from repro.sketches.countsketch import CountSketch  # noqa: E402
from repro.sketches.mrac import MRAC  # noqa: E402
from repro.tasks.heavy_hitter import HeavyHitterTask  # noqa: E402
from repro.traffic.generator import TraceConfig, generate_trace  # noqa: E402
from repro.traffic.groundtruth import GroundTruth  # noqa: E402
from tests.reference_engine import reference_run  # noqa: E402

SKETCHES = {
    "countmin": lambda seed: CountMinSketch(seed=seed),
    "countsketch": lambda seed: CountSketch(seed=seed),
    "mrac": lambda seed: MRAC(seed=seed),
}


def _best_of(run, repeats: int) -> float:
    """Best-of-N wall time of ``run()`` (one epoch)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def bench_switch_modes(trace, sketch_name: str, seed: int, repeats: int):
    """Reference loop ("scalar") vs engine ("batch") packets/sec, ideal
    and SketchVisor arms."""
    make_sketch = SKETCHES[sketch_name]
    cost_model = CostModel.in_memory()

    def run(mode: str, ideal: bool):
        fastpath = None if ideal else FastPath(8192)
        config = dict(
            cost_model=cost_model, buffer_packets=1024, ideal=ideal
        )
        if mode == "scalar":
            reference_run(trace, make_sketch(seed), fastpath, **config)
        else:
            SoftwareSwitch(
                make_sketch(seed), fastpath=fastpath, **config
            ).process(trace)

    results = {}
    for arm, ideal in (("ideal", True), ("sketchvisor", False)):
        timings = {}
        for mode in ("scalar", "batch"):
            elapsed = _best_of(lambda: run(mode, ideal), repeats)
            timings[mode] = {
                "seconds": elapsed,
                "packets_per_sec": len(trace) / elapsed,
            }
        timings["speedup"] = (
            timings["scalar"]["seconds"] / timings["batch"]["seconds"]
        )
        results[arm] = timings
    return results


def bench_parallel(trace, seed: int, num_hosts: int, workers: int):
    """Serial vs process-pool multi-host epochs."""
    truth = GroundTruth.from_trace(trace)
    timings = {}
    for label, pool_workers in (("serial", 1), ("parallel", workers)):
        pipeline = SketchVisorPipeline(
            HeavyHitterTask("univmon", threshold=0.001),
            dataplane=DataPlaneMode.SKETCHVISOR,
            config=PipelineConfig(
                num_hosts=num_hosts,
                seed=seed,
                workers=pool_workers,
            ),
        )
        start = time.perf_counter()
        pipeline.run_epoch(trace, truth)
        elapsed = time.perf_counter() - start
        timings[label] = {
            "seconds": elapsed,
            "packets_per_sec": len(trace) / elapsed,
        }
    timings["speedup"] = (
        timings["serial"]["seconds"] / timings["parallel"]["seconds"]
    )
    timings["num_hosts"] = num_hosts
    timings["workers"] = workers
    return timings


def bench_accuracy_overhead(trace, seed: int, num_hosts: int):
    """End-to-end epoch time with and without accuracy telemetry.

    Runs the full pipeline (dataplane + merge + recovery + query) twice:
    once bare, once with telemetry + error-bound publication + a shadow
    ground-truth sample + SLO evaluation.  The acceptance gate requires
    the instrumented run to stay within 5% of the bare run.
    """
    from repro.telemetry import Telemetry
    from repro.telemetry.accuracy import SLOPolicy

    truth = GroundTruth.from_trace(trace)
    policy = SLOPolicy.from_dict({
        "rules": [
            {"name": "are-ceiling",
             "metric": "sketchvisor_accuracy_empirical_flow_are",
             "op": "<=", "threshold": 10.0},
            {"name": "recall-floor",
             "metric": "sketchvisor_accuracy_empirical_hh_recall",
             "op": ">=", "threshold": 0.0},
        ]
    })
    timings = {}
    for label in ("bare", "instrumented"):
        telemetry = Telemetry() if label == "instrumented" else None
        pipeline = SketchVisorPipeline(
            HeavyHitterTask("univmon", threshold=0.001),
            dataplane=DataPlaneMode.SKETCHVISOR,
            config=PipelineConfig(
                num_hosts=num_hosts,
                seed=seed,
                workers=1,
                telemetry=telemetry,
                slo=policy if telemetry else None,
                shadow_samples=128 if telemetry else 0,
            ),
        )
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            pipeline.run_epoch(trace, truth)
            best = min(best, time.perf_counter() - start)
        timings[label] = {
            "seconds": best,
            "packets_per_sec": len(trace) / best,
        }
    timings["overhead_pct"] = 100.0 * (
        timings["instrumented"]["seconds"] / timings["bare"]["seconds"] - 1.0
    )
    return timings


def git_sha() -> str:
    """Short commit SHA of the repo being benchmarked.

    Always returns a string — ``"unknown"`` when git is unavailable —
    so every trajectory entry is provenance-stamped and the loaders
    (``check_regression.py``, ``repro perf``) can warn on unstamped
    entries instead of crashing on missing keys.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
        return sha or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def bench_profiling(trace, seed: int, num_hosts: int):
    """End-to-end epoch time with and without cycle-level profiling.

    Runs the full pipeline (SketchVisor data plane + merge +
    recovery + query) twice — bare, then with the full profiler on
    (stage timers, 97 Hz stack sampler, hash instrumentation, RSS
    tracking).  The acceptance gate requires the profiled run to stay
    within 10% of the unprofiled run; the profiled run's per-stage
    wall breakdown and epoch attribution ride along in the trajectory
    entry so ``repro perf`` can chart stage deltas across commits.
    """
    from repro.telemetry import ProfileConfig, Telemetry
    from repro.telemetry.profiling import epoch_attribution

    truth = GroundTruth.from_trace(trace)
    timings = {}
    stages = None
    attribution = None
    for label in ("unprofiled", "profiled"):
        best = float("inf")
        for _ in range(3):
            telemetry = (
                Telemetry(profile=ProfileConfig())
                if label == "profiled"
                else None
            )
            pipeline = SketchVisorPipeline(
                HeavyHitterTask("univmon", threshold=0.001),
                dataplane=DataPlaneMode.SKETCHVISOR,
                config=PipelineConfig(
                    num_hosts=num_hosts,
                    seed=seed,
                    workers=1,
                    telemetry=telemetry,
                ),
            )
            start = time.perf_counter()
            pipeline.run_epoch(trace, truth)
            elapsed = time.perf_counter() - start
            if elapsed < best:
                best = elapsed
                if telemetry is not None:
                    stages = telemetry.profiler.stage_table()
                    attribution = epoch_attribution(
                        telemetry.tracer
                    )
        timings[label] = {
            "seconds": best,
            "packets_per_sec": len(trace) / best,
        }
    timings["overhead_pct"] = 100.0 * (
        timings["profiled"]["seconds"]
        / timings["unprofiled"]["seconds"]
        - 1.0
    )
    timings["stages"] = stages
    timings["attribution"] = attribution
    return timings


def instrumented_snapshot(trace, sketch_name: str, seed: int) -> dict:
    """Metric snapshot of one (untimed) instrumented epoch.

    Rides along in the trajectory entry so counter totals — packets
    per path, cycles, fast-path kick-outs — stay comparable across
    runs even as the engines evolve.
    """
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    switch = SoftwareSwitch(
        SKETCHES[sketch_name](seed),
        fastpath=FastPath(8192),
        cost_model=CostModel.in_memory(),
        buffer_packets=1024,
        telemetry=telemetry,
    )
    switch.process(trace)
    return telemetry.json_snapshot()


def append_trajectory(path: Path, entry: dict) -> None:
    """Append one run to the JSON trajectory file (list under "runs")."""
    trajectory = {"runs": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict) and isinstance(
                loaded.get("runs"), list
            ):
                trajectory = loaded
        except json.JSONDecodeError:
            pass
    trajectory["runs"].append(entry)
    path.write_text(json.dumps(trajectory, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--flows", type=int, default=10_500,
        help="distinct flows in the Zipf trace (~10 packets/flow)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--sketch", choices=sorted(SKETCHES), default="countmin"
    )
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--hosts", type=int, default=4)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--skip-parallel", action="store_true",
        help="skip the process-pool arm (e.g. constrained CI runners)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny trace, one repeat — a CI liveness check, not a bench",
    )
    parser.add_argument(
        "--output", type=Path,
        default=REPO_ROOT / "BENCH_dataplane.json",
        help="JSON trajectory file to append results to",
    )
    args = parser.parse_args(argv)

    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.flows < 1:
        parser.error("--flows must be >= 1")

    if args.smoke:
        args.flows = min(args.flows, 600)
        args.repeats = 1
        args.hosts = 2
        args.workers = 2

    trace = generate_trace(
        TraceConfig(num_flows=args.flows, seed=args.seed)
    )
    print(
        f"trace: {len(trace)} packets, {args.flows} flows "
        f"(Zipf), sketch={args.sketch}"
    )

    switch_results = bench_switch_modes(
        trace, args.sketch, args.seed, args.repeats
    )
    for arm, timings in switch_results.items():
        print(
            f"  {arm:12s} scalar {timings['scalar']['packets_per_sec']:>12,.0f} pps"
            f" | batch {timings['batch']['packets_per_sec']:>12,.0f} pps"
            f" | speedup {timings['speedup']:.1f}x"
        )

    parallel_results = None
    cpus = os.cpu_count() or 1
    if args.skip_parallel:
        pass
    elif cpus < 2:
        # A process pool cannot beat serial on one core; timing it
        # anyway would report pool overhead as a (bogus) slowdown.
        parallel_results = {"skipped": f"single-CPU host (cpus={cpus})"}
        print("  multi-host   skipped: only 1 CPU available")
    else:
        workers = min(args.workers, cpus)
        parallel_results = bench_parallel(
            trace, args.seed, args.hosts, workers
        )
        print(
            f"  {'multi-host':12s} serial {parallel_results['serial']['packets_per_sec']:>12,.0f} pps"
            f" | {workers} workers {parallel_results['parallel']['packets_per_sec']:>12,.0f} pps"
            f" | speedup {parallel_results['speedup']:.1f}x"
        )

    accuracy_results = bench_accuracy_overhead(
        trace, args.seed, args.hosts
    )
    print(
        f"  {'accuracy':12s} bare {accuracy_results['bare']['packets_per_sec']:>12,.0f} pps"
        f" | instrumented {accuracy_results['instrumented']['packets_per_sec']:>12,.0f} pps"
        f" | overhead {accuracy_results['overhead_pct']:+.1f}%"
    )

    profiling_results = bench_profiling(trace, args.seed, args.hosts)
    attribution = profiling_results.get("attribution")
    print(
        f"  {'profiling':12s} off {profiling_results['unprofiled']['packets_per_sec']:>12,.0f} pps"
        f" | on {profiling_results['profiled']['packets_per_sec']:>12,.0f} pps"
        f" | overhead {profiling_results['overhead_pct']:+.1f}%"
        + (
            f" | attribution {attribution:.0%}"
            if attribution else ""
        )
    )

    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "smoke": args.smoke,
        "config": {
            "packets": len(trace),
            "flows": args.flows,
            "sketch": args.sketch,
            "seed": args.seed,
            "repeats": args.repeats,
        },
        "switch": switch_results,
        "parallel": parallel_results,
        "accuracy_overhead": accuracy_results,
        "profiling": profiling_results,
        "telemetry": instrumented_snapshot(
            trace, args.sketch, args.seed
        ),
    }
    append_trajectory(args.output, entry)
    print(f"appended trajectory entry to {args.output}")

    if not args.smoke and switch_results["ideal"]["speedup"] < 5.0:
        print("FAIL: batch ideal speedup below the 5x acceptance floor")
        return 1
    if not args.smoke and accuracy_results["overhead_pct"] > 5.0:
        print("FAIL: accuracy telemetry overhead above the 5% ceiling")
        return 1
    if not args.smoke and profiling_results["overhead_pct"] > 10.0:
        print("FAIL: profiling overhead above the 10% ceiling")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
