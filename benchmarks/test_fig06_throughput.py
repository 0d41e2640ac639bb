"""Figure 6: throughput of NoFastPath / MGFastPath / SketchVisor.

The paper's in-memory tester: NoFastPath and MGFastPath cannot reach
10 Gbps for most sketches, SketchVisor exceeds 17 Gbps for all nine
solutions (and ~40 Gbps for MRAC).  The shape to reproduce: SketchVisor
>= MGFastPath >= NoFastPath everywhere, with large gains exactly for
the computationally heavy sketches and almost none for MRAC.
"""

from __future__ import annotations

import pytest

from repro.dataplane.cost_model import CostModel
from repro.dataplane.switch import SoftwareSwitch
from repro.fastpath.misra_gries import MisraGriesTopK
from repro.fastpath.topk import FastPath
from repro.sketches.cardinality import FMSketch, KMinSketch, LinearCounting
from repro.sketches.deltoid import Deltoid
from repro.sketches.flowradar import FlowRadar
from repro.sketches.mrac import MRAC
from repro.sketches.revsketch import ReversibleSketch
from repro.sketches.twolevel import TwoLevelSketch
from repro.sketches.univmon import UnivMon

SOLUTIONS = {
    "deltoid": lambda: Deltoid(width=1024, depth=4),
    "univmon": lambda: UnivMon(
        level_widths=(2048, 1024, 512, 256), heap_size=200
    ),
    "twolevel": lambda: TwoLevelSketch(),
    "revsketch": lambda: ReversibleSketch(depth=6),
    "flowradar": lambda: FlowRadar(bloom_bits=60_000, num_cells=24_000),
    "fm": lambda: FMSketch(),
    "kmin": lambda: KMinSketch(),
    "lc": lambda: LinearCounting(),
    "mrac": lambda: MRAC(),
}

ARMS = {
    "NoFastPath": lambda: None,
    "MGFastPath": lambda: MisraGriesTopK(8192),
    "SketchVisor": lambda: FastPath(8192),
}


@pytest.fixture(scope="module")
def throughput_matrix(bench_trace):
    model = CostModel.in_memory()
    results: dict[str, dict[str, float]] = {}
    for name, build in SOLUTIONS.items():
        results[name] = {}
        for arm, make_fastpath in ARMS.items():
            switch = SoftwareSwitch(
                build(), fastpath=make_fastpath(), cost_model=model
            )
            report = switch.process(bench_trace)
            results[name][arm] = report.throughput_gbps
    return results


def test_fig06_throughput_table(result_table, throughput_matrix):
    table = result_table(
        "fig06_throughput",
        "Figure 6(b): in-memory throughput (Gbps) per data-plane arm",
    )
    table.row(
        f"{'solution':<10} {'NoFastPath':>11} {'MGFastPath':>11} "
        f"{'SketchVisor':>12}"
    )
    for name, rates in throughput_matrix.items():
        table.row(
            f"{name:<10} {rates['NoFastPath']:>11.1f} "
            f"{rates['MGFastPath']:>11.1f} "
            f"{rates['SketchVisor']:>12.1f}"
        )

    for name, rates in throughput_matrix.items():
        # SketchVisor never loses to the alternatives.
        assert rates["SketchVisor"] >= rates["MGFastPath"] * 0.95
        assert rates["SketchVisor"] >= rates["NoFastPath"] * 0.95


def test_fig06_heavy_sketches_gain_most(throughput_matrix):
    """Deltoid's fast-path speedup dwarfs MRAC's (Figure 6 shape)."""
    deltoid_gain = (
        throughput_matrix["deltoid"]["SketchVisor"]
        / throughput_matrix["deltoid"]["NoFastPath"]
    )
    mrac_gain = (
        throughput_matrix["mrac"]["SketchVisor"]
        / throughput_matrix["mrac"]["NoFastPath"]
    )
    assert deltoid_gain > 3.0
    assert mrac_gain < 2.0


def test_fig06_nofastpath_collapses_below_5gbps(throughput_matrix):
    """Figure 2(b)/6: heavy sketches stall far below line rate."""
    for name in ("deltoid", "univmon", "twolevel", "revsketch"):
        assert throughput_matrix[name]["NoFastPath"] < 5.0


def test_fig06_two_core_scaling(result_table, bench_trace):
    """§7.2: parallelizing normal + fast paths across cores and merging
    in the control plane roughly doubles throughput ('two CPU cores are
    sufficient to achieve above 40 Gbps for all sketches')."""
    from repro.framework.pipeline import PipelineConfig, SketchVisorPipeline
    from repro.tasks.distribution import FlowSizeDistributionTask
    from repro.tasks.heavy_hitter import HeavyHitterTask

    threshold = 0.005 * bench_trace.total_bytes
    tasks = {
        "deltoid": HeavyHitterTask("deltoid", threshold),
        "flowradar": HeavyHitterTask("flowradar", threshold),
        "mrac": FlowSizeDistributionTask("mrac"),
    }

    def gbps(task, cores: int) -> float:
        pipeline = SketchVisorPipeline(
            task, config=PipelineConfig(cores=cores)
        )
        return pipeline.run_epoch(bench_trace).throughput_gbps

    table = result_table(
        "fig06_two_cores",
        "§7.2 extension: 1-core vs 2-core throughput (Gbps)",
    )
    table.row(f"{'solution':<10} {'1 core':>8} {'2 cores':>8}")
    for name, task in tasks.items():
        single, dual = gbps(task, 1), gbps(task, 2)
        table.row(f"{name:<10} {single:>8.1f} {dual:>8.1f}")
        assert dual > 1.5 * single


def test_fig06_switch_timing(benchmark, bench_trace):
    """Wall-clock of one full switch pass (Deltoid + fast path)."""
    model = CostModel.in_memory()

    def run():
        switch = SoftwareSwitch(
            Deltoid(width=256, depth=4),
            fastpath=FastPath(8192),
            cost_model=model,
        )
        return switch.process(bench_trace)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.total_packets == len(bench_trace)
