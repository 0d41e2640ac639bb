"""Figure 7: heavy hitter / heavy changer accuracy across recovery arms.

Paper shape (per solution): NR recall collapses (UnivMon HH 8.15%) with
~100% relative error; LR under-reports; UR over-reports (low
precision); SketchVisor tracks Ideal on recall, precision, and error.
"""

from __future__ import annotations

import pytest

from repro.controlplane.lens import LensConfig
from repro.controlplane.recovery import RecoveryMode
from repro.framework.modes import DataPlaneMode
from repro.framework.pipeline import PipelineConfig, SketchVisorPipeline
from repro.tasks.heavy_changer import HeavyChangerTask
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.traffic.anomalies import inject_heavy_changes

SOLUTIONS = ["flowradar", "revsketch", "univmon", "deltoid"]

ARMS: list[tuple[str, DataPlaneMode, RecoveryMode]] = [
    ("NR", DataPlaneMode.SKETCHVISOR, RecoveryMode.NO_RECOVERY),
    ("LR", DataPlaneMode.SKETCHVISOR, RecoveryMode.LOWER),
    ("UR", DataPlaneMode.SKETCHVISOR, RecoveryMode.UPPER),
    ("SketchVisor", DataPlaneMode.SKETCHVISOR, RecoveryMode.SKETCHVISOR),
    ("Ideal", DataPlaneMode.IDEAL, RecoveryMode.NO_RECOVERY),
]

_FAST_LENS = LensConfig(max_iterations=15)


def _config():
    return PipelineConfig(lens=_FAST_LENS)


@pytest.fixture(scope="module")
def hh_scores(bench_trace, bench_truth):
    threshold = 0.005 * bench_truth.total_bytes
    scores = {}
    for solution in SOLUTIONS:
        task = HeavyHitterTask(solution, threshold=threshold)
        for arm, dataplane, recovery in ARMS:
            pipeline = SketchVisorPipeline(
                task,
                dataplane=dataplane,
                recovery=recovery,
                config=_config(),
            )
            result = pipeline.run_epoch(bench_trace, bench_truth)
            scores[(solution, arm)] = result.score
    return scores


def test_fig07_hh_table(result_table, hh_scores):
    table = result_table(
        "fig07_heavy_hitter",
        "Figure 7(a-c): heavy hitter accuracy per recovery arm",
    )
    table.row(
        f"{'solution':<10} {'arm':<12} {'recall':>8} "
        f"{'precision':>10} {'rel.err':>9}"
    )
    for (solution, arm), score in hh_scores.items():
        table.row(
            f"{solution:<10} {arm:<12} {score.recall:>7.1%} "
            f"{score.precision:>9.1%} {score.relative_error:>8.1%}"
        )


@pytest.mark.parametrize("solution", SOLUTIONS)
def test_fig07_hh_shape(hh_scores, solution):
    nr = hh_scores[(solution, "NR")]
    sketchvisor = hh_scores[(solution, "SketchVisor")]
    ideal = hh_scores[(solution, "Ideal")]
    # NR loses most heavy hitters; SketchVisor tracks Ideal.
    assert nr.recall < 0.6
    assert sketchvisor.recall >= 0.9
    assert sketchvisor.recall >= ideal.recall - 0.1
    assert sketchvisor.relative_error <= nr.relative_error
    assert sketchvisor.relative_error < 0.15


def test_fig07_hh_timing(benchmark, bench_trace, bench_truth):
    threshold = 0.005 * bench_truth.total_bytes
    task = HeavyHitterTask("flowradar", threshold=threshold)

    def run():
        pipeline = SketchVisorPipeline(task, config=_config())
        return pipeline.run_epoch(bench_trace, bench_truth)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.score.recall > 0.9


@pytest.fixture(scope="module")
def hc_scores(bench_trace):
    epoch_a, epoch_b, _changers = inject_heavy_changes(
        bench_trace, bench_trace, num_changers=6, change_bytes=400_000
    )
    from repro.traffic.groundtruth import GroundTruth

    truth_a = GroundTruth.from_trace(epoch_a)
    truth_b = GroundTruth.from_trace(epoch_b)
    threshold = 150_000
    scores = {}
    for solution in SOLUTIONS:
        task = HeavyChangerTask(solution, threshold=threshold)
        for arm, dataplane, recovery in ARMS:
            pipeline = SketchVisorPipeline(
                task,
                dataplane=dataplane,
                recovery=recovery,
                config=_config(),
            )
            pipeline.run_epoch(epoch_a, truth_a)
            result = pipeline.run_epoch(epoch_b, truth_b)
            scores[(solution, arm)] = result.score
    return scores


def test_fig07_hc_table(result_table, hc_scores):
    table = result_table(
        "fig07_heavy_changer",
        "Figure 7(d-f): heavy changer accuracy per recovery arm",
    )
    table.row(
        f"{'solution':<10} {'arm':<12} {'recall':>8} "
        f"{'precision':>10} {'rel.err':>9}"
    )
    for (solution, arm), score in hc_scores.items():
        table.row(
            f"{solution:<10} {arm:<12} {score.recall:>7.1%} "
            f"{score.precision:>9.1%} {score.relative_error:>8.1%}"
        )


@pytest.mark.parametrize("solution", SOLUTIONS)
def test_fig07_hc_shape(hc_scores, solution):
    sketchvisor = hc_scores[(solution, "SketchVisor")]
    nr = hc_scores[(solution, "NR")]
    assert sketchvisor.recall >= 0.8
    assert sketchvisor.recall >= nr.recall
