"""Table 1: the task x solution support matrix, exercised end to end.

Every (measurement task, sketch-based solution) pair from Table 1 runs
through the full SketchVisor pipeline on the same epoch; the benchmark
records the support matrix plus a per-pair headline accuracy number.
"""

from __future__ import annotations

import pytest

from repro.framework.pipeline import SketchVisorPipeline
from repro.framework.registry import TASK_REGISTRY, create_task
from repro.traffic.anomalies import (
    inject_ddos_victims,
    inject_heavy_changes,
    inject_superspreaders,
)
from repro.traffic.groundtruth import GroundTruth


def _headline(score):
    if score.recall is not None:
        return f"recall {score.recall:.0%}"
    if score.mrd is not None:
        return f"MRD {score.mrd:.4f}"
    return f"rel.err {score.relative_error:.1%}"


@pytest.fixture(scope="module")
def matrix_results(bench_trace, bench_truth):
    threshold_bytes = 0.005 * bench_truth.total_bytes
    results = {}
    for task_name, (_cls, solutions) in TASK_REGISTRY.items():
        for solution in solutions:
            kwargs = {}
            if task_name in ("heavy_hitter", "heavy_changer"):
                kwargs["threshold"] = threshold_bytes
            if task_name in ("ddos", "superspreader"):
                kwargs["threshold"] = 120
                kwargs["sketch_params"] = {"inner_width": 256}
            task = create_task(task_name, solution, **kwargs)
            pipeline = SketchVisorPipeline(task)
            if task_name == "heavy_changer":
                epoch_a, epoch_b, _ = inject_heavy_changes(
                    bench_trace, bench_trace, 5, 400_000
                )
                task.threshold = 150_000
                pipeline.run_epoch(epoch_a)
                result = pipeline.run_epoch(epoch_b)
            elif task_name == "ddos":
                trace, _ = inject_ddos_victims(bench_trace, 2, 300)
                result = pipeline.run_epoch(
                    trace, GroundTruth.from_trace(trace)
                )
            elif task_name == "superspreader":
                trace, _ = inject_superspreaders(bench_trace, 2, 300)
                result = pipeline.run_epoch(
                    trace, GroundTruth.from_trace(trace)
                )
            else:
                result = pipeline.run_epoch(bench_trace, bench_truth)
            results[(task_name, solution)] = result.score
    return results


def test_table1_matrix(result_table, matrix_results):
    table = result_table(
        "table1_matrix",
        "Table 1: measurement tasks x sketch-based solutions "
        "(full pipeline, SketchVisor arm)",
    )
    table.row(f"{'task':<24} {'solution':<12} {'headline':<20}")
    for (task_name, solution), score in matrix_results.items():
        table.row(
            f"{task_name:<24} {solution:<12} {_headline(score):<20}"
        )
    assert len(matrix_results) == 17  # 4+4+1+1+3+2+2 Table 1 pairs


def test_table1_every_pair_functional(matrix_results):
    """Every supported pair produces a sane score, none crash."""
    for (task_name, _solution), score in matrix_results.items():
        if score.recall is not None:
            assert 0.0 <= score.recall <= 1.0
        if score.mrd is not None:
            assert score.mrd >= 0.0


def test_table1_detection_pairs_accurate(matrix_results):
    for (task_name, solution), score in matrix_results.items():
        if task_name in ("heavy_hitter", "ddos", "superspreader"):
            assert score.recall >= 0.8, (task_name, solution)


def test_table1_timing(benchmark, bench_trace, bench_truth):
    task = create_task(
        "heavy_hitter",
        "univmon",
        threshold=0.005 * bench_truth.total_bytes,
    )

    def run():
        return SketchVisorPipeline(task).run_epoch(
            bench_trace, bench_truth
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.score.recall > 0.8
