"""Hosts hand their reports off as frames.

Where an epoch's reports leave as frames (the socket tier, or the
in-process collector under a fault plan), each host encodes its report
the moment its shard finishes and keeps only that frame, and the
serial hosts of an epoch take turns on one warm sketch.  These tests
pin what that saves, and that the frames and merges are the ones
per-host sketches would have produced.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.cluster import Aggregator, ClusterCollector, ClusterConfig
from repro.controlplane.merge import merge_sketches
from repro.controlplane.recovery import RecoveryMode
from repro.controlplane.transport import decode_report, encode_report
from repro.dataplane.host import Host, LocalReport
from repro.faults import FaultInjector, failover_plan, socket_plan
from repro.framework.modes import DataPlaneMode
from repro.framework.pipeline import PipelineConfig, SketchVisorPipeline
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.traffic.generator import TraceConfig, generate_trace
from repro.traffic.groundtruth import GroundTruth

HOSTS = 32

#: Socket timeouts short enough for a test, as in test_cluster.
FAST = dict(
    connect_timeout=1.0,
    ack_timeout=1.0,
    idle_timeout=0.15,
    epoch_deadline=20.0,
    backoff_base=0.002,
)


class RecordingTask(HeavyHitterTask):
    """A heavy-hitter task that keeps a weak reference to every sketch
    it builds for a host."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.built: list[weakref.ref] = []

    def create_sketch(self, seed: int = 1):
        sketch = super().create_sketch(seed=seed)
        self.built.append(weakref.ref(sketch))
        return sketch


@pytest.fixture(scope="module")
def epoch_input():
    trace = generate_trace(TraceConfig(num_flows=1500, seed=2017))
    return trace, GroundTruth.from_trace(trace)


@pytest.fixture(autouse=True)
def unsupervised(monkeypatch):
    """Supervised hosts each keep a sketch of their own for
    checkpointing; these tests pin the unsupervised data plane."""
    monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)


def _pipeline(truth, task_cls=HeavyHitterTask, **config):
    """A cp_fanin-shaped pipeline with recovery off: LENS's working set
    and time are not what these tests are about."""
    task = task_cls("deltoid", threshold=0.005 * truth.total_bytes)
    return SketchVisorPipeline(
        task,
        DataPlaneMode.SKETCHVISOR,
        RecoveryMode.NO_RECOVERY,
        config=PipelineConfig(num_hosts=HOSTS, **config),
    )


def test_one_warm_sketch_serves_every_host(epoch_input, monkeypatch):
    trace, truth = epoch_input
    pipeline = _pipeline(
        truth, RecordingTask, cluster=ClusterConfig(**FAST)
    )
    # Every read-back of a handed-off report's sketch from its frame.
    read_backs = []
    sketch = LocalReport.sketch

    def reading(report):
        if report.frame is not None:
            read_backs.append(report.host_id)
        return sketch.fget(report)

    monkeypatch.setattr(
        LocalReport, "sketch", property(reading, sketch.fset)
    )
    for _ in range(2):
        result = pipeline.run_epoch(trace, truth)
        # Nothing on the epoch's path reads a handed-off sketch back.
        assert not read_backs
        gc.collect()
        alive = [ref() for ref in pipeline.task.built]
        alive = [sketch for sketch in alive if sketch is not None]
        # 32 hosts, two epochs, one sketch: no per-host dense sketch
        # outlives its host's turn.
        assert len(alive) == 1
        assert all(
            report.frame is not None and report._sketch is None
            for report in result.reports
        )
    result.retire()
    assert all(report.frame is None for report in result.reports)


def test_cluster_epoch_peak_is_the_aggregator_tier(epoch_input, monkeypatch):
    """Traced peak of a whole cluster epoch: the aggregators' partials,
    the merged sketch and its recovered copy, plus the frames — the
    hosts' and, in flight, the receivers' copies.  Not one sketch per
    host."""
    trace, truth = epoch_input
    # The instrumentation's own allocations are not what is bounded.
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    pipeline = _pipeline(truth, cluster=ClusterConfig(**FAST))
    pipeline.run_epoch(trace, truth)
    gc.collect()
    tracemalloc.start()
    try:
        result = pipeline.run_epoch(trace, truth)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sketch_bytes = pipeline.task.create_sketch(seed=1).memory_bytes()
    frame_bytes = sum(len(report.frame) for report in result.reports)
    aggregators = pipeline._cluster.last_aggregators
    assert aggregators < HOSTS // 4
    bound = (aggregators + 2) * sketch_bytes + 2 * frame_bytes
    assert peak <= bound, (peak, bound)


def test_finished_epoch_holds_no_partial(epoch_input, monkeypatch):
    """Once the controller has folded the aggregators' partials the
    epoch lets them go: a finished epoch, not yet retired, reaches no
    partial sketch."""
    trace, truth = epoch_input
    handed = []
    finish = Aggregator.finish

    def recording(self):
        partial = finish(self)
        if partial is not None:
            handed.append(weakref.ref(partial.sketch))
        return partial

    monkeypatch.setattr(Aggregator, "finish", recording)
    pipeline = _pipeline(truth, cluster=ClusterConfig(**FAST))
    gc.collect()
    gc.disable()
    try:
        result = pipeline.run_epoch(trace, truth)
        assert len(handed) > 1
        assert result.collection.reports == []
        assert [ref() for ref in handed] == [None] * len(handed)
    finally:
        gc.enable()


def _reports_the_old_way(pipeline, trace, epoch):
    """Each host on a fresh sketch of its own, its report encoded after
    the fact: frames as they were before hosts handed off."""
    cfg = pipeline.config
    frames = {}
    for host_id, shard in enumerate(trace.partition(cfg.num_hosts)):
        host = Host(
            host_id=host_id,
            sketch=pipeline.task.create_sketch(seed=cfg.seed),
            fastpath_bytes=cfg.fastpath_bytes,
            cost_model=cfg.cost_model,
            buffer_packets=cfg.buffer_packets,
        )
        report = host.run_epoch(shard, cfg.offered_gbps)
        frames[host_id] = encode_report(report, epoch)
    return frames


@pytest.mark.parametrize(
    "plan",
    # Seeds whose first epoch strikes: 11 hosts hit by socket faults;
    # two of the six aggregators crash or hang.
    [socket_plan(seed=9), failover_plan(seed=5)],
)
def test_streamed_frames_and_merges_match_per_host_sketches(
    epoch_input, plan
):
    trace, truth = epoch_input
    pipeline = _pipeline(
        truth, faults=plan, cluster=ClusterConfig(**FAST)
    )
    result = pipeline.run_epoch(trace, truth)
    expected = _reports_the_old_way(pipeline, trace, epoch=0)
    assert result.reports
    for report in result.reports:
        assert report.frame == expected[report.host_id]
    assert result.collection.stats.faults_seen
    # The aggregators' partials merge to exactly what decoding the
    # delivered hosts' frames and merging them gives.  The epoch lets
    # its partials go once merged, so its handed-off reports cross the
    # tier again, under the same plan.
    collection = ClusterCollector(
        ClusterConfig(**FAST), injector=FaultInjector(plan)
    ).collect(result.reports, 0)
    assert collection.stats.faults_seen
    delivered = sorted(
        host for partial in collection.reports for host in partial.host_ids
    )
    assert len(delivered) == collection.hosts_reported
    partials = merge_sketches([p.sketch for p in collection.reports])
    direct = merge_sketches(
        [decode_report(expected[host]).sketch for host in delivered]
    )
    assert np.array_equal(
        partials.to_matrix().view(np.uint64),
        direct.to_matrix().view(np.uint64),
    )
