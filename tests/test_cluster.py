"""Real-socket control plane: transport, aggregators, chaos over TCP."""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import math
import threading
import weakref

import numpy as np
import pytest

from repro.cluster import (
    Aggregator,
    ClusterCollector,
    ClusterConfig,
    PartialAggregate,
    assign_aggregator,
    rendezvous_aggregator,
)
from repro.cluster.transport import AggregatorListener
from repro.common.errors import ConfigError, QuorumError
from repro.controlplane import transport
from repro.controlplane.controller import Controller
from repro.controlplane.recovery import RecoveryMode
from repro.controlplane.transport import (
    ACK,
    NAK_CORRUPT,
    CollectionResult,
    CollectionStats,
    ReportCollector,
    encode_report,
)
from repro.dataplane.host import Host
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    failover_plan,
    socket_plan,
)
from repro.framework.pipeline import PipelineConfig, SketchVisorPipeline
from repro.sketches.deltoid import Deltoid
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.telemetry import Telemetry
from repro.traffic.generator import TraceConfig, generate_trace
from repro.traffic.groundtruth import GroundTruth
from tests.identity_digest import epoch_digest

NUM_HOSTS = 8

#: Tight deadlines so injected connection faults resolve fast; the
#: margins stay far above localhost latency, keeping outcomes
#: deterministic.
FAST = dict(
    connect_timeout=1.0,
    ack_timeout=1.0,
    idle_timeout=0.15,
    epoch_deadline=20.0,
    backoff_base=0.002,
)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(TraceConfig(num_flows=300, seed=13))


@pytest.fixture(scope="module")
def reports(trace):
    built = []
    for host_id in range(NUM_HOSTS):
        host = Host(
            host_id,
            Deltoid(width=128, depth=2, seed=5),
            fastpath_bytes=4096,
        )
        built.append(host.run_epoch(trace))
    return built


class _Foreign:
    """A class from outside the unpickler's allowlist."""


def stats_dict(stats):
    """Deterministic stats fields (backpressure waits are timing-
    dependent and excluded on purpose)."""
    fields = dict(vars(stats))
    fields.pop("backpressure_waits", None)
    return fields


# ---------------------------------------------------------------------------
# Zero faults: the wire must be invisible.
# ---------------------------------------------------------------------------
class TestZeroFaultBitIdentity:
    @pytest.mark.parametrize("seed", [2017, 321])
    def test_epoch_digest_matches_in_process(self, seed):
        """The whole epoch — answer, estimates in order, recovered
        sketch, reports — is the in-process one, bit for bit, when the
        32 reports cross the socket tier.  (Trace seed 321 once failed
        only through sockets: the tiers merged in different orders.)"""
        assert epoch_digest(
            "deltoid", 32, 3_000, seed, cluster=True
        ) == epoch_digest("deltoid", 32, 3_000, seed)

    def test_hierarchical_merge_is_exact(self, reports):
        collection = ClusterCollector(
            ClusterConfig(**FAST)
        ).collect(reports, 0)
        assert collection.hosts_reported == NUM_HOSTS
        assert 1 < len(collection.reports) < NUM_HOSTS
        assert all(
            isinstance(r, PartialAggregate) for r in collection.reports
        )
        covered = sorted(
            h for r in collection.reports for h in r.host_ids
        )
        assert covered == list(range(NUM_HOSTS))

        direct = Controller(RecoveryMode.SKETCHVISOR).aggregate(
            reports, expected_hosts=NUM_HOSTS, epoch=0
        )
        hier = Controller(RecoveryMode.SKETCHVISOR).aggregate(
            collection.reports,
            expected_hosts=NUM_HOSTS,
            epoch=0,
        )
        assert np.array_equal(
            direct.sketch.to_matrix(), hier.sketch.to_matrix()
        )
        assert hier.num_hosts == NUM_HOSTS
        assert hier.degraded is None

    def test_pipeline_over_sockets_matches_in_process(self, trace):
        truth = GroundTruth.from_trace(trace)
        task = HeavyHitterTask(
            "univmon", threshold=0.002 * truth.total_bytes
        )

        def run(cluster):
            pipe = SketchVisorPipeline(
                HeavyHitterTask(
                    "univmon", threshold=0.002 * truth.total_bytes
                ),
                config=PipelineConfig(
                    num_hosts=5,
                    seed=3,
                    telemetry=Telemetry(),
                    cluster=cluster,
                ),
            )
            return pipe, pipe.run_epoch(trace, truth)

        base_pipe, base = run(None)
        hier_pipe, hier = run(ClusterConfig(**FAST))

        assert np.array_equal(
            base.network.sketch.to_matrix(),
            hier.network.sketch.to_matrix(),
        )
        assert vars(base.score) == vars(hier.score)
        assert hier.collection.hosts_reported == 5

        # Same per-host telemetry counter totals: the wire changed,
        # the measurement did not.
        def dataplane_counters(result_pipe):
            snap = result_pipe.config.telemetry.registry.snapshot()
            return {
                name: fam
                for name, fam in snap.items()
                if name.startswith(
                    ("sketchvisor_switch", "sketchvisor_fastpath")
                )
            }

        assert dataplane_counters(base_pipe) == dataplane_counters(
            hier_pipe
        )

    @pytest.mark.parametrize(
        "solution, flows, seed",
        [("flowradar", 10_000, 7), ("deltoid", 20_000, 5)],
    )
    def test_decremented_total_is_the_in_process_one(
        self, solution, flows, seed
    ):
        """``E`` sums fractional kick-out thresholds.  The socket tier
        folds 16 hosts by aggregator first, and a sequential sum over
        that grouping read one ulp off the in-process fold at both of
        these shapes; the correctly rounded sum of the hosts' summands
        reads the same."""
        trace = generate_trace(TraceConfig(num_flows=flows, seed=seed))
        truth = GroundTruth.from_trace(trace)

        def decremented(cluster):
            pipe = SketchVisorPipeline(
                HeavyHitterTask(
                    solution, threshold=0.005 * truth.total_bytes
                ),
                config=PipelineConfig(num_hosts=16, cluster=cluster),
            )
            result = pipe.run_epoch(trace, truth)
            return result.network.snapshot.total_decremented

        in_process = decremented(None)
        assert in_process > 0 and not in_process.is_integer()
        assert decremented(ClusterConfig()).hex() == in_process.hex()

    def test_clean_epoch_has_no_fault_stats(self, reports):
        collection = ClusterCollector(
            ClusterConfig(**FAST)
        ).collect(reports, 1)
        stats = collection.stats
        assert stats.faults_seen == 0
        assert stats.connection_faults == 0
        assert stats.retries == 0


# ---------------------------------------------------------------------------
# Chaos over real sockets.
# ---------------------------------------------------------------------------
class TestSocketChaos:
    def _run(self, reports, seed, epochs=4, **cfg_kwargs):
        injector = FaultInjector(socket_plan(seed=seed))
        collector = ClusterCollector(
            ClusterConfig(**FAST, **cfg_kwargs), injector=injector
        )
        outcomes = []
        for epoch in range(epochs):
            result = collector.collect(reports, epoch)
            outcomes.append(
                (
                    stats_dict(result.stats),
                    tuple(result.missing_hosts),
                    result.hosts_reported,
                )
            )
        return outcomes, dict(injector.injected)

    def test_fault_stats_are_deterministic(self, reports):
        first = self._run(reports, seed=7)
        second = self._run(reports, seed=7)
        assert first == second

    def test_faults_actually_fire(self, reports):
        outcomes, injected = self._run(reports, seed=3, epochs=6)
        assert sum(injected.values()) > 0
        total_faults = sum(
            sum(
                v
                for k, v in stats.items()
                if k not in ("retries", "backoff_seconds")
            )
            for stats, _, _ in outcomes
        )
        assert total_faults > 0

    def test_report_path_kinds_match_in_process_collector(
        self, reports
    ):
        """A plan with only report-path kinds must produce *identical*
        delivery outcomes over the wire and in process — stats,
        missing hosts, and reports alike."""
        rates = {
            FaultKind.DROP: 0.1,
            FaultKind.DELAY: 0.05,
            FaultKind.BITFLIP: 0.05,
            FaultKind.TRUNCATE: 0.05,
            FaultKind.DUPLICATE: 0.05,
            FaultKind.REPLAY: 0.05,
            FaultKind.CRASH: 0.05,
        }
        in_process = ReportCollector(
            injector=FaultInjector(FaultPlan(seed=11, rates=rates)),
            backoff_base=0.002,
        )
        over_wire = ClusterCollector(
            ClusterConfig(**FAST),
            injector=FaultInjector(FaultPlan(seed=11, rates=rates)),
        )
        for epoch in range(3):
            frames = {
                r.host_id: encode_report(r, epoch) for r in reports
            }
            a = in_process.collect(frames, epoch)
            b = over_wire.collect(reports, epoch)
            assert stats_dict(a.stats) == stats_dict(b.stats)
            assert a.missing_hosts == b.missing_hosts
            assert a.hosts_reported == b.hosts_reported
            assert [r.host_id for r in a.reports] == sorted(
                host for partial in b.reports for host in partial.host_ids
            )

    def test_every_epoch_meets_quorum_or_degrades(self, reports):
        """Under sustained socket chaos no epoch hangs or leaks an
        exception: each one either meets quorum or produces a
        DegradedEpoch whose rescale matches the loss."""
        injector = FaultInjector(socket_plan(seed=5))
        collector = ClusterCollector(
            ClusterConfig(**FAST), injector=injector
        )
        controller = Controller(RecoveryMode.SKETCHVISOR, quorum=0.25)
        for epoch in range(6):
            collection = collector.collect(reports, epoch)
            network = controller.aggregate(
                collection.reports,
                expected_hosts=NUM_HOSTS,
                missing_hosts=collection.missing_hosts,
                epoch=epoch,
            )
            reported = collection.hosts_reported
            assert (
                reported + len(collection.missing_hosts) == NUM_HOSTS
            )
            if reported < NUM_HOSTS:
                degraded = network.degraded
                assert degraded is not None
                assert degraded.reported_hosts == reported
                assert degraded.scale == pytest.approx(
                    NUM_HOSTS / reported
                )
            else:
                assert network.degraded is None

    def test_partitioned_host_quarantined_by_circuit_breaker(
        self, reports
    ):
        victim = 2
        specs = [
            FaultSpec(FaultKind.PARTITION, epoch=e, host=victim)
            for e in range(3)
        ]
        injector = FaultInjector(FaultPlan(seed=1, specs=specs))
        collector = ClusterCollector(
            ClusterConfig(**FAST),
            injector=injector,
        )
        # Epochs 0-2: partition fires, host missing, breaker charging.
        for epoch in range(3):
            result = collector.collect(reports, epoch)
            assert result.missing_hosts == [victim]
            assert result.stats.partitions == 1
            assert result.stats.quarantined_hosts == 0
        # Epochs 3-4: quarantined — no fault fires (the plan is
        # exhausted), the host is skipped outright.
        for epoch in (3, 4):
            result = collector.collect(reports, epoch)
            assert result.missing_hosts == [victim]
            assert result.stats.quarantined_hosts == 1
            assert result.stats.partitions == 0
        # Epoch 5: breaker closes, the healthy host delivers again.
        result = collector.collect(reports, 5)
        assert result.missing_hosts == []
        assert result.stats.quarantined_hosts == 0

    def test_recorder_captures_connection_faults(self, reports):
        telemetry = Telemetry()
        injector = FaultInjector(
            FaultPlan(
                seed=1,
                specs=[
                    FaultSpec(FaultKind.CONN_RESET, epoch=0, host=1),
                    FaultSpec(FaultKind.SLOW_PEER, epoch=0, host=4),
                ],
            )
        )
        collector = ClusterCollector(
            ClusterConfig(**FAST), injector=injector
        )
        collection = collector.collect(reports, 0)
        telemetry.recorder.record_epoch_events(
            0, collection=collection
        )
        faults = [
            e
            for e in telemetry.recorder.events()
            if e.kind == "transport_fault"
        ]
        assert len(faults) == 1
        assert faults[0].fields["conn_resets"] == 1
        assert faults[0].fields["slow_peers"] == 1

    def test_chaos_pipeline_end_to_end(self, trace):
        """Full pipeline over sockets with a socket chaos plan:
        degraded epochs annotate, the flight recorder sees the
        transport faults, and nothing escapes."""
        truth = GroundTruth.from_trace(trace)
        telemetry = Telemetry()
        pipe = SketchVisorPipeline(
            HeavyHitterTask(
                "univmon", threshold=0.002 * truth.total_bytes
            ),
            config=PipelineConfig(
                num_hosts=6,
                seed=3,
                telemetry=telemetry,
                faults=socket_plan(seed=12),
                cluster=ClusterConfig(**FAST),
                quorum=0.25,
            ),
        )
        for _ in range(4):
            result = pipe.run_epoch(trace, truth)
            assert result.collection is not None
            missing = len(result.collection.missing_hosts)
            if missing:
                assert result.degraded is not None
                assert (
                    result.degraded.reported_hosts == 6 - missing
                )
        # Connection-level kinds flow into the shared fault counter.
        snap = telemetry.registry.snapshot()
        fam = snap["sketchvisor_transport_faults_total"]
        kinds = {
            entry["labels"]["kind"] for entry in fam["samples"]
        }
        assert {"conn_refused", "conn_reset", "partition"} <= kinds


# ---------------------------------------------------------------------------
# Aggregator tier mechanics.
# ---------------------------------------------------------------------------
class TestAggregatorTier:
    def test_eager_merge_keeps_one_resident(self, reports):
        """The running merge is the one dense sketch an aggregator
        builds: in-memory reports bring their own, and frames fold
        from their sections."""
        aggregator = Aggregator(0)
        for report in reports:
            aggregator.add(report)
        assert aggregator.peak_resident == 1
        partial = aggregator.finish()
        assert partial.host_ids == tuple(range(NUM_HOSTS))

    @pytest.mark.parametrize("num_hosts", [16, 64])
    def test_resident_reports_flat_n_hierarchical_one(
        self, reports, num_hosts
    ):
        """Memory scaling, machine-independently: a flat collection
        (the in-process collector) holds all N reports' frames at once,
        the socket tier one dense sketch per aggregator, its merge,
        with sqrt(N) aggregators."""
        fleet = [
            dataclasses.replace(
                reports[host_id % NUM_HOSTS], host_id=host_id
            )
            for host_id in range(num_hosts)
        ]
        flat = ReportCollector().collect(
            {r.host_id: encode_report(r, 0) for r in fleet}, 0
        )
        assert flat.hosts_reported == len(flat.reports) == num_hosts
        hier = ClusterCollector(ClusterConfig(**FAST))
        assert hier.collect(fleet, 0).hosts_reported == num_hosts
        assert hier.last_peak_resident == 1
        assert hier.last_aggregators == math.ceil(math.sqrt(num_hosts))

    def test_collect_never_reprs_its_result(self, reports, monkeypatch):
        """``asyncio.run`` on the main thread installs a SIGINT handler
        that holds the main task, and taking it back out formats that
        finished task, whole result included, into a discarded error
        message (Python 3.11).  ``collect`` installs none."""
        assert threading.current_thread() is threading.main_thread()
        calls = []

        def counted(result):
            calls.append(result.epoch)
            return "CollectionResult(...)"

        monkeypatch.setattr(CollectionResult, "__repr__", counted)
        collector = ClusterCollector(ClusterConfig(**FAST))
        assert collector.collect(reports, 0).hosts_reported == NUM_HOSTS
        assert calls == []

    @pytest.mark.parametrize(
        ("width", "decodes_per_frame"), [(4096, 1), (128, 2)]
    )
    def test_decodes_each_frame_once(
        self, trace, monkeypatch, width, decodes_per_frame
    ):
        """The receiver's check decodes an accepted frame, and the fold
        takes that decode instead of parsing the frame again when it
        left every fold buffer in the frame: one payload decode per
        frame accepted over a socket-tier epoch of wide, sparse
        sketches.  A narrow sketch's buffers travel dense; the check's
        decode would hold a dense copy of them, so it is dropped and
        the fold decodes the frame again."""
        reports = [
            Host(
                host_id,
                Deltoid(width=width, depth=2, seed=5),
                fastpath_bytes=4096,
            ).run_epoch(trace)
            for host_id in range(NUM_HOSTS)
        ]
        decoded = []
        decode_payload = transport.decode_payload

        def counted(payload, *args, **kwargs):
            decoded.append(len(payload))
            return decode_payload(payload, *args, **kwargs)

        monkeypatch.setattr(transport, "decode_payload", counted)
        collector = ClusterCollector(ClusterConfig(**FAST))
        result = collector.collect(reports, 0)
        assert result.hosts_reported == NUM_HOSTS
        assert collector.last_peak_resident == 1
        assert len(decoded) == decodes_per_frame * NUM_HOSTS

    def test_a_hostile_frame_is_refused_and_the_next_acked(self, reports):
        """A frame naming a class outside the unpickler's allowlist is
        answered ``NAK_CORRUPT`` and counted; the listener lives on,
        and the same connection's next good frame of the epoch is
        ACKed and folded."""
        hostile = encode_report(
            dataclasses.replace(reports[0], switch=_Foreign()), 0
        )
        good = encode_report(reports[1], 0)
        aggregator = Aggregator(0)
        stats = CollectionStats()

        async def exchange():
            listener = AggregatorListener(
                0, 0, aggregator.add, stats, set(), set(), idle_timeout=5.0
            )
            host, port = await listener.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            verdicts = []
            for frame in (hostile, good):
                writer.write(frame)
                await writer.drain()
                verdicts.append(await reader.readexactly(1))
            writer.close()
            await writer.wait_closed()
            await listener.close(drain_timeout=1.0)
            return verdicts

        assert asyncio.run(exchange()) == [NAK_CORRUPT, ACK]
        assert stats.corrupt_frames == 1
        assert aggregator.host_ids == [reports[1].host_id]

    def test_pairwise_merge_equals_flat_merge(self, reports):
        aggregator = Aggregator(3)
        for report in reports:
            aggregator.add(report)
        partial = aggregator.finish()
        flat = reports[0].sketch.clone_empty()
        for report in reports:
            flat.merge(report.sketch)
        assert np.array_equal(
            partial.sketch.to_matrix(), flat.to_matrix()
        )

    def test_fastpath_entries_canonicalized(self, reports):
        forward = Aggregator(0)
        backward = Aggregator(0)
        for report in reports:
            forward.add(report)
        for report in reversed(reports):
            backward.add(report)
        fwd = forward.finish().fastpath
        bwd = backward.finish().fastpath
        assert [flow for flow, *_ in fwd.rows()] == [
            flow for flow, *_ in bwd.rows()
        ]
        assert fwd.rows() == bwd.rows()
        keys = [flow.key104 for flow, *_ in fwd.rows()]
        assert keys == sorted(keys)

    def test_empty_aggregator_finishes_none(self):
        assert Aggregator(0).finish() is None

    def test_partial_is_handed_over_not_shared(self, reports):
        """A partial the aggregator kept would live as long as the
        aggregator.  Dropping the collection must free the merged
        sketches by refcount."""
        collector = ClusterCollector(ClusterConfig(**FAST))
        gc.collect()
        gc.disable()
        try:
            collection = collector.collect(reports, 0)
            sketches = [
                weakref.ref(partial.sketch)
                for partial in collection.reports
            ]
            assert len(sketches) > 1
            del collection
            assert [ref() for ref in sketches] == [None] * len(sketches)
        finally:
            gc.enable()

    @pytest.mark.parametrize("struck", [False, True])
    def test_closed_listeners_leave_no_cycle(self, reports, struck):
        """A closed listener lets go of its asyncio server (whose
        handler is the listener's bound method) and of its sink, so
        an epoch's listeners and aggregators are freed by refcount,
        not left to the cycle collector — a listener a verdict closed
        (``struck``) included."""
        specs = [
            FaultSpec(
                FaultKind.AGG_CRASH, epoch=0, host=0, packet_offset=1
            )
        ]
        collector = ClusterCollector(
            ClusterConfig(aggregators=3, **FAST),
            injector=(
                FaultInjector(FaultPlan(seed=2, specs=specs))
                if struck
                else None
            ),
        )
        gc.collect()
        gc.disable()
        try:
            failovers = collector.collect(reports, 0).stats.failovers
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = {
                type(item).__name__
                for item in gc.garbage
                if isinstance(
                    item,
                    (AggregatorListener, Aggregator, asyncio.Server),
                )
            }
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert failovers == struck
        assert leaked == set()

    def test_assignment_is_total_and_stable(self):
        for num_aggregators in (1, 3, 8):
            groups = {
                assign_aggregator(h, num_aggregators)
                for h in range(64)
            }
            assert groups == set(range(num_aggregators))
        assert assign_aggregator(5, 0) == 0  # degenerate tier


# ---------------------------------------------------------------------------
# Config plumbing.
# ---------------------------------------------------------------------------
class TestClusterConfig:
    def test_auto_aggregators_scale_sublinearly(self):
        cfg = ClusterConfig()
        assert cfg.resolve_aggregators(1) == 1
        assert cfg.resolve_aggregators(64) == 8
        assert cfg.resolve_aggregators(500) == 23
        assert cfg.resolve_aggregators(1000) == 32

    def test_fixed_aggregators_capped_by_hosts(self):
        cfg = ClusterConfig(aggregators=16)
        assert cfg.resolve_aggregators(500) == 16
        assert cfg.resolve_aggregators(4) == 4

    def test_validation(self):
        with pytest.raises(ConfigError):
            ClusterConfig(backoff_jitter=1.5)
        with pytest.raises(ConfigError):
            ClusterConfig(idle_timeout=0)


# ---------------------------------------------------------------------------
# Fault plan: socket kinds are additive and isolated.
# ---------------------------------------------------------------------------
class TestSocketSchedules:
    def test_socket_kinds_do_not_perturb_report_draws(self, reports):
        base = FaultPlan(seed=4, rates={FaultKind.DROP: 0.2})
        extended = FaultPlan(
            seed=4,
            rates={
                FaultKind.DROP: 0.2,
                FaultKind.CONN_RESET: 0.3,
                FaultKind.SLOW_PEER: 0.2,
            },
        )
        for epoch in range(4):
            for host in range(8):
                assert base.schedule_for(
                    epoch, host
                ) == extended.schedule_for(epoch, host)

    def test_socket_schedule_is_deterministic(self):
        plan_a = socket_plan(seed=9)
        plan_b = socket_plan(seed=9)
        for epoch in range(4):
            for host in range(16):
                assert plan_a.socket_schedule_for(
                    epoch, host
                ) == plan_b.socket_schedule_for(epoch, host)

    def test_partition_dominates_socket_schedule(self):
        plan = FaultPlan(
            seed=0,
            specs=[
                FaultSpec(FaultKind.PARTITION, epoch=0, host=1),
                FaultSpec(FaultKind.CONN_RESET, epoch=0, host=1),
            ],
        )
        assert plan.socket_schedule_for(0, 1) == [
            FaultKind.PARTITION
        ]

    def test_report_schedule_never_contains_socket_kinds(self):
        plan = socket_plan(seed=2)
        for epoch in range(6):
            for host in range(16):
                for kind in plan.schedule_for(epoch, host):
                    assert kind in (
                        FaultKind.DROP,
                        FaultKind.BITFLIP,
                        FaultKind.DUPLICATE,
                    )


# ---------------------------------------------------------------------------
# Rendezvous placement: minimal disruption under tier shrink.
# ---------------------------------------------------------------------------
class TestRendezvousPlacement:
    def test_assignment_is_deterministic(self):
        first = [assign_aggregator(h, 5) for h in range(64)]
        second = [assign_aggregator(h, 5) for h in range(64)]
        assert first == second

    def test_all_groups_receive_hosts(self):
        for num_aggregators in (1, 3, 8):
            groups = {
                assign_aggregator(h, num_aggregators)
                for h in range(64)
            }
            assert groups == set(range(num_aggregators))

    def test_removal_only_rehomes_the_dead_shard(self):
        """The fail-over property modulo placement lacks: when one
        aggregator leaves the candidate set, every host NOT on its
        shard keeps its assignment."""
        candidates = set(range(8))
        before = {
            h: rendezvous_aggregator(h, candidates)
            for h in range(256)
        }
        for dead in range(8):
            survivors = candidates - {dead}
            for h in range(256):
                after = rendezvous_aggregator(h, survivors)
                if before[h] == dead:
                    assert after in survivors
                else:
                    assert after == before[h]

    def test_empty_candidate_set_routes_nowhere(self):
        assert rendezvous_aggregator(3, set()) is None


# ---------------------------------------------------------------------------
# Aggregator fault schedules: seeded, additive, isolated.
# ---------------------------------------------------------------------------
class TestAggregatorSchedules:
    def test_schedule_is_deterministic(self):
        def draws(plan):
            return [
                [
                    (fault.kind, fault.offset)
                    for fault in plan.aggregator_schedule_for(
                        epoch, agg, 5
                    )
                ]
                for epoch in range(10)
                for agg in range(4)
            ]

        assert draws(failover_plan(seed=9)) == draws(
            failover_plan(seed=9)
        )

    def test_aggregator_kinds_do_not_perturb_host_draws(self):
        """Adding agg_crash/agg_hang rates to a plan must leave the
        host-level report and socket schedules bit-identical — the
        aggregator stream is salted separately."""
        base = FaultPlan(
            seed=4,
            rates={
                FaultKind.DROP: 0.2,
                FaultKind.CONN_RESET: 0.1,
            },
        )
        extended = FaultPlan(
            seed=4,
            rates={
                FaultKind.DROP: 0.2,
                FaultKind.CONN_RESET: 0.1,
                FaultKind.AGG_CRASH: 0.5,
                FaultKind.AGG_HANG: 0.3,
            },
        )
        for epoch in range(6):
            for host in range(8):
                assert base.schedule_for(
                    epoch, host
                ) == extended.schedule_for(epoch, host)
                assert base.socket_schedule_for(
                    epoch, host
                ) == extended.socket_schedule_for(epoch, host)

    def test_host_schedules_never_contain_aggregator_kinds(self):
        plan = failover_plan(seed=2)
        for epoch in range(8):
            for host in range(16):
                kinds = set(plan.schedule_for(epoch, host)) | set(
                    plan.socket_schedule_for(epoch, host)
                )
                assert FaultKind.AGG_CRASH not in kinds
                assert FaultKind.AGG_HANG not in kinds

    def test_pinned_spec_offset_is_clamped(self):
        plan = FaultPlan(
            seed=0,
            specs=[
                FaultSpec(
                    FaultKind.AGG_CRASH,
                    epoch=0,
                    host=1,
                    packet_offset=99,
                )
            ],
        )
        [fault] = plan.aggregator_schedule_for(0, 1, 5)
        assert fault.kind is FaultKind.AGG_CRASH
        assert fault.offset == 5


# ---------------------------------------------------------------------------
# Aggregator fail-over over real sockets.
# ---------------------------------------------------------------------------
class TestAggregatorFailover:
    """A struck aggregator re-shards, redelivers, and merges exactly.

    Redelivery counts and detection latencies are timing-dependent, so
    assertions stick to conservation and bit-identity — never exact
    retry/redelivery tallies.
    """

    def _merge(self, collection, epoch, quorum=0.5):
        return Controller(
            RecoveryMode.SKETCHVISOR, quorum=quorum
        ).aggregate(
            collection.reports,
            expected_hosts=NUM_HOSTS,
            missing_hosts=collection.missing_hosts,
            epoch=epoch,
        )

    def _clean_matrix(self, reports, epoch):
        collection = ClusterCollector(
            ClusterConfig(**FAST)
        ).collect(reports, epoch)
        return self._merge(collection, epoch).sketch.to_matrix()

    def _strike_collect(
        self, reports, kind, epoch=0, agg=0, offset=2, **cfg_kwargs
    ):
        specs = [
            FaultSpec(kind, epoch=epoch, host=agg, packet_offset=offset)
        ]
        injector = FaultInjector(FaultPlan(seed=2, specs=specs))
        collector = ClusterCollector(
            ClusterConfig(**FAST, **cfg_kwargs), injector=injector
        )
        return collector.collect(reports, epoch)

    def test_crash_with_full_redelivery_is_bit_identical(
        self, reports
    ):
        collection = self._strike_collect(
            reports, FaultKind.AGG_CRASH
        )
        assert collection.missing_hosts == []
        assert collection.hosts_reported == NUM_HOSTS
        assert collection.stats.agg_crashes == 1
        assert collection.stats.failovers == 1
        [record] = collection.failovers
        assert record.aggregator_id == 0
        assert record.kind == "agg_crash"
        assert record.recovered
        assert record.unrecovered_hosts == ()
        assert set(record.redelivered_hosts) == set(
            record.shard_hosts
        )
        assert record.shard_hosts  # the dead shard was not empty
        assert record.detect_seconds >= 0.0
        assert record.recovery_seconds is not None
        network = self._merge(collection, 0)
        assert network.degraded is None
        assert np.array_equal(
            network.sketch.to_matrix(),
            self._clean_matrix(reports, 0),
        )

    def test_hang_recovers_bit_identically(self, reports):
        collection = self._strike_collect(
            reports, FaultKind.AGG_HANG, offset=1
        )
        assert collection.missing_hosts == []
        assert collection.hosts_reported == NUM_HOSTS
        assert collection.stats.agg_hangs == 1
        assert collection.stats.failovers == 1
        [record] = collection.failovers
        assert record.kind == "agg_hang"
        assert record.recovered
        network = self._merge(collection, 0)
        assert network.degraded is None
        assert np.array_equal(
            network.sketch.to_matrix(),
            self._clean_matrix(reports, 0),
        )

    def test_hang_sends_each_stranded_report_once(self, reports):
        """Hosts hung on the struck aggregator re-route onto a survivor
        by themselves: the verdict follows their first delivery instead
        of sending a second copy beside it."""
        collection = self._strike_collect(
            reports, FaultKind.AGG_HANG, offset=1, aggregators=3
        )
        assert collection.missing_hosts == []
        [record] = collection.failovers
        assert set(record.redelivered_hosts) == set(record.shard_hosts)
        assert collection.stats.redelivery_dups == 0
        assert collection.stats.duplicates == 0

    def test_strike_without_survivor_loses_no_host_silently(
        self, reports
    ):
        """A one-aggregator tier struck mid-epoch: the watchdog detects
        the death (and forgets the dead shard's attendance), but no
        survivor is left to redeliver to — every un-recovered host is
        booked missing for the quorum gate, none silently vanishes."""
        collection = self._strike_collect(
            reports, FaultKind.AGG_CRASH, aggregators=1
        )
        assert collection.missing_hosts  # the lost shard stays lost
        [record] = collection.failovers
        assert collection.missing_hosts == sorted(
            record.unrecovered_hosts
        )
        assert (
            collection.hosts_reported
            + len(collection.missing_hosts)
            == NUM_HOSTS
        )
        with pytest.raises(QuorumError, match="missing"):
            self._merge(collection, 0)

    def test_only_the_dead_shard_is_redelivered(self, reports):
        """A host outside the struck aggregator's group that spends
        its whole retry budget stays missing: fail-over re-homes the
        dead shard, not every host that happens to be undelivered."""
        tier = range(ClusterConfig().resolve_aggregators(NUM_HOSTS))
        outsider = next(
            host_id
            for host_id in range(NUM_HOSTS)
            if rendezvous_aggregator(host_id, tier) != 0
        )
        drops = [
            FaultSpec(FaultKind.DROP, epoch=0, host=outsider)
        ] * (ClusterConfig().max_retries + 1)
        crash = FaultSpec(
            FaultKind.AGG_CRASH, epoch=0, host=0, packet_offset=1
        )
        injector = FaultInjector(
            FaultPlan(seed=2, specs=[*drops, crash])
        )
        collection = ClusterCollector(
            ClusterConfig(**FAST), injector=injector
        ).collect(reports, 0)
        assert outsider in collection.missing_hosts
        [record] = collection.failovers
        assert outsider not in record.shard_hosts
        assert set(record.redelivered_hosts) <= set(record.shard_hosts)
        stats = collection.stats
        assert stats.redeliveries - stats.redelivery_dups <= len(
            record.shard_hosts
        )

    def test_sustained_chaos_soak_conserves_every_host(self, reports):
        """failover_plan chaos over several epochs: every host is
        accounted for every epoch (delivered or missing — never
        dropped on the floor), failover records partition their shards
        exactly, and clean-recovery epochs merge bit-identically."""
        injector = FaultInjector(failover_plan(seed=31))
        collector = ClusterCollector(
            ClusterConfig(**FAST), injector=injector
        )
        total_failovers = 0
        redeliveries = 0
        epochs = 5
        for epoch in range(epochs):
            collection = collector.collect(reports, epoch)
            redeliveries += collection.stats.redeliveries
            assert (
                collection.hosts_reported
                + len(collection.missing_hosts)
                == NUM_HOSTS
            )
            for record in collection.failovers:
                total_failovers += 1
                assert set(record.redelivered_hosts) | set(
                    record.unrecovered_hosts
                ) == set(record.shard_hosts)
                assert set(record.unrecovered_hosts) <= set(
                    collection.missing_hosts
                )
                assert (
                    record.recovery_seconds is None
                    or record.recovery_seconds <= 10.0
                )
            if not collection.missing_hosts:
                network = self._merge(collection, epoch)
                assert np.array_equal(
                    network.sketch.to_matrix(),
                    self._clean_matrix(reports, epoch),
                )
        assert total_failovers >= 1
        assert injector.injected.get("agg_crash", 0) >= 1
        assert redeliveries <= 0.5 * epochs * NUM_HOSTS
