"""ReportCollector: timeout, retry/backoff, dedup, stale rejection."""

from __future__ import annotations

import pytest

from repro.controlplane.transport import (
    ReportCollector,
    encode_report,
    jittered_backoff,
)
from repro.dataplane.host import Host
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.sketches.countmin import CountMinSketch
from repro.traffic.generator import TraceConfig, generate_trace

NUM_HOSTS = 4


def backoff(policy, epoch, host, attempt):
    """The sleep before retry ``attempt`` under ``policy``'s schedule."""
    return jittered_backoff(
        policy.backoff_base,
        policy.backoff_factor,
        policy.backoff_jitter,
        policy.jitter_seed,
        epoch,
        host,
        attempt,
    )


@pytest.fixture(scope="module")
def reports():
    trace = generate_trace(TraceConfig(num_flows=300, seed=13))
    shards = trace.partition(NUM_HOSTS)
    built = []
    for host_id, shard in enumerate(shards):
        host = Host(
            host_id,
            CountMinSketch(width=512, depth=2, seed=3),
            fastpath_bytes=4096,
        )
        built.append(host.run_epoch(shard))
    return built


def frames_for(reports, epoch):
    return {
        report.host_id: encode_report(report, epoch)
        for report in reports
    }


def collector_with(specs, **kwargs):
    injector = FaultInjector(FaultPlan(seed=1, specs=specs))
    return ReportCollector(injector=injector, **kwargs), injector


class TestCleanPath:
    def test_no_injector_collects_everything(self, reports):
        collector = ReportCollector()
        result = collector.collect(frames_for(reports, 0), epoch=0)
        assert result.complete
        assert [r.host_id for r in result.reports] == list(
            range(NUM_HOSTS)
        )
        assert result.stats.faults_seen == 0
        assert result.stats.retries == 0

    def test_inactive_plan_is_clean(self, reports):
        collector, _ = collector_with([])
        result = collector.collect(frames_for(reports, 0), epoch=0)
        assert result.complete
        assert result.stats.faults_seen == 0


class TestRetriableFaults:
    @pytest.mark.parametrize(
        "kind, stat",
        [
            (FaultKind.DROP, "drops"),
            (FaultKind.DELAY, "timeouts"),
            (FaultKind.TRUNCATE, "corrupt_frames"),
            (FaultKind.BITFLIP, "corrupt_frames"),
        ],
    )
    def test_single_fault_recovers_with_one_retry(
        self, reports, kind, stat
    ):
        collector, _ = collector_with(
            [FaultSpec(kind, epoch=0, host=2)]
        )
        result = collector.collect(frames_for(reports, 0), epoch=0)
        assert result.complete
        assert result.stats.retries == 1
        assert getattr(result.stats, stat) == 1
        assert result.stats.backoff_seconds > 0

    def test_retry_budget_exhausted_marks_missing(self, reports):
        # Four drops in a row beat max_retries=2 (3 attempts total).
        collector, _ = collector_with(
            [FaultSpec(FaultKind.DROP, epoch=0, host=1)] * 4,
            max_retries=2,
        )
        result = collector.collect(frames_for(reports, 0), epoch=0)
        assert result.missing_hosts == [1]
        assert len(result.reports) == NUM_HOSTS - 1
        assert result.stats.drops == 3  # one per attempt

    def test_backoff_grows_exponentially(self, reports):
        collector, _ = collector_with(
            [FaultSpec(FaultKind.DROP, epoch=0, host=0)] * 2,
            backoff_base=0.1,
            backoff_factor=2.0,
            backoff_jitter=0.0,
        )
        result = collector.collect(frames_for(reports, 0), epoch=0)
        # Two retries: 0.1 + 0.2 (jitter disabled for exactness).
        assert result.stats.backoff_seconds == pytest.approx(0.3)

    def test_backoff_jitter_is_deterministic(self):
        a = ReportCollector(backoff_jitter=0.2, jitter_seed=9)
        b = ReportCollector(backoff_jitter=0.2, jitter_seed=9)
        draws_a = [
            backoff(a, epoch, host, attempt)
            for epoch in range(3)
            for host in range(5)
            for attempt in (1, 2, 3)
        ]
        draws_b = [
            backoff(b, epoch, host, attempt)
            for epoch in range(3)
            for host in range(5)
            for attempt in (1, 2, 3)
        ]
        assert draws_a == draws_b

    def test_backoff_jitter_decorrelates_hosts(self):
        # Same epoch, same attempt, different hosts: the whole point
        # is that simultaneous failures do NOT retry in lockstep.
        collector = ReportCollector(backoff_jitter=0.2, jitter_seed=0)
        sleeps = {
            backoff(collector, 0, host, 1) for host in range(16)
        }
        assert len(sleeps) > 1
        base = collector.backoff_base
        for sleep in sleeps:
            assert base * 0.8 <= sleep <= base * 1.2

    def test_backoff_jitter_bounded_by_fraction(self):
        collector = ReportCollector(
            backoff_base=1.0,
            backoff_factor=2.0,
            backoff_jitter=0.5,
            jitter_seed=3,
        )
        for attempt in (1, 2, 3):
            nominal = 2.0 ** (attempt - 1)
            for host in range(8):
                sleep = backoff(collector, 1, host, attempt)
                assert nominal * 0.5 <= sleep <= nominal * 1.5

    def test_invalid_jitter_rejected(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            ReportCollector(backoff_jitter=1.0)
        with pytest.raises(ConfigError):
            ReportCollector(backoff_jitter=-0.1)


class TestBackoffCap:
    """The exponent saturates: sleeps stop growing past the cap."""

    def test_exponent_saturates(self):
        from repro.controlplane.transport import _MAX_BACKOFF_EXPONENT

        base, factor = 0.01, 2.0
        # Below (and at) the cap the schedule is the plain exponential.
        for attempt in range(1, _MAX_BACKOFF_EXPONENT + 2):
            assert jittered_backoff(
                base, factor, 0.0, 0, 0, 0, attempt
            ) == pytest.approx(base * factor ** (attempt - 1))
        # Past the cap every attempt sleeps the same finite amount —
        # a long-haul retry loop no longer overflows toward inf.
        ceiling = jittered_backoff(
            base, factor, 0.0, 0, 0, 0, _MAX_BACKOFF_EXPONENT + 1
        )
        assert ceiling == base * factor**_MAX_BACKOFF_EXPONENT
        for attempt in (_MAX_BACKOFF_EXPONENT + 2, 100, 100_000):
            assert (
                jittered_backoff(base, factor, 0.0, 0, 0, 0, attempt)
                == ceiling
            )

    def test_collector_and_cluster_schedules_bit_identical(self):
        """The in-process collector and the real-socket HostChannel
        must draw the *same* jittered sleep for the same
        (epoch, host, attempt) — including deep in the capped region —
        so chaos runs stay reproducible across transports.  Both run
        one :class:`Delivery`; a ``ReportCollector`` and a
        ``ClusterConfig`` with equal knobs must be equal policies."""
        from repro.cluster import ClusterConfig, HostChannel
        from repro.controlplane.transport import (
            _MAX_BACKOFF_EXPONENT,
            CollectionStats,
        )

        params = dict(
            backoff_base=0.05,
            backoff_factor=2.0,
            backoff_jitter=0.2,
            jitter_seed=7,
        )
        collector = ReportCollector(**params)
        cfg = ClusterConfig(**params)
        attempts = [1, 2, 3, 5, 9] + [
            _MAX_BACKOFF_EXPONENT,
            _MAX_BACKOFF_EXPONENT + 1,
            _MAX_BACKOFF_EXPONENT + 10,
            1_000,
        ]
        for epoch in range(2):
            for host in range(4):
                channel = HostChannel(
                    host,
                    epoch,
                    frame_factory=lambda: b"",
                    address=("127.0.0.1", 0),
                    config=cfg,
                    stats=CollectionStats(),
                )
                for attempt in attempts:
                    assert backoff(
                        collector, epoch, host, attempt
                    ) == channel.delivery.backoff(attempt)


class TestCrash:
    def test_crashed_host_is_missing(self, reports):
        collector, injector = collector_with(
            [FaultSpec(FaultKind.CRASH, epoch=0, host=3)]
        )
        result = collector.collect(frames_for(reports, 0), epoch=0)
        assert result.missing_hosts == [3]
        assert result.stats.crashes == 1
        assert injector.injected["crash"] == 1

    def test_crash_only_hits_its_epoch(self, reports):
        collector, _ = collector_with(
            [FaultSpec(FaultKind.CRASH, epoch=0, host=3)]
        )
        assert collector.collect(
            frames_for(reports, 0), epoch=0
        ).missing_hosts == [3]
        assert collector.collect(
            frames_for(reports, 1), epoch=1
        ).complete


class TestDuplicateAndReplay:
    def test_duplicate_delivery_deduped(self, reports):
        collector, _ = collector_with(
            [FaultSpec(FaultKind.DUPLICATE, epoch=0, host=1)]
        )
        result = collector.collect(frames_for(reports, 0), epoch=0)
        assert result.complete
        assert len(result.reports) == NUM_HOSTS
        assert result.stats.duplicates == 1

    def test_replay_without_fuel_degrades_to_drop(self, reports):
        collector, _ = collector_with(
            [FaultSpec(FaultKind.REPLAY, epoch=0, host=0)]
        )
        result = collector.collect(frames_for(reports, 0), epoch=0)
        assert result.complete  # retry delivered the real frame
        assert result.stats.drops == 1

    def test_stale_epoch_replay_rejected(self, reports):
        collector, _ = collector_with(
            [FaultSpec(FaultKind.REPLAY, epoch=1, host=0)]
        )
        # Epoch 0 delivers cleanly and primes the replay cache.
        assert collector.collect(
            frames_for(reports, 0), epoch=0
        ).complete
        result = collector.collect(frames_for(reports, 1), epoch=1)
        assert result.complete  # stale frame rejected, retry clean
        assert result.stats.stale_frames == 1
        assert result.stats.retries == 1


class TestDeterminism:
    def test_identical_runs_identical_outcomes(self, reports):
        plan = FaultPlan(
            seed=21,
            rates={
                FaultKind.DROP: 0.3,
                FaultKind.BITFLIP: 0.2,
                FaultKind.CRASH: 0.1,
            },
        )

        def run():
            collector = ReportCollector(
                injector=FaultInjector(plan)
            )
            outcomes = []
            for epoch in range(8):
                result = collector.collect(
                    frames_for(reports, epoch), epoch
                )
                outcomes.append(
                    (
                        tuple(result.missing_hosts),
                        result.stats.retries,
                        result.stats.faults_seen,
                    )
                )
            return outcomes

        assert run() == run()
