"""The delivery machine behind both report collectors, without I/O.

:class:`Delivery` (retries, backoff, what each fault does to the
bytes, replay fuel) and :func:`accept_frame` (stale / CRC / dedup) are
driven here directly — no sockets, no event loop.  The last class pins
what both collectors deliver under seeded fault plans, value for value.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterCollector, ClusterConfig
from repro.controlplane.transport import (
    ACK,
    ACK_DUP,
    NAK_CORRUPT,
    NAK_STALE,
    SUCCESS_ACKS,
    CollectionStats,
    Delivery,
    ReportCollector,
    accept_frame,
    encode_report,
    jittered_backoff,
)
from repro.dataplane.host import Host
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    moderate_plan,
    socket_plan,
)
from repro.sketches.deltoid import Deltoid
from repro.traffic.generator import TraceConfig, generate_trace

EPOCH = 3
HOST = 2
POLICY = ReportCollector(max_retries=3, backoff_jitter=0.2, jitter_seed=5)


@pytest.fixture(scope="module")
def reports():
    trace = generate_trace(TraceConfig(num_flows=300, seed=13))
    return [
        Host(
            host_id, Deltoid(width=128, depth=2, seed=5), fastpath_bytes=4096
        ).run_epoch(trace)
        for host_id in range(8)
    ]


@pytest.fixture(scope="module")
def frame(reports):
    return encode_report(reports[HOST], EPOCH)


@pytest.fixture(scope="module")
def old_frame(reports):
    return encode_report(reports[HOST], EPOCH - 1)


def machine(faults, fuel=None):
    """A fresh ``(delivery, stats, injector)`` for host ``HOST``."""
    injector = FaultInjector(FaultPlan(seed=1))
    if fuel is not None:
        injector.remember(HOST, fuel)
    stats = CollectionStats()
    delivery = Delivery(HOST, EPOCH, faults, POLICY, stats, injector)
    return delivery, stats, injector


def loopback(delivery, frame, stats) -> int:
    """Drive ``delivery`` into :func:`accept_frame` the way the
    in-process collector does; returns the attempts used."""
    seen: set = set()
    used = 0
    for attempt, fault in delivery.attempts():
        used += 1
        sent = delivery.payloads(fault, frame, attempt)
        if sent is None:
            continue
        verdicts = [accept_frame(p, EPOCH, seen, stats)[0] for p in sent]
        if all(verdict in SUCCESS_ACKS for verdict in verdicts):
            delivery.acked(frame)
    return used


def nonzero(stats) -> dict:
    return {name: value for name, value in vars(stats).items() if value}


#: What ``payloads(fault, frame, attempt=1)`` puts on the wire.
WIRE = {
    "lost": lambda frame, old, injector: None,
    "frame": lambda frame, old, injector: (frame,),
    "twice": lambda frame, old, injector: (frame, frame),
    "half": lambda frame, old, injector: (frame[: len(frame) // 2],),
    "stale": lambda frame, old, injector: (old,),
    "cut": lambda frame, old, injector: (
        injector.truncate(frame, EPOCH, HOST, 1),
    ),
    "flipped": lambda frame, old, injector: (
        injector.bitflip(frame, EPOCH, HOST, 1),
    ),
}

#: Every kind: what goes on the wire, the stat the machine counts, the
#: stat the loopback receiver counts, and the attempts one such fault
#: costs on the loopback.  Over TCP the socket driver additionally
#: counts resets, short writes, slow peers and truncations itself.
TABLE = [
    (FaultKind.DROP, "lost", "drops", None, 2),
    (FaultKind.DELAY, "lost", "timeouts", None, 2),
    (FaultKind.CONN_REFUSED, "lost", "conn_refused", None, 2),
    (FaultKind.TRUNCATE, "cut", None, "corrupt_frames", 2),
    (FaultKind.BITFLIP, "flipped", None, "corrupt_frames", 2),
    (FaultKind.DUPLICATE, "twice", None, "duplicates", 1),
    (FaultKind.REPLAY, "stale", None, "stale_frames", 2),
    (FaultKind.PARTIAL_WRITE, "half", None, "corrupt_frames", 2),
    (FaultKind.CONN_RESET, "frame", None, None, 1),
    (FaultKind.SLOW_PEER, "frame", None, None, 1),
    (FaultKind.DATAPLANE_CRASH, "frame", None, None, 1),
    (FaultKind.HANG, "frame", None, None, 1),
    (FaultKind.AGG_CRASH, "frame", None, None, 1),
    (FaultKind.AGG_HANG, "frame", None, None, 1),
]
FATAL = [(FaultKind.CRASH, "crashes"), (FaultKind.PARTITION, "partitions")]


class TestDeliveryMachine:
    def test_table_covers_every_kind(self):
        kinds = [row[0] for row in TABLE] + [kind for kind, _ in FATAL]
        assert sorted(kind.value for kind in kinds) == sorted(
            kind.value for kind in FaultKind
        )

    @pytest.mark.parametrize(
        "kind, wire, machine_stat, receiver_stat, attempts",
        TABLE,
        ids=[row[0].value for row in TABLE],
    )
    def test_one_fault(
        self,
        frame,
        old_frame,
        kind,
        wire,
        machine_stat,
        receiver_stat,
        attempts,
    ):
        delivery, stats, injector = machine([kind], fuel=old_frame)
        assert delivery.fatal is None
        assert delivery.payloads(kind, frame, 1) == WIRE[wire](
            frame, old_frame, injector
        )
        assert nonzero(stats) == ({machine_stat: 1} if machine_stat else {})

        delivery, stats, injector = machine([kind], fuel=old_frame)
        assert loopback(delivery, frame, stats) == attempts
        assert delivery.delivered is frame
        expected = {
            stat: 1 for stat in (machine_stat, receiver_stat) if stat
        }
        if attempts > 1:
            expected["retries"] = 1
            expected["backoff_seconds"] = delivery.backoff(1)
        assert nonzero(stats) == expected
        assert dict(injector.injected) == {kind.value: 1}

    def test_replay_without_fuel_is_a_drop(self, frame):
        delivery, stats, injector = machine([FaultKind.REPLAY])
        assert delivery.payloads(FaultKind.REPLAY, frame, 0) is None
        assert nonzero(stats) == {"drops": 1}
        assert dict(injector.injected) == {"replay": 1}

    @pytest.mark.parametrize("kind, stat", FATAL, ids=["crash", "partition"])
    def test_fatal_burns_the_whole_budget(self, frame, kind, stat):
        # Fatal wherever it sits in the schedule; nothing else fires.
        delivery, stats, injector = machine([FaultKind.DROP, kind])
        assert delivery.fatal is kind
        assert list(delivery.attempts()) == []
        retries = POLICY.max_retries
        assert nonzero(stats) == {
            stat: 1,
            "retries": retries,
            "backoff_seconds": sum(
                delivery.backoff(attempt) for attempt in range(1, retries + 1)
            ),
        }
        assert dict(injector.injected) == {kind.value: 1}
        assert delivery.delivered is None

    def test_faults_fire_in_order_and_budget_ends_the_loop(self):
        faults = [FaultKind.DROP, FaultKind.DELAY]
        delivery, stats, _ = machine(faults)
        assert list(delivery.attempts()) == [
            (0, FaultKind.DROP),
            (1, FaultKind.DELAY),
            (2, None),
            (3, None),
        ]
        assert stats.retries == POLICY.max_retries
        assert stats.backoff_seconds == sum(
            delivery.backoff(attempt) for attempt in (1, 2, 3)
        )

    def test_acked_stops_the_loop_and_remembers_the_frame(self, frame):
        delivery, stats, injector = machine([FaultKind.DROP] * 2)
        yielded = []
        for attempt, fault in delivery.attempts():
            yielded.append(attempt)
            if fault is None:
                delivery.acked(frame)
        assert yielded == [0, 1, 2]
        assert stats.retries == 2
        assert delivery.delivered is frame
        assert injector.stale_frame(HOST) is frame

    def test_unacked_frame_is_never_replay_fuel(self, frame):
        delivery, _, injector = machine([FaultKind.DROP] * 4)
        assert loopback(delivery, frame, CollectionStats()) == 4
        assert delivery.delivered is None
        assert injector.stale_frame(HOST) is None

    def test_each_fault_is_recorded_once(self, frame, old_frame):
        faults = [
            FaultKind.TRUNCATE,
            FaultKind.BITFLIP,
            FaultKind.REPLAY,
        ]
        delivery, stats, injector = machine(faults, fuel=old_frame)
        assert loopback(delivery, frame, stats) == 4
        assert dict(injector.injected) == {
            "truncate": 1,
            "bitflip": 1,
            "replay": 1,
        }
        assert stats.corrupt_frames == 2
        assert stats.stale_frames == 1

    def test_backoff_is_the_policy_schedule(self):
        delivery, _, _ = machine([])
        for attempt in (1, 2, 3, 20):
            assert delivery.backoff(attempt) == jittered_backoff(
                POLICY.backoff_base,
                POLICY.backoff_factor,
                POLICY.backoff_jitter,
                POLICY.jitter_seed,
                EPOCH,
                HOST,
                attempt,
            )


class TestAcceptFrame:
    def test_clean_frame_is_acked_once_then_deduped(self, reports, frame):
        stats, seen = CollectionStats(), set()
        verdict, report = accept_frame(frame, EPOCH, seen, stats)
        assert verdict == ACK
        assert report.host_id == HOST
        assert seen == {(HOST, EPOCH)}
        assert accept_frame(frame, EPOCH, seen, stats) == (ACK_DUP, None)
        assert nonzero(stats) == {"duplicates": 1}

    def test_stale_frame_is_refused_before_decode(self, old_frame):
        stats, seen = CollectionStats(), set()
        # A corrupt payload behind a stale header is still "stale": the
        # header check runs first and nothing is decoded.
        corrupt_tail = old_frame[:-1] + bytes([old_frame[-1] ^ 1])
        for message in (old_frame, corrupt_tail):
            assert accept_frame(message, EPOCH, seen, stats) == (
                NAK_STALE,
                None,
            )
        assert seen == set()
        assert nonzero(stats) == {"stale_frames": 2}

    @pytest.mark.parametrize("cut", [1, 20, -1])
    def test_truncated_frame_is_corrupt(self, frame, cut):
        stats, seen = CollectionStats(), set()
        assert accept_frame(frame[:cut], EPOCH, seen, stats) == (
            NAK_CORRUPT,
            None,
        )
        assert seen == set()
        assert nonzero(stats) == {"corrupt_frames": 1}

    @pytest.mark.parametrize("position", [0, 4, 5, 17, 30, -1])
    def test_bit_flipped_frame_is_corrupt(self, frame, position):
        # Magic, version, host id, CRC, payload head and tail — every
        # field but the epoch (a flip there is a stale frame).
        flipped = bytearray(frame)
        flipped[position] ^= 0x10
        stats, seen = CollectionStats(), set()
        assert accept_frame(bytes(flipped), EPOCH, seen, stats) == (
            NAK_CORRUPT,
            None,
        )
        assert seen == set()
        assert nonzero(stats) == {"corrupt_frames": 1}


# ---------------------------------------------------------------------------
# Pinned outcomes.  Captured before both collectors shared one machine,
# with the reports of the ``reports`` fixture: per epoch, the non-zero
# CollectionStats fields (minus the timing-dependent backpressure_waits),
# the missing hosts, and the reported host ids.
# ---------------------------------------------------------------------------
REPORT_PATH_RATES = {
    FaultKind.DROP: 0.1,
    FaultKind.DELAY: 0.05,
    FaultKind.BITFLIP: 0.05,
    FaultKind.TRUNCATE: 0.05,
    FaultKind.DUPLICATE: 0.05,
    FaultKind.REPLAY: 0.05,
    FaultKind.CRASH: 0.05,
}
ALL = [0, 1, 2, 3, 4, 5, 6, 7]
BUT_5 = [0, 1, 2, 3, 4, 6, 7]

PINNED_IN_PROCESS = {
    "moderate_plan(6)": [
        ({}, [], ALL),
        (
            {
                "backoff_seconds": 0.10198088727203312,
                "drops": 1,
                "retries": 2,
                "timeouts": 1,
            },
            [],
            ALL,
        ),
        (
            {
                "backoff_seconds": 0.10375750150038268,
                "corrupt_frames": 1,
                "retries": 2,
                "stale_frames": 1,
            },
            [],
            ALL,
        ),
        (
            {
                "backoff_seconds": 0.054187427064269905,
                "corrupt_frames": 1,
                "retries": 1,
            },
            [],
            ALL,
        ),
        ({}, [], ALL),
        (
            {
                "backoff_seconds": 0.15733699037108972,
                "drops": 3,
                "retries": 3,
            },
            [],
            ALL,
        ),
    ],
    "report-path rates, seed 3": [
        (
            {
                "backoff_seconds": 0.13991072060445361,
                "corrupt_frames": 2,
                "drops": 1,
                "duplicates": 1,
                "retries": 3,
            },
            [],
            ALL,
        ),
        (
            {
                "backoff_seconds": 0.051920906461171035,
                "corrupt_frames": 1,
                "retries": 1,
            },
            [],
            ALL,
        ),
        (
            {
                "backoff_seconds": 0.1968596500056587,
                "drops": 1,
                "duplicates": 1,
                "retries": 3,
                "stale_frames": 1,
                "timeouts": 1,
            },
            [],
            ALL,
        ),
        (
            {
                "backoff_seconds": 0.46017855698564736,
                "corrupt_frames": 1,
                "crashes": 1,
                "duplicates": 1,
                "retries": 5,
                "stale_frames": 1,
            },
            [5],
            BUT_5,
        ),
        (
            {
                "backoff_seconds": 0.302793513596082,
                "corrupt_frames": 1,
                "drops": 1,
                "retries": 4,
                "stale_frames": 2,
            },
            [],
            ALL,
        ),
        (
            {
                "backoff_seconds": 0.04942772524232514,
                "duplicates": 1,
                "retries": 1,
                "stale_frames": 1,
            },
            [],
            ALL,
        ),
    ],
}

#: A one-aggregator tier and the auto-sized tier pinned the same values.
PINNED_SOCKET = {
    1: [
        (
            {
                "backoff_seconds": 0.013254536179329764,
                "partitions": 1,
                "retries": 3,
            },
            [5],
            BUT_5,
        ),
        (
            {
                "backoff_seconds": 0.0021379998135408794,
                "conn_refused": 1,
                "retries": 1,
            },
            [],
            ALL,
        ),
        (
            {
                "backoff_seconds": 0.004279133633925434,
                "partial_writes": 1,
                "retries": 2,
                "slow_peers": 1,
            },
            [],
            ALL,
        ),
        (
            {
                "backoff_seconds": 0.001954135689585747,
                "corrupt_frames": 1,
                "retries": 1,
            },
            [],
            ALL,
        ),
    ],
    2: [
        (
            {
                "backoff_seconds": 0.005596428824178144,
                "conn_resets": 1,
                "drops": 1,
                "duplicates": 1,
                "partial_writes": 1,
                "retries": 3,
            },
            [],
            ALL,
        ),
        (
            {
                "backoff_seconds": 0.003981727392584492,
                "conn_refused": 2,
                "retries": 2,
            },
            [],
            ALL,
        ),
        (
            {
                "backoff_seconds": 0.0018773209864200123,
                "conn_refused": 1,
                "retries": 1,
            },
            [],
            ALL,
        ),
        ({}, [], ALL),
    ],
}


def outcome(result):
    stats = nonzero(result.stats)
    stats.pop("backpressure_waits", None)
    reported = sorted(
        host
        for report in result.reports
        for host in report.host_ids
    )
    return stats, result.missing_hosts, reported


class TestPinnedOutcomes:
    @pytest.mark.parametrize("plan", sorted(PINNED_IN_PROCESS))
    def test_in_process_collector(self, reports, plan):
        fault_plan = (
            moderate_plan(6)
            if plan.startswith("moderate")
            else FaultPlan(seed=3, rates=REPORT_PATH_RATES)
        )
        collector = ReportCollector(injector=FaultInjector(fault_plan))
        outcomes = [
            outcome(
                collector.collect(
                    {r.host_id: encode_report(r, epoch) for r in reports},
                    epoch,
                )
            )
            for epoch in range(6)
        ]
        assert outcomes == PINNED_IN_PROCESS[plan]

    @pytest.mark.parametrize("one_aggregator", [False, True])
    @pytest.mark.parametrize("seed", sorted(PINNED_SOCKET))
    def test_socket_collector(self, reports, one_aggregator, seed):
        collector = ClusterCollector(
            ClusterConfig(
                aggregators=1 if one_aggregator else 0,
                connect_timeout=1.0,
                ack_timeout=1.0,
                idle_timeout=0.15,
                epoch_deadline=20.0,
                backoff_base=0.002,
            ),
            injector=FaultInjector(socket_plan(seed)),
        )
        outcomes = [
            outcome(collector.collect(reports, epoch)) for epoch in range(4)
        ]
        assert outcomes == PINNED_SOCKET[seed]
