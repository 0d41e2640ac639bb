"""Seeded, deterministic fault schedules for chaos testing.

A :class:`FaultPlan` describes *what goes wrong, where, and when* on
the host → controller report path: per-epoch, per-host fault draws
(report drop, delivery delay beyond the deadline, frame truncation,
bit-flip corruption, host crash, duplicate delivery, stale-epoch
replay) sampled from per-kind rates, plus explicitly pinned
:class:`FaultSpec` entries for directed tests.

Determinism is the whole point: the schedule for ``(epoch, host)`` is
a pure function of ``(plan.seed, epoch, host)``, independent of call
order, process layout, or how many other hosts exist — so identical
seeds reproduce identical fault schedules (and therefore identical
degraded results) across runs and machines.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from enum import Enum

from repro.common.errors import ConfigError


class FaultKind(Enum):
    """One way a host's per-epoch report can fail to arrive cleanly."""

    #: The frame is silently lost; a retry succeeds.
    DROP = "drop"
    #: The frame arrives after the per-host deadline (a timeout).
    DELAY = "delay"
    #: The frame is cut short mid-payload (CRC / length mismatch).
    TRUNCATE = "truncate"
    #: A single bit is flipped somewhere in the frame (header or
    #: payload, chosen by the schedule's RNG).
    BITFLIP = "bitflip"
    #: The host is down for the whole epoch: every attempt fails.
    CRASH = "crash"
    #: The frame is delivered twice (dedup by ``(host_id, epoch)``).
    DUPLICATE = "duplicate"
    #: The previous epoch's frame is delivered instead (stale replay);
    #: degrades to a drop when no earlier frame exists.
    REPLAY = "replay"
    #: The host's data-plane worker dies *mid-epoch* at a packet
    #: offset.  Recoverable via checkpoint/replay when durability is
    #: enabled; forfeits the epoch (degraded merge) otherwise.
    DATAPLANE_CRASH = "dp_crash"
    #: The host's data-plane worker stops making progress mid-epoch
    #: (hung syscall, livelock): the supervisor charges the watchdog's
    #: simulated timeout before a restart can happen.
    HANG = "hang"
    #: The controller/aggregator refuses the host's TCP connection
    #: (listener down, backlog full); the connect attempt fails fast.
    CONN_REFUSED = "conn_refused"
    #: The connection is torn down abruptly (RST) mid-transfer; any
    #: partially sent frame is discarded by the receiver.
    CONN_RESET = "conn_reset"
    #: The sender's socket closes cleanly after writing only a prefix
    #: of the frame (short write at the OS boundary).
    PARTIAL_WRITE = "partial_write"
    #: The peer stalls mid-frame longer than the receiver's idle
    #: deadline; the receiver hangs up and the attempt is lost.
    SLOW_PEER = "slow_peer"
    #: The host is network-partitioned from the controller for the
    #: whole epoch: every connection attempt fails (socket CRASH).
    PARTITION = "partition"
    #: An *aggregator* process dies mid-epoch: its listener closes, its
    #: partial aggregate (every report it had merged) is lost, and the
    #: controller's watchdog verdict follows.  Hosts re-shard to
    #: survivors via rendezvous hashing and re-home.
    AGG_CRASH = "agg_crash"
    #: An aggregator stops making progress mid-epoch: the listener
    #: stays connectable but swallows frames without ACKing.  Judged
    #: identically to a crash by the controller's watchdog verdict.
    AGG_HANG = "agg_hang"


#: Fixed sampling order so rate draws are reproducible.  New kinds are
#: appended at the END: a draw is only consumed when a kind's rate is
#: positive, so older plans' schedules are unchanged by the addition.
_KIND_ORDER = (
    FaultKind.CRASH,
    FaultKind.DROP,
    FaultKind.DELAY,
    FaultKind.TRUNCATE,
    FaultKind.BITFLIP,
    FaultKind.DUPLICATE,
    FaultKind.REPLAY,
    FaultKind.DATAPLANE_CRASH,
    FaultKind.HANG,
    FaultKind.PARTITION,
    FaultKind.CONN_REFUSED,
    FaultKind.CONN_RESET,
    FaultKind.PARTIAL_WRITE,
    FaultKind.SLOW_PEER,
    FaultKind.AGG_CRASH,
    FaultKind.AGG_HANG,
)

#: Kinds that strike the data plane mid-epoch rather than the report
#: path; they are scheduled by :meth:`FaultPlan.dataplane_schedule_for`
#: with a packet offset and never appear in :meth:`schedule_for`.
DATAPLANE_KINDS = frozenset(
    {FaultKind.DATAPLANE_CRASH, FaultKind.HANG}
)

#: Kinds that strike the *socket layer* of the cluster transport
#: (``repro.cluster``): connection establishment and stream transfer
#: rather than frame contents.  They are scheduled by
#: :meth:`FaultPlan.socket_schedule_for` and never appear in
#: :meth:`schedule_for`, so an existing in-process plan is untouched
#: by socket rates and vice versa.
SOCKET_KINDS = frozenset(
    {
        FaultKind.CONN_REFUSED,
        FaultKind.CONN_RESET,
        FaultKind.PARTIAL_WRITE,
        FaultKind.SLOW_PEER,
        FaultKind.PARTITION,
    }
)

#: Kinds that strike an *aggregator* rather than a host.  They are
#: scheduled per ``(epoch, aggregator)`` by
#: :meth:`FaultPlan.aggregator_schedule_for` from their own salted RNG
#: stream and never appear in any host schedule, so adding aggregator
#: rates to an existing plan leaves every host draw stream untouched.
AGGREGATOR_KINDS = frozenset(
    {FaultKind.AGG_CRASH, FaultKind.AGG_HANG}
)

#: Kinds a :class:`FaultSpec.packet_offset` may be attached to.  A
#: report-path ``CRASH`` spec pinned to an offset is *promoted* to a
#: data-plane crash: the historical crash fault only ever fired at
#: report-send time, which made mid-epoch crash tests meaningless.
#: For aggregator kinds the offset counts *accepted reports* instead
#: of packets: the aggregator strikes once it has ACKed that many.
_OFFSET_KINDS = frozenset(
    {FaultKind.CRASH, FaultKind.DATAPLANE_CRASH, FaultKind.HANG}
    | AGGREGATOR_KINDS
)

#: Salt separating the packet-offset draw stream from the schedule's
#: rate draws (same construction as the injector's corruption salt).
_OFFSET_SALT = 0x0FF5_E7D0

#: Salt for the aggregator fault stream — keyed by ``(epoch,
#: aggregator)`` rather than ``(epoch, host)``, and salted so it can
#: never collide with (or shift) a host cell's draws.
_AGG_SALT = 0xA66F_A117

#: Kinds that consume one delivery attempt and then clear on retry.
RETRIABLE_KINDS = frozenset(
    {
        FaultKind.DROP,
        FaultKind.DELAY,
        FaultKind.TRUNCATE,
        FaultKind.BITFLIP,
        FaultKind.REPLAY,
        FaultKind.CONN_REFUSED,
        FaultKind.CONN_RESET,
        FaultKind.PARTIAL_WRITE,
        FaultKind.SLOW_PEER,
    }
)


@dataclass(frozen=True)
class FaultSpec:
    """One pinned fault: ``kind`` hits ``host`` in ``epoch``.

    ``epoch`` / ``host`` may be ``None`` to match every epoch / host
    (a standing fault), which is how directed tests express "host 2 is
    always down".

    ``packet_offset`` pins a crash/hang to an intra-epoch packet index:
    the data plane stops after processing exactly that many packets of
    its shard.  It is only valid for ``CRASH`` / ``DATAPLANE_CRASH`` /
    ``HANG``; a ``CRASH`` spec carrying an offset is treated as a
    data-plane crash (the offset is where it strikes).

    For aggregator kinds (``AGG_CRASH`` / ``AGG_HANG``) the ``host``
    field names the *aggregator* id and ``packet_offset`` counts
    accepted reports: the aggregator strikes once it has ACKed that
    many host reports (``0`` = before the first ACK).
    """

    kind: FaultKind
    epoch: int | None = None
    host: int | None = None
    packet_offset: int | None = None

    def __post_init__(self) -> None:
        if self.packet_offset is None:
            return
        if self.kind not in _OFFSET_KINDS:
            raise ConfigError(
                f"packet_offset only applies to crash/hang faults, "
                f"not {self.kind.value!r}"
            )
        if self.packet_offset < 0:
            raise ConfigError("packet_offset must be >= 0")

    def matches(self, epoch: int, host: int) -> bool:
        return (self.epoch is None or self.epoch == epoch) and (
            self.host is None or self.host == host
        )


@dataclass(frozen=True)
class DataPlaneFault:
    """One scheduled mid-epoch fault: ``kind`` strikes after the host
    has processed ``offset`` packets of its shard."""

    kind: FaultKind
    offset: int


@dataclass(frozen=True)
class AggregatorFault:
    """One scheduled aggregator fault: ``kind`` strikes aggregator
    once it has *accepted* (ACKed) ``offset`` host reports this
    epoch — ``offset=0`` strikes before the first ACK."""

    kind: FaultKind
    offset: int


@dataclass
class FaultPlan:
    """A complete, seeded chaos schedule.

    Parameters
    ----------
    seed:
        Root seed; the per-``(epoch, host)`` draw derives from it alone.
    rates:
        Per-kind independent probabilities (``{"drop": 0.1, ...}``);
        each kind is drawn once per ``(epoch, host)``.
    specs:
        Explicitly pinned faults, applied *in addition to* rate draws.
    """

    seed: int = 0
    rates: dict[FaultKind, float] = field(default_factory=dict)
    specs: list[FaultSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        normalized: dict[FaultKind, float] = {}
        for kind, rate in self.rates.items():
            kind = FaultKind(kind)
            rate = float(rate)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(
                    f"fault rate for {kind.value!r} must be in [0, 1], "
                    f"got {rate}"
                )
            normalized[kind] = rate
        self.rates = normalized

    # ------------------------------------------------------------------
    def _rate_draws(self, epoch: int, host: int) -> list[FaultKind]:
        """Every rate-fired kind for one cell, in ``_KIND_ORDER``.

        Shared by the report-path and data-plane schedules so both
        consume the cell RNG's draw stream identically — a draw happens
        exactly when a kind's rate is positive, regardless of which
        schedule asks.
        """
        fired: list[FaultKind] = []
        if self.rates:
            rng = self.rng_for(epoch, host)
            for kind in _KIND_ORDER:
                # Aggregator kinds are drawn per (epoch, aggregator)
                # from their own salted stream; they never consume a
                # host cell draw.
                if kind in AGGREGATOR_KINDS:
                    continue
                rate = self.rates.get(kind, 0.0)
                if rate > 0.0 and rng.random() < rate:
                    fired.append(kind)
        return fired

    def schedule_for(self, epoch: int, host: int) -> list[FaultKind]:
        """The report-path faults hitting ``(epoch, host)``, in
        delivery order.

        A pure function of ``(seed, epoch, host)`` — calling it twice,
        in any order, from any process, yields the same list.  Data-
        plane kinds (and specs pinned to a packet offset) are excluded:
        they strike mid-epoch via :meth:`dataplane_schedule_for`.
        """
        faults = [
            kind
            for kind in self._rate_draws(epoch, host)
            if kind not in DATAPLANE_KINDS
            and kind not in SOCKET_KINDS
        ]
        # Pinned specs stack: each matching spec consumes one delivery
        # attempt, so listing the same spec n times injects it n times
        # (how directed tests exhaust the retry budget).
        for spec in self.specs:
            if (
                spec.matches(epoch, host)
                and spec.kind not in DATAPLANE_KINDS
                and spec.kind not in SOCKET_KINDS
                and spec.kind not in AGGREGATOR_KINDS
                and spec.packet_offset is None
            ):
                faults.append(spec.kind)
        # A crashed host never answers: every other fault is moot.
        if FaultKind.CRASH in faults:
            return [FaultKind.CRASH]
        return faults

    def socket_schedule_for(
        self, epoch: int, host: int
    ) -> list[FaultKind]:
        """The socket-layer faults hitting ``(epoch, host)``, in
        connection-attempt order.

        Same determinism contract as :meth:`schedule_for` — a pure
        function of ``(seed, epoch, host)``.  Only consulted by the
        cluster transport (``repro.cluster``); the in-process report
        path never sees these kinds.
        """
        faults = [
            kind
            for kind in self._rate_draws(epoch, host)
            if kind in SOCKET_KINDS
        ]
        for spec in self.specs:
            if spec.matches(epoch, host) and spec.kind in SOCKET_KINDS:
                faults.append(spec.kind)
        # A partitioned host cannot reach the controller at all this
        # epoch: every other socket fault is moot.
        if FaultKind.PARTITION in faults:
            return [FaultKind.PARTITION]
        return faults

    def dataplane_schedule_for(
        self, epoch: int, host: int, num_packets: int
    ) -> list[DataPlaneFault]:
        """Mid-epoch faults for ``(epoch, host)``, sorted by offset.

        Rate-fired data-plane kinds strike at a seeded offset within
        ``[0, num_packets)``; specs may pin the offset explicitly
        (clamped to the shard length).  Offsets come from a *salted*
        RNG, so adding or removing data-plane rates never perturbs the
        report-path draw stream of an existing plan.
        """
        events: list[DataPlaneFault] = []
        rng = self.offset_rng_for(epoch, host)
        for kind in self._rate_draws(epoch, host):
            if kind in DATAPLANE_KINDS:
                events.append(
                    DataPlaneFault(
                        kind,
                        rng.randrange(num_packets) if num_packets else 0,
                    )
                )
        for spec in self.specs:
            if not spec.matches(epoch, host):
                continue
            if spec.kind in AGGREGATOR_KINDS:
                continue
            if spec.packet_offset is not None:
                kind = (
                    FaultKind.DATAPLANE_CRASH
                    if spec.kind is FaultKind.CRASH
                    else spec.kind
                )
                events.append(
                    DataPlaneFault(
                        kind, min(spec.packet_offset, num_packets)
                    )
                )
            elif spec.kind in DATAPLANE_KINDS:
                events.append(
                    DataPlaneFault(
                        spec.kind,
                        rng.randrange(num_packets) if num_packets else 0,
                    )
                )
        events.sort(key=lambda event: event.offset)
        return events

    def aggregator_schedule_for(
        self, epoch: int, aggregator: int, group_size: int
    ) -> list[AggregatorFault]:
        """Faults striking ``aggregator`` in ``epoch``, sorted by
        accept-offset (the earliest strike wins; an aggregator only
        dies once per epoch).

        A pure function of ``(seed, epoch, aggregator)`` plus the
        shard's ``group_size`` (how many hosts route to it), which
        bounds the seeded strike offset so rate-fired faults land
        while reports are actually arriving.  Drawn from a dedicated
        salted stream: aggregator rates never perturb host schedules.

        Specs reuse the ``host`` field as the aggregator id and
        ``packet_offset`` as the accept-count offset.
        """
        events: list[AggregatorFault] = []
        rng = self.aggregator_rng_for(epoch, aggregator)
        for kind in _KIND_ORDER:
            if kind not in AGGREGATOR_KINDS:
                continue
            rate = self.rates.get(kind, 0.0)
            if rate > 0.0 and rng.random() < rate:
                events.append(
                    AggregatorFault(
                        kind,
                        rng.randrange(group_size) if group_size else 0,
                    )
                )
        for spec in self.specs:
            if spec.kind not in AGGREGATOR_KINDS:
                continue
            if not spec.matches(epoch, aggregator):
                continue
            if spec.packet_offset is not None:
                offset = min(spec.packet_offset, max(0, group_size))
            else:
                offset = rng.randrange(group_size) if group_size else 0
            events.append(AggregatorFault(spec.kind, offset))
        events.sort(key=lambda event: event.offset)
        return events

    def rng_for(self, epoch: int, host: int) -> random.Random:
        """Dedicated RNG for one ``(epoch, host)`` cell (also used to
        pick corruption offsets, so bit-flips are reproducible too)."""
        return random.Random(
            (self.seed & 0xFFFF_FFFF) << 32
            ^ (epoch & 0xFFFF) << 16
            ^ (host & 0xFFFF)
        )

    def offset_rng_for(self, epoch: int, host: int) -> random.Random:
        """Salted RNG for a cell's packet-offset draws, deliberately
        separate from :meth:`rng_for` so data-plane scheduling never
        consumes (or shifts) the report-path draw stream."""
        return random.Random(
            (self.seed & 0xFFFF_FFFF) << 40
            ^ (_OFFSET_SALT & 0xFFFF_FFFF) << 32
            ^ (epoch & 0xFFFF) << 16
            ^ (host & 0xFFFF)
        )

    def aggregator_rng_for(
        self, epoch: int, aggregator: int
    ) -> random.Random:
        """Salted RNG for an ``(epoch, aggregator)`` cell's fault
        draws, deliberately separate from every host stream."""
        return random.Random(
            (self.seed & 0xFFFF_FFFF) << 40
            ^ (_AGG_SALT & 0xFFFF_FFFF) << 32
            ^ (epoch & 0xFFFF) << 16
            ^ (aggregator & 0xFFFF)
        )

    @property
    def active(self) -> bool:
        """Whether this plan can ever inject anything."""
        return bool(self.specs) or any(
            rate > 0.0 for rate in self.rates.values()
        )

    # ------------------------------------------------------------------
    # JSON persistence (the ``repro run --chaos plan.json`` format)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rates": {
                kind.value: rate for kind, rate in self.rates.items()
            },
            "specs": [
                {
                    "kind": spec.kind.value,
                    "epoch": spec.epoch,
                    "host": spec.host,
                    "packet_offset": spec.packet_offset,
                }
                for spec in self.specs
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        try:
            specs = [
                FaultSpec(
                    kind=FaultKind(item["kind"]),
                    epoch=item.get("epoch"),
                    host=item.get("host"),
                    packet_offset=item.get("packet_offset"),
                )
                for item in data.get("specs", ())
            ]
            return cls(
                seed=int(data.get("seed", 0)),
                rates={
                    FaultKind(kind): float(rate)
                    for kind, rate in data.get("rates", {}).items()
                },
                specs=specs,
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"malformed fault plan: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"fault plan is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("fault plan JSON must be an object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")


def moderate_plan(seed: int = 0) -> FaultPlan:
    """The default chaos mix: 10% per-host fault pressure, all
    *recoverable* kinds (no crashes), for soak runs that must still
    collect every report after retries."""
    return FaultPlan(
        seed=seed,
        rates={
            FaultKind.DROP: 0.04,
            FaultKind.DELAY: 0.02,
            FaultKind.TRUNCATE: 0.01,
            FaultKind.BITFLIP: 0.01,
            FaultKind.DUPLICATE: 0.01,
            FaultKind.REPLAY: 0.01,
        },
    )


def socket_plan(seed: int = 0) -> FaultPlan:
    """The default *socket* chaos mix for cluster runs: ~10% per-host
    connection-level pressure (refusals, resets, short writes, stalls)
    plus a thin partition rate, layered on a light frame-level mix.

    Partitions are the only non-recoverable kind here, so most epochs
    still reach full quorum and the rest land a ``DegradedEpoch`` —
    exactly the envelope the CI cluster leg asserts.
    """
    return FaultPlan(
        seed=seed,
        rates={
            FaultKind.CONN_REFUSED: 0.03,
            FaultKind.CONN_RESET: 0.03,
            FaultKind.PARTIAL_WRITE: 0.02,
            FaultKind.SLOW_PEER: 0.01,
            FaultKind.PARTITION: 0.02,
            FaultKind.DROP: 0.02,
            FaultKind.BITFLIP: 0.01,
            FaultKind.DUPLICATE: 0.01,
        },
    )


def failover_plan(seed: int = 0) -> FaultPlan:
    """Sustained aggregator-failure chaos for fail-over soaks: per
    epoch each aggregator carries a 15% crash / 5% hang chance, over a
    light connection-reset mix on the host side.

    With a ``ceil(sqrt(N))`` tier this kills roughly one aggregator
    every few epochs at 256 hosts — every soak run exercises detection,
    re-sharding, and redelivery, while surviving aggregators absorb the
    dead shard so no epoch is lost.
    """
    return FaultPlan(
        seed=seed,
        rates={
            FaultKind.AGG_CRASH: 0.15,
            FaultKind.AGG_HANG: 0.05,
            FaultKind.CONN_RESET: 0.03,
        },
    )

