"""Flight recorder: a bounded ring buffer of structured events.

Metrics answer "how much"; the recorder answers "what just happened".
Every notable pipeline event — buffer high-water crossings, fast-path
kick-out storms, injected faults, checkpoint/restore cycles, collector
retries, SLO breaches — is appended as a small structured record into a
fixed-capacity ring (a :class:`collections.deque`), so steady state
costs one deque append and old events age out for free.

On a trigger (crash, quarantine, or accuracy-SLO breach) the ring is
dumped to a JSON artifact: the last ``capacity`` events leading up to
the trigger, newest last — the black box an operator opens after the
incident.  See ``docs/observability.md`` for the dump schema.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

#: Ring capacity: enough to hold several epochs of event flow without
#: the dump artifact growing past a few hundred KB.
DEFAULT_CAPACITY = 512

#: Schema version stamped into every dump.
DUMP_VERSION = 1


@dataclass(frozen=True, slots=True)
class RecorderEvent:
    """One structured event in the ring (slotted: a full ring is
    ``capacity`` of them)."""

    seq: int
    time: float  # wall-clock seconds (time.time)
    kind: str
    epoch: int | None = None
    fields: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        record: dict = {
            "seq": self.seq,
            "time": self.time,
            "kind": self.kind,
        }
        if self.epoch is not None:
            record["epoch"] = self.epoch
        record.update(self.fields)
        return record


class FlightRecorder:
    """Fixed-capacity event ring with JSON dump-on-trigger.

    Parameters
    ----------
    capacity:
        Maximum events retained; older events are evicted FIFO.
    max_dumps:
        ``None`` (the default) writes every dump to the exact path it
        was asked for, overwriting prior incidents — the historical
        batch behavior, where CI uploads the artifact immediately.
        An integer switches to *rotation*: each dump gets a
        timestamp/sequence/reason-suffixed filename derived from the
        requested path, and the oldest rotated siblings are swept so
        at most ``max_dumps`` artifacts remain.  A long-running
        ``repro serve`` process under repeated SLO breaches keeps the
        most recent N incident dumps instead of just the last one.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        max_dumps: int | None = None,
    ):
        self.capacity = max(1, int(capacity))
        self._ring: deque[RecorderEvent] = deque(maxlen=self.capacity)
        self._seq = 0
        self.max_dumps = max_dumps
        self._dump_seq = 0
        #: Paths of every dump written so far (latest last).
        self.dumps: list[Path] = []

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def total_events(self) -> int:
        """Events recorded over the recorder's lifetime."""
        return self._seq

    @property
    def dropped_events(self) -> int:
        """Events that aged out of the ring."""
        return self._seq - len(self._ring)

    # ------------------------------------------------------------------
    def record(
        self, kind: str, *, epoch: int | None = None, **fields
    ) -> RecorderEvent:
        """Append one event; ``fields`` must be JSON-able scalars."""
        event = RecorderEvent(
            seq=self._seq,
            time=time.time(),
            kind=kind,
            epoch=epoch,
            fields=fields,
        )
        self._seq += 1
        self._ring.append(event)
        return event

    def events(self, kind: str | None = None) -> list[RecorderEvent]:
        """Retained events oldest-first, optionally filtered by kind."""
        if kind is None:
            return list(self._ring)
        return [event for event in self._ring if event.kind == kind]

    def clear(self) -> None:
        self._ring.clear()

    # ------------------------------------------------------------------
    def to_json(self, reason: str = "manual") -> dict:
        """The dump document (see docs/observability.md for schema)."""
        return {
            "version": DUMP_VERSION,
            "reason": reason,
            "dumped_at": time.time(),
            "capacity": self.capacity,
            "total_events": self.total_events,
            "dropped_events": self.dropped_events,
            "events": [event.to_json() for event in self._ring],
        }

    # ------------------------------------------------------------------
    def record_epoch_events(
        self,
        epoch: int,
        reports=(),
        buffer_capacity: int | None = None,
        collection=None,
        outcomes=None,
        network=None,
        dp_missing=(),
    ) -> None:
        """Distil one epoch's notable happenings into ring events.

        Duck-typed over the pipeline's per-epoch objects (reports,
        ``CollectionResult``, ``HostOutcome`` list, ``NetworkResult``)
        so the recorder stays importable below every layer.  Quiet
        epochs record nothing — the ring holds only what an operator
        would want to see after an incident.
        """
        for report in reports:
            switch = report.switch
            if (
                buffer_capacity
                and switch.buffer_high_water >= 0.9 * buffer_capacity
            ):
                self.record(
                    "buffer_high_water",
                    epoch=epoch,
                    host=report.host_id,
                    high_water=switch.buffer_high_water,
                    capacity=buffer_capacity,
                )
            fastpath = report.fastpath
            if fastpath is not None and fastpath.kickout_count:
                self.record(
                    "fastpath_kickout",
                    epoch=epoch,
                    host=report.host_id,
                    kickouts=fastpath.kickout_count,
                    evictions=fastpath.evict_count,
                )
        for host_id in dp_missing:
            self.record("dp_fault", epoch=epoch, host=host_id)
        if collection is not None:
            stats = collection.stats
            faults = {
                name: value
                for name, value in (
                    ("drops", stats.drops),
                    ("timeouts", stats.timeouts),
                    ("corrupt_frames", stats.corrupt_frames),
                    ("duplicates", stats.duplicates),
                    ("stale_frames", stats.stale_frames),
                    ("crashes", stats.crashes),
                    ("conn_refused", stats.conn_refused),
                    ("conn_resets", stats.conn_resets),
                    ("partial_writes", stats.partial_writes),
                    ("slow_peers", stats.slow_peers),
                    ("partitions", stats.partitions),
                    ("agg_crashes", stats.agg_crashes),
                    ("agg_hangs", stats.agg_hangs),
                )
                if value
            }
            if faults:
                self.record("transport_fault", epoch=epoch, **faults)
            if stats.quarantined_hosts:
                self.record(
                    "transport_quarantine",
                    epoch=epoch,
                    hosts=stats.quarantined_hosts,
                )
            if stats.retries:
                self.record(
                    "collector_retry",
                    epoch=epoch,
                    retries=stats.retries,
                    backoff_seconds=stats.backoff_seconds,
                )
            for host_id in collection.missing_hosts:
                self.record("missing_report", epoch=epoch, host=host_id)
            for failover in collection.failovers:
                self.record(
                    "aggregator_failover",
                    epoch=epoch,
                    aggregator=failover.aggregator_id,
                    fault=failover.kind,
                    shard_hosts=list(failover.shard_hosts),
                    redelivered=list(failover.redelivered_hosts),
                    unrecovered=list(failover.unrecovered_hosts),
                    detect_seconds=failover.detect_seconds,
                    recovery_seconds=failover.recovery_seconds,
                )
        outcomes = outcomes or ()
        # Every supervised host checkpoints every epoch: one summary
        # event per epoch, not one per host, keeps the ring for the
        # incidents around it.
        writers = [o for o in outcomes if o.checkpoint_writes]
        if writers:
            self.record(
                "checkpoint",
                epoch=epoch,
                hosts=len(writers),
                writes=sum(o.checkpoint_writes for o in writers),
                bytes=sum(o.checkpoint_bytes for o in writers),
            )
        for outcome in outcomes:
            if outcome.restores:
                self.record(
                    "restore",
                    epoch=epoch,
                    host=outcome.host_id,
                    restores=outcome.restores,
                    restarts=outcome.restarts,
                    crashes=outcome.crashes,
                    hangs=outcome.hangs,
                    replayed_packets=outcome.replayed_packets,
                )
            if outcome.gave_up:
                self.record(
                    "gave_up", epoch=epoch, host=outcome.host_id
                )
            if outcome.quarantined:
                self.record(
                    "quarantine", epoch=epoch, host=outcome.host_id
                )
        degraded = getattr(network, "degraded", None)
        if degraded is not None:
            self.record(
                "degraded_epoch",
                epoch=epoch,
                reported=degraded.reported_hosts,
                expected=degraded.expected_hosts,
                missing=list(degraded.missing_hosts),
                scale=degraded.scale,
            )

    def _rotated_path(self, requested: Path, reason: str) -> Path:
        """Timestamp/sequence/reason-suffixed sibling of ``requested``.

        The name sorts chronologically (UTC timestamp first, then a
        monotonic per-process sequence for same-second dumps), so the
        rotation sweep can order artifacts lexicographically.
        """
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        suffix = requested.suffix or ".json"
        name = (
            f"{requested.stem}-{stamp}-{self._dump_seq:04d}"
            f"-{reason}{suffix}"
        )
        self._dump_seq += 1
        return requested.with_name(name)

    def _sweep(self, requested: Path) -> None:
        """Unlink the oldest rotated siblings beyond ``max_dumps``."""
        suffix = requested.suffix or ".json"
        siblings = sorted(
            requested.parent.glob(f"{requested.stem}-*{suffix}")
        )
        keep = max(1, self.max_dumps)
        for stale in siblings[: max(0, len(siblings) - keep)]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - best-effort sweep
                pass

    def dump(self, path: str | Path, reason: str = "manual") -> Path:
        """Write the ring to a JSON artifact; returns the path written.

        With ``max_dumps`` unset the artifact lands at exactly
        ``path``, overwriting any prior incident (the newest wins —
        CI uploads the artifact immediately).  With ``max_dumps`` set
        the artifact gets a rotated timestamp/reason-suffixed name
        next to ``path`` and the oldest rotated siblings are swept so
        at most ``max_dumps`` remain.
        """
        requested = Path(path)
        if self.max_dumps is None:
            destination = requested
        else:
            destination = self._rotated_path(requested, reason)
        if destination.parent != Path(""):
            destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_text(
            json.dumps(self.to_json(reason), indent=2) + "\n"
        )
        if self.max_dumps is not None:
            self._sweep(requested)
        self.dumps.append(destination)
        return destination
