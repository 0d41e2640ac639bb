"""The snapshot wire format: versioned, CRC-checked engine state.

A snapshot must capture *everything* that determines the rest of an
epoch so a restarted host is indistinguishable from one that never
crashed (the bit-identity contract of ``tests/test_durability.py``):

* the normal-path **sketch** (any registered sketch type — CountMin
  through UnivMon — serialized by value);
* the **fast-path table**: every flow's ``(e, r, d)`` counters, the
  ``V``/``E`` globals, and the operation counters, in insertion order
  (Misra-Gries eviction picks the *first* entry at the minimum, so
  table order is semantically load-bearing);
* the **FIFO backlog** — the enqueue cycles of the packets the
  consumer has not drained yet (the packets themselves are already in
  the sketch: a chunk is applied before its checkpoint fires);
* the **cursor**: trace offset, producer/consumer clocks, and the
  partially filled :class:`SwitchReport`.

The frame mirrors the report transport's defensive shape::

    MAGIC "SKVS" | version (1B) | length (4B, BE) | crc32 (4B, BE) | payload

(version 2; any other version is a :class:`CorruptSnapshotError`), and
the payload is the transport's one payload codec — ``array section |
envelope``, sketch counters written as their non-zero 8-byte words,
everything else through the *restricted* unpickler — so a checkpoint
file at rest is as small as a frame on the wire and is held to the same
trust standard, decoded-size ceiling included.
"""

from __future__ import annotations

import struct
import zlib

from repro.common.errors import CorruptSnapshotError, ReproError
from repro.common.flow import FlowKey
from repro.controlplane.transport import decode_payload, encode_frame
from repro.dataplane.engine import HostEngine, SwitchReport
from repro.fastpath.misra_gries import MGEntry, MisraGriesTopK
from repro.fastpath.topk import FastPath

_MAGIC = b"SKVS"
_VERSION = 2
_HEADER = struct.Struct(">4sBII")

#: ``state["format"]`` tag of an engine snapshot payload.
_ENGINE_FORMAT = "host-engine/v2"


class StateCodec:
    """Encode/decode arbitrary repro state behind a checked frame.

    :meth:`encode` / :meth:`decode` round-trip any allowlisted object
    (sketches, snapshots, plain containers) — the property tests sweep
    every sketch type through them.  :meth:`snapshot_engine` /
    :meth:`restore_engine` specialize them for a full
    :class:`HostEngine`, flattening the fast path into an explicit,
    version-stable structure instead of pickling the live object.
    """

    MAGIC = _MAGIC
    VERSION = _VERSION
    header_size = _HEADER.size

    # ------------------------------------------------------------------
    def encode(self, obj) -> bytes:
        """Frame ``obj`` as ``MAGIC | version | length | crc | payload``."""
        return encode_frame(_HEADER, _MAGIC, _VERSION, obj=obj)

    def decode(self, blob: bytes):
        """Validate the frame and return the deserialized payload.

        Raises :class:`CorruptSnapshotError` on a short buffer, bad
        magic, unknown version, length mismatch, CRC mismatch, or an
        unparseable payload — every corruption a torn write or flipped
        bit at rest can produce.
        """
        if len(blob) < _HEADER.size:
            raise CorruptSnapshotError(
                "snapshot too short for a frame header"
            )
        magic, version, length, crc = _HEADER.unpack_from(blob, 0)
        if magic != _MAGIC:
            raise CorruptSnapshotError(
                f"bad snapshot magic {magic!r}"
            )
        if version != _VERSION:
            raise CorruptSnapshotError(
                f"unsupported snapshot version {version}"
            )
        payload = memoryview(blob)[_HEADER.size :]
        if len(payload) != length:
            raise CorruptSnapshotError(
                f"snapshot length mismatch: header says {length}, got "
                f"{len(payload)} payload bytes"
            )
        if zlib.crc32(payload) != crc:
            raise CorruptSnapshotError(
                "snapshot CRC32 mismatch (file corrupted at rest)"
            )
        return decode_payload(payload, CorruptSnapshotError)

    # ------------------------------------------------------------------
    def snapshot_engine(self, engine: HostEngine) -> bytes:
        """Serialize a :class:`HostEngine` mid-epoch.

        Snapshots sit on the epoch's hot path (every K packets), so the
        expensive piece — the report's flow sets — is packed
        structurally (104-bit flow headers) instead of pickling tens of
        thousands of :class:`FlowKey` objects; packing is ~6x cheaper
        and :meth:`restore_engine` rebuilds the exact same objects on
        the (rare) recovery path.
        """
        fifo = engine.fifo
        state = {
            "format": _ENGINE_FORMAT,
            "ideal": engine.ideal,
            "offset": engine.offset,
            "producer": engine.producer,
            "consumer": engine.consumer,
            "sketch": engine.sketch,
            "fastpath": _freeze_fastpath(engine.fastpath),
            "fifo": {
                "capacity": fifo.capacity,
                "high_water": fifo.high_water,
                "queue": list(fifo.queue),
            },
            "report": _pack_report(engine.report),
        }
        return self.encode(state)

    def restore_engine(self, blob: bytes, cost_model) -> HostEngine:
        """Rebuild a :class:`HostEngine` from :meth:`snapshot_engine`.

        Every restored object is *fresh* — nothing aliases the crashed
        engine's (possibly inconsistent) live state.
        """
        state = self.decode(blob)
        if (
            not isinstance(state, dict)
            or state.get("format") != _ENGINE_FORMAT
        ):
            raise CorruptSnapshotError(
                "snapshot payload is not a host-engine state"
            )
        try:
            fifo_state = state["fifo"]
            engine = HostEngine(
                sketch=state["sketch"],
                fastpath=_thaw_fastpath(state["fastpath"]),
                cost_model=cost_model,
                buffer_packets=fifo_state["capacity"],
                ideal=state["ideal"],
            )
            engine.offset = state["offset"]
            engine.producer = state["producer"]
            engine.consumer = state["consumer"]
            engine.report = _unpack_report(state["report"])
            engine.fifo.restore(
                [float(cycle) for cycle in fifo_state["queue"]],
                fifo_state["high_water"],
            )
        except ReproError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptSnapshotError(
                f"malformed host-engine state: {exc}"
            ) from exc
        return engine


# ----------------------------------------------------------------------
# Report flattening
# ----------------------------------------------------------------------


def _pack_report(report: SwitchReport) -> dict:
    """Flatten a :class:`SwitchReport`, flow sets as 104-bit headers."""
    state = dict(vars(report))
    state["normal_flows"] = [
        flow.key104 for flow in report.normal_flows
    ]
    state["fastpath_flows"] = [
        flow.key104 for flow in report.fastpath_flows
    ]
    return state


def _unpack_report(state) -> SwitchReport:
    """Inverse of :func:`_pack_report` (exact: key104 is bijective)."""
    if not isinstance(state, dict):
        raise CorruptSnapshotError(
            "snapshot report is not a packed SwitchReport"
        )
    return SwitchReport(
        **{
            **state,
            "normal_flows": {
                FlowKey.from_key104(key)
                for key in state["normal_flows"]
            },
            "fastpath_flows": {
                FlowKey.from_key104(key)
                for key in state["fastpath_flows"]
            },
        }
    )


# ----------------------------------------------------------------------
# Fast-path flattening
# ----------------------------------------------------------------------


def _freeze_fastpath(fastpath):
    """Flatten a live fast path into a structural dict (or ``None``).

    Entries are emitted in table-insertion order: Misra-Gries evicts
    the *first* entry at the minimum and recovery sums over the
    snapshot in order, so order must survive the round-trip for the
    resumed run to stay bit-identical.
    """
    if fastpath is None:
        return None
    if isinstance(fastpath, FastPath):
        return {
            "kind": "sketchvisor",
            "memory_bytes": fastpath.memory_bytes,
            "delta": fastpath.delta,
            "entries": [
                (flow.key104, e, r, d)
                for flow, e, r, d in fastpath.rows()
            ],
            "total_bytes": fastpath.total_bytes,
            "total_decremented": fastpath.total_decremented,
            "num_updates": fastpath.num_updates,
            "num_hits": fastpath.num_hits,
            "num_inserts": fastpath.num_inserts,
            "num_kickouts": fastpath.num_kickouts,
            "num_evicted": fastpath.num_evicted,
            "num_rejected": fastpath.num_rejected,
        }
    if isinstance(fastpath, MisraGriesTopK):
        return {
            "kind": "misra_gries",
            "memory_bytes": fastpath.memory_bytes,
            "entries": [
                (flow.key104, entry.r)
                for flow, entry in fastpath.table.items()
            ],
            "total_bytes": fastpath.total_bytes,
            "total_decremented": fastpath.total_decremented,
            "num_updates": fastpath.num_updates,
            "num_hits": fastpath.num_hits,
            "num_inserts": fastpath.num_inserts,
            "num_kickouts": fastpath.num_kickouts,
            "num_evicted": fastpath.num_evicted,
        }
    raise CorruptSnapshotError(
        f"cannot snapshot fast path of type {type(fastpath).__name__}"
    )


def _thaw_fastpath(state):
    """Rebuild a fast path from :func:`_freeze_fastpath` output."""
    if state is None:
        return None
    kind = state.get("kind")
    if kind == "sketchvisor":
        fastpath = FastPath(
            memory_bytes=state["memory_bytes"], delta=state["delta"]
        )
        fastpath.load_rows(
            (FlowKey.from_key104(key), e, r, d)
            for key, e, r, d in state["entries"]
        )
        fastpath.total_bytes = state["total_bytes"]
        fastpath.total_decremented = state["total_decremented"]
        fastpath.num_updates = state["num_updates"]
        fastpath.num_hits = state["num_hits"]
        fastpath.num_inserts = state["num_inserts"]
        fastpath.num_kickouts = state["num_kickouts"]
        fastpath.num_evicted = state["num_evicted"]
        fastpath.num_rejected = state["num_rejected"]
        return fastpath
    if kind == "misra_gries":
        fastpath = MisraGriesTopK(memory_bytes=state["memory_bytes"])
        for key, r in state["entries"]:
            fastpath.table[FlowKey.from_key104(key)] = MGEntry(r=r)
        fastpath.total_bytes = state["total_bytes"]
        fastpath.total_decremented = state["total_decremented"]
        fastpath.num_updates = state["num_updates"]
        fastpath.num_hits = state["num_hits"]
        fastpath.num_inserts = state["num_inserts"]
        fastpath.num_kickouts = state["num_kickouts"]
        fastpath.num_evicted = state["num_evicted"]
        return fastpath
    raise CorruptSnapshotError(
        f"unknown fast-path kind {kind!r} in snapshot"
    )
