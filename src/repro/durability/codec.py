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
* the **cursor**: trace offset, producer/consumer clocks, the
  partially filled :class:`SwitchReport` and the fast-flow mask.

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

import numpy as np

from repro.common.errors import CorruptSnapshotError, ReproError
from repro.common.flow import FlowKey
from repro.controlplane.transport import decode_payload, encode_frame
from repro.dataplane.engine import HostEngine, SwitchReport
from repro.fastpath.misra_gries import MisraGriesTopK
from repro.fastpath.space_saving import SpaceSavingTopK
from repro.fastpath.topk import FastPath

_MAGIC = b"SKVS"
_VERSION = 2
_HEADER = struct.Struct(">4sBII")

#: ``state["format"]`` tag of an engine snapshot payload.
_ENGINE_FORMAT = "host-engine/v4"


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

        Snapshots sit on the epoch's hot path (every K packets), so
        what grows with the traffic — the sketch's counters and the
        fast-flow mask, a byte per flow of the trace's table — goes in
        the payload's array section; the report is scalars.
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
            "report": dict(vars(engine.report)),
            "fast_flows": engine.fast_flows,
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
            engine.report = SwitchReport(**state["report"])
            mask = engine.fast_flows = state["fast_flows"]
            if mask is not None and not (
                isinstance(mask, np.ndarray) and mask.dtype == bool
                and mask.ndim == 1
            ):
                raise CorruptSnapshotError("fast-flow mask is malformed")
            engine.fifo.restore(
                [float(cycle) for cycle in fifo_state["queue"]],
                fifo_state["high_water"],
            )
        except CorruptSnapshotError:
            raise
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            raise CorruptSnapshotError(
                f"malformed host-engine state: {exc}"
            ) from exc
        return engine


# ----------------------------------------------------------------------
# Fast-path flattening
# ----------------------------------------------------------------------


#: The scalar state every fast-path kind shares, beside its rows.
_SCALARS = (
    "total_bytes",
    "total_decremented",
    "num_updates",
    "num_hits",
    "num_inserts",
    "num_kickouts",
    "num_evicted",
)

#: Each fast-path kind: its class, its constructor arguments after
#: ``memory_bytes``, and the scalars only it keeps.
_KINDS = {
    "sketchvisor": (FastPath, ("delta",), ("num_rejected",)),
    "misra_gries": (MisraGriesTopK, (), ()),
    "space_saving": (SpaceSavingTopK, (), ()),
}


def _freeze_fastpath(fastpath):
    """Flatten a live fast path into a structural dict (or ``None``):
    its kind, its scalars, and its rows as ``(key104, e, r, d)``.

    Rows are emitted in insertion order: Misra-Gries and Space-Saving
    evict the *first* entry at the minimum and a fast path's rows read
    in insertion order, so order must survive the round-trip for the
    resumed run to stay bit-identical.
    """
    if fastpath is None:
        return None
    for kind, (cls, params, extra) in _KINDS.items():
        if isinstance(fastpath, cls):
            break
    else:
        raise CorruptSnapshotError(
            f"cannot snapshot fast path of type {type(fastpath).__name__}"
        )
    return {
        "kind": kind,
        "memory_bytes": fastpath.memory_bytes,
        **{
            name: getattr(fastpath, name)
            for name in params + _SCALARS + extra
        },
        "entries": [
            (flow.key104, e, r, d) for flow, e, r, d in fastpath.rows()
        ],
    }


def _thaw_fastpath(state):
    """Rebuild a fast path from :func:`_freeze_fastpath` output."""
    if state is None:
        return None
    kind = state.get("kind")
    if kind not in _KINDS:
        raise CorruptSnapshotError(
            f"unknown fast-path kind {kind!r} in snapshot"
        )
    cls, params, extra = _KINDS[kind]
    fastpath = cls(
        state["memory_bytes"], *(state[name] for name in params)
    )
    fastpath.load_rows(
        (FlowKey.from_key104(key), e, r, d)
        for key, e, r, d in state["entries"]
    )
    for name in _SCALARS + extra:
        setattr(fastpath, name, state[name])
    return fastpath
