"""Report serialization: the host → controller wire format.

The prototype ships per-epoch results over ZeroMQ (§6).  This module
provides the equivalent encoding for :class:`LocalReport` objects and
the one *payload codec* every checked frame in the package carries —
report frames here, engine snapshots in ``repro.durability.codec``::

    payload = array section | envelope

The **envelope** is the protocol-5 pickle of the object with every
contiguous ndarray buffer taken out of band, loaded through a
*restricted* unpickler that only resolves classes from this package,
numpy, and Python builtins, so a controller cannot be made to execute
arbitrary constructors from a hostile host.  The **array section**
carries those buffers: a count, then per buffer ``kind (1B) |
dense_nbytes (8B) | nnz (4B)`` followed by either the raw bytes
(dense) or ``nnz`` strictly increasing ``uint32`` word indices and the
``nnz`` 8-byte words themselves (sparse) — the section is little-endian
throughout, like the array memory it carries.  A sketch is sized for
the network and one host fills a sliver of it, so a frame carries the
non-zero counters only; viewing a buffer as 8-byte words makes the
encoding dtype-agnostic and bit-exact (``-0.0``, NaN payloads, int64
and float64 alike) with no per-sketch schema.  Where a sparse
buffer's words land is the decoder's one seam: materialized into
zeros of the buffer's own (every caller but a merge), or left in the
payload as an unlanded :class:`SparseSection` that a merge lands in
its running buffer at the section's indices — so an aggregator
folding a frame builds no dense sketch for it and holds one dense
sketch, its merge, whatever it folds.  A report is arrays and
scalars — the sketch's counters, the fast-path snapshot's header-word
and counter columns, the switch report's counts — so the envelope
holds no per-flow object; what a snapshot's columns may hold is
checked as it is unpickled
(:class:`~repro.fastpath.topk.FastPathSnapshot`).

One frame layout (version 3) is written and understood: ``MAGIC (4B) |
version (1B) | host_id (4B, BE) | epoch (4B, BE) | length (4B, BE) |
crc32 (4B, BE) | payload``.  The CRC covers the payload, so any
truncation or bit-flip — in flight or at rest — is detected before the
section parser or the unpickler ever runs; host id and epoch ride in
the clear so the collector can dedup and reject stale replays without
deserializing.  Any other version (the pre-CRC v1 and the
dense-pickle v2 layouts included) is a :class:`CorruptFrameError`;
:func:`parse_header` is the one place the layout is parsed.

On top of the codec sits report delivery — the defensive half of the
fault model in ``docs/robustness.md``.  :class:`Delivery` is one
host's retry loop for one epoch without any I/O: fatal faults, retries
on the jittered exponential-backoff schedule, what each fault does to
the bytes, replay fuel.  :func:`accept_frame` is the receiver check:
stale-epoch rejection, CRC and decode, duplicate suppression by
``(host_id, epoch)``.  :class:`ReportCollector` drives both on an
in-process loopback with simulated time; the socket tier
(``repro.cluster``) drives the same two over TCP.
"""

from __future__ import annotations

import io
import math
import pickle
import random
import struct
import zlib
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import (
    ConfigError,
    CorruptFrameError,
    ReproError,
)
from repro.dataplane.host import LocalReport
from repro.faults.plan import FaultKind
from repro.sketches.base import Sketch

_MAGIC = b"SKVR"
_VERSION = 3
_PROBE = struct.Struct(">4sB")
_HEADER = struct.Struct(">4sBIIII")

#: Hard ceiling on one frame, in both of its sizes: the payload bytes a
#: header may declare on the wire, and the array bytes a payload may
#: declare once decoded.  A bit-flip in a length field must not
#: convince a receiver to wait for (or allocate) an absurd buffer.
DEFAULT_MAX_FRAME_BYTES = 64 << 20

# The array section: a count, then per buffer a descriptor and its data.
_COUNT = struct.Struct("<I")
_ARRAY = struct.Struct("<BQI")
_DENSE, _SPARSE = 0, 1
_WORD = np.dtype("<u8")
_INDEX = np.dtype("<u4")
#: Wire bytes one sparse entry costs (index + word).
_ENTRY_BYTES = _INDEX.itemsize + _WORD.itemsize
#: Buffers below this many bytes are always written dense: the most a
#: sparse form could save there is less than scanning for it is worth.
_SPARSE_MIN_BYTES = 1024

#: numpy's reconstructor for an array pickled with its buffer out of
#: band: ``_frombuffer(buffer, dtype, shape, order[, axis_order])``.
_FROMBUFFER = np.empty(0).__reduce_ex__(5)[0]
#: The fold ops under which an all-zero element leaves its target as
#: is (``x op 0 == x``), so a section may skip its zero words.
_ZERO_IDENTITY_OPS = (np.add, np.bitwise_xor, np.bitwise_or)

#: Module prefixes the unpickler will resolve classes from.
_ALLOWED_PREFIXES = (
    "repro.",
    "numpy",
    "builtins",
    "collections",
)

#: Builtins that are never safe to resolve, regardless of module.
_DENIED_NAMES = {"eval", "exec", "open", "compile", "__import__"}


class _RestrictedUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):  # noqa: D102
        if name in _DENIED_NAMES:
            raise ConfigError(
                f"refusing to unpickle builtin {name!r}"
            )
        if not any(
            module == prefix.rstrip(".") or module.startswith(prefix)
            for prefix in _ALLOWED_PREFIXES
        ):
            raise ConfigError(
                f"refusing to unpickle {module}.{name} "
                "(module not allowlisted)"
            )
        return super().find_class(module, name)


class _UnlandedUnpickler(_RestrictedUnpickler):
    """Builds an array whose buffer is a :class:`SparseSection` as the
    section itself (:meth:`SparseSection.bind`), not as an array."""

    def find_class(self, module: str, name: str):  # noqa: D102
        found = super().find_class(module, name)
        return _reconstruct if found is _FROMBUFFER else found


def _reconstruct(buffer, *args):
    if isinstance(buffer, SparseSection):
        return buffer.bind(*args)
    return _FROMBUFFER(buffer, *args)


class SparseSection:
    """One sparse buffer of a payload's array section, not landed: its
    ``nnz`` word indices and words, read-only views into the payload.

    Materialized, its words go into zeros of its own
    (:meth:`materialize`).  Left unlanded, it stands in for the array
    the envelope builds from it, typed by :meth:`bind`, and
    ``Sketch.merge`` lands it in the running merge's matching buffer
    (:meth:`land`): the dense array is never built.
    """

    __slots__ = ("nbytes", "index", "words", "dtype", "shape")

    def __init__(self, nbytes: int, index: np.ndarray, words: np.ndarray):
        self.nbytes = nbytes
        self.index = index
        self.words = words
        self.dtype: np.dtype | None = None
        self.shape: tuple[int, ...] | None = None

    def materialize(self) -> np.ndarray:
        """The buffer's words, written into zeros of its own."""
        words = np.zeros(self.nbytes // _WORD.itemsize, dtype=_WORD)
        words[self.index] = self.words
        return words

    def bind(self, dtype, shape, order, axis_order=None):
        """numpy's reconstructor for the array behind this section.

        A C-order array of bool, int, uint or float items that tile an
        8-byte word stays unlanded: the section, now typed.  Any other
        array, and a second one from the same buffer, is built from
        the materialized words exactly as numpy builds it.
        """
        if (
            self.dtype is None
            and order == "C"
            and axis_order is None
            and isinstance(dtype, np.dtype)
            and dtype.kind in "biuf"
            and _WORD.itemsize % dtype.itemsize == 0
            and type(shape) is tuple
            and all(type(size) is int and size >= 0 for size in shape)
            and math.prod(shape) * dtype.itemsize == self.nbytes
        ):
            self.dtype, self.shape = dtype, shape
            return self
        args = (order,) if axis_order is None else (order, axis_order)
        return _FROMBUFFER(self.materialize(), dtype, shape, *args)

    def land(self, target: np.ndarray, op: np.ufunc) -> None:
        """``op(target, array, out=target)`` for the bound array, at
        the section's elements only: ``flat[idx] = op(flat[idx],
        words)``.

        An element the section skips is zero, and ``x op 0`` is ``x``
        under add, xor and or — for float add unless ``x`` is ``-0.0``,
        which no merge holds: it starts from zeros, and a sum is
        ``-0.0`` only when both terms are.  A target of another dtype,
        shape or layout, or another op, takes the dense array.
        """
        if (
            op not in _ZERO_IDENTITY_OPS
            or target.dtype != self.dtype
            or target.shape != self.shape
            or not target.flags.c_contiguous
            or not target.flags.writeable
        ):
            dense = _FROMBUFFER(self.materialize(), self.dtype, self.shape, "C")
            op(target, dense, out=target)
            return
        index = self.index.astype(np.intp)
        per_word = _WORD.itemsize // self.dtype.itemsize
        if per_word > 1:
            index = (index[:, None] * per_word + np.arange(per_word)).ravel()
        flat = target.reshape(-1)
        flat[index] = op(flat[index], self.words.view(self.dtype))


def encode_frame(layout: struct.Struct, *fields, obj) -> bytes:
    """``layout.pack(*fields, length, crc32) | payload`` for ``obj``.

    The one encoder of the payload codec (see the module docstring).
    Each out-of-band buffer is written sparse when it is at least
    :data:`_SPARSE_MIN_BYTES` long, a whole number of 8-byte words, and
    its sparse form takes under half its dense bytes; otherwise dense.
    The choice depends on the buffer alone, so equal states encode to
    equal bytes.
    """
    buffers: list[pickle.PickleBuffer] = []
    envelope = pickle.dumps(
        obj, protocol=5, buffer_callback=buffers.append
    )
    parts = [_COUNT.pack(len(buffers))]
    declared = 0
    for buffer in buffers:
        raw = buffer.raw()
        nbytes = raw.nbytes
        declared += nbytes
        if nbytes >= _SPARSE_MIN_BYTES and nbytes % _WORD.itemsize == 0:
            words = np.frombuffer(raw, dtype=_WORD)
            index = np.flatnonzero(words != 0)
            if index.size * _ENTRY_BYTES < nbytes // 2:
                parts += [
                    _ARRAY.pack(_SPARSE, nbytes, index.size),
                    index.astype(_INDEX).tobytes(),
                    words[index].tobytes(),
                ]
                continue
        parts += [_ARRAY.pack(_DENSE, nbytes, 0), raw]
    if declared > DEFAULT_MAX_FRAME_BYTES:
        raise ConfigError(
            f"{type(obj).__name__} holds {declared} array bytes, above "
            f"the {DEFAULT_MAX_FRAME_BYTES}-byte ceiling every decoder "
            "enforces"
        )
    parts.append(envelope)
    length = crc = 0
    for part in parts:
        length += len(part)
        crc = zlib.crc32(part, crc)
    return b"".join([layout.pack(*fields, length, crc), *parts])


def decode_payload(
    payload,
    corrupt: type[ReproError] = CorruptFrameError,
    unlanded: list[SparseSection] | None = None,
):
    """Rebuild the object behind one CRC-checked payload.

    The one decoder of the payload codec, and the single
    safe-deserialization chokepoint of the package: report frames and
    durability snapshots both route through it, so the allowlist above
    governs everything that crosses a trust boundary (wire frames,
    snapshot files at rest).  Every array comes back writable and
    backed by memory of its own — nothing aliases ``payload``.

    ``unlanded`` is the seam of where a sparse buffer's words land.
    ``None`` materializes them.  A list leaves them in ``payload``:
    each sparse buffer is handed to the envelope as a
    :class:`SparseSection` (and appended to the list), so an array
    built from it is that section instead (:meth:`SparseSection.bind`).
    Everything below is checked either way, and nothing lands before
    the whole payload has passed.

    Callers check the CRC first; what is refused here is therefore a
    payload somebody *built* wrong, raised as ``corrupt``: a section
    that runs past the payload, declared array bytes above
    :data:`DEFAULT_MAX_FRAME_BYTES` (refused before anything is
    allocated), an unknown buffer kind, sparse indices out of range or
    not strictly increasing, an envelope that is not a pickle or uses
    a different number of buffers than the section holds, and trailing
    bytes.  A non-allowlisted class is a :class:`ConfigError`.
    """
    payload = memoryview(payload)
    size = len(payload)
    if size < _COUNT.size:
        raise corrupt("payload too short for an array section")
    (count,) = _COUNT.unpack_from(payload)
    offset = _COUNT.size
    declared = 0
    buffers: list[np.ndarray] = []
    for position in range(count):
        if size - offset < _ARRAY.size:
            raise corrupt(
                f"array section declares {count} buffers but the "
                f"payload ends inside descriptor {position}"
            )
        kind, nbytes, nnz = _ARRAY.unpack_from(payload, offset)
        offset += _ARRAY.size
        declared += nbytes
        if declared > DEFAULT_MAX_FRAME_BYTES:
            raise corrupt(
                f"array section declares at least {declared} decoded "
                f"bytes, above the {DEFAULT_MAX_FRAME_BYTES}-byte "
                "ceiling"
            )
        if kind not in (_DENSE, _SPARSE):
            raise corrupt(f"buffer {position} has unknown kind {kind}")
        ragged = nnz if kind == _DENSE else nbytes % _WORD.itemsize
        if ragged:
            raise corrupt(
                f"buffer {position} descriptor is inconsistent: kind "
                f"{kind}, dense_nbytes {nbytes}, nnz {nnz}"
            )
        stored = nbytes if kind == _DENSE else nnz * _ENTRY_BYTES
        if size - offset < stored:
            raise corrupt(
                f"buffer {position} declares {stored} stored bytes "
                f"but only {size - offset} remain in the payload"
            )
        if kind == _DENSE:
            buffers.append(
                np.frombuffer(payload, np.uint8, nbytes, offset).copy()
            )
        else:
            num_words = nbytes // _WORD.itemsize
            index = np.frombuffer(payload, _INDEX, nnz, offset)
            if nnz and not (
                index[-1] < num_words and (index[1:] > index[:-1]).all()
            ):
                raise corrupt(
                    f"buffer {position}: sparse indices must be "
                    f"strictly increasing and below {num_words}"
                )
            section = SparseSection(
                nbytes,
                index,
                np.frombuffer(
                    payload, _WORD, nnz, offset + nnz * _INDEX.itemsize
                ),
            )
            if unlanded is None:
                buffers.append(section.materialize())
            else:
                unlanded.append(section)
                buffers.append(section)
        offset += stored
    envelope = io.BytesIO(payload[offset:])
    unused = iter(buffers)
    unpickler = (
        _RestrictedUnpickler if unlanded is None else _UnlandedUnpickler
    )
    try:
        obj = unpickler(envelope, buffers=unused).load()
    except ReproError:
        raise
    except Exception as exc:  # pickle raises a zoo of types on garbage
        raise corrupt(
            f"payload envelope is not a valid pickle: {exc}"
        ) from exc
    if next(unused, None) is not None:
        raise corrupt(
            f"array section holds {count} buffers, more than the "
            "envelope uses"
        )
    if envelope.tell() != size - offset:
        raise corrupt(
            f"{size - offset - envelope.tell()} trailing bytes after "
            "the envelope"
        )
    return obj


#: Ceiling on the backoff exponent: ``factor**_MAX_BACKOFF_EXPONENT``
#: is where the schedule goes flat.  With the default factor of 2 that
#: caps a 0.01 s base at ~11 minutes — long retry chains (fail-over
#: redelivery loops, soak runs) plateau instead of overflowing into
#: astronomically large float delays.  Attempts at or below the cap
#: are bit-identical to the uncapped schedule.
_MAX_BACKOFF_EXPONENT = 16


def jittered_backoff(
    base: float,
    factor: float,
    jitter: float,
    seed: int,
    epoch: int,
    host: int,
    attempt: int,
) -> float:
    """Exponential backoff with seeded decorrelating jitter.

    The sleep before retry ``attempt`` (1-based) is
    ``base * factor**(attempt-1) * (1 + jitter * u)`` with ``u`` drawn
    uniformly from ``[-1, 1)`` by an RNG keyed on
    ``(seed, epoch, host, attempt)`` — a pure function, so the same
    cell always backs off identically across runs, while distinct
    hosts failing in the same epoch retry on *different* schedules
    (no thundering herd).  :meth:`Delivery.backoff` is its one caller,
    so the in-process and socket paths account identical backoff for
    identical fault schedules.

    The exponent saturates at :data:`_MAX_BACKOFF_EXPONENT`, so the
    sleep plateaus on long retry chains rather than growing without
    bound (the jitter draw still varies per attempt past the cap).
    """
    sleep = base * (
        factor ** min(attempt - 1, _MAX_BACKOFF_EXPONENT)
    )
    if jitter == 0.0:
        return sleep
    rng = random.Random(
        (seed & 0xFFFF_FFFF) << 40
        ^ (epoch & 0xFFFF) << 24
        ^ (host & 0xFFFF) << 8
        ^ (attempt & 0xFF)
    )
    return sleep * (1.0 + jitter * (2.0 * rng.random() - 1.0))


@dataclass(frozen=True)
class FrameHeader:
    """The in-the-clear part of one frame."""

    host_id: int
    epoch: int
    length: int
    crc32: int

    #: Header bytes preceding the payload.
    size = _HEADER.size


def encode_report(report: LocalReport, epoch: int = 0) -> bytes:
    """Serialize one host's epoch report into a framed message.

    A report that already holds its frame for ``epoch``
    (:meth:`LocalReport.hand_off`) is not encoded again.
    """
    frame = report.frame
    if frame is not None and parse_header(frame).epoch == epoch & 0xFFFF_FFFF:
        return frame
    return encode_frame(
        _HEADER,
        _MAGIC,
        _VERSION,
        report.host_id & 0xFFFF_FFFF,
        epoch & 0xFFFF_FFFF,
        obj=report,
    )


def parse_header(buffer, offset: int = 0) -> FrameHeader | None:
    """Parse the frame header starting at ``buffer[offset]``.

    The single parser of the frame layout, shared by
    :func:`peek_header`, :func:`decode_stream` and the socket tier's
    :class:`~repro.cluster.framing.FrameAssembler`.  Returns ``None``
    when the header is not fully there yet (a stream receiver waits
    for more bytes; a whole-message caller treats it as truncation).
    Magic and version are checked as soon as their five bytes are in,
    so a desynchronized stream is rejected without waiting for a
    header it will never complete; both raise
    :class:`CorruptFrameError`.
    """
    available = len(buffer) - offset
    if available < _PROBE.size:
        return None
    magic, version = _PROBE.unpack_from(buffer, offset)
    if magic != _MAGIC:
        raise CorruptFrameError(
            f"bad frame magic {magic!r} at offset {offset}"
        )
    if version != _VERSION:
        raise CorruptFrameError(
            f"unsupported frame version {version} at offset {offset}"
        )
    if available < _HEADER.size:
        return None
    _, _, host_id, epoch, length, crc = _HEADER.unpack_from(
        buffer, offset
    )
    return FrameHeader(
        host_id=host_id, epoch=epoch, length=length, crc32=crc
    )


def peek_header(message: bytes) -> FrameHeader:
    """Parse and validate a frame's header without touching the payload.

    Raises :class:`CorruptFrameError` on anything malformed: short
    buffer, bad magic, unknown version, or a declared payload length
    that disagrees with the actual buffer (truncated *or* oversized).
    """
    header = parse_header(message)
    if header is None:
        raise CorruptFrameError("message too short for a report frame")
    actual = len(message) - header.size
    if actual != header.length:
        raise CorruptFrameError(
            f"frame length mismatch: header says {header.length}, "
            f"got {actual} payload bytes "
            f"({'truncated' if actual < header.length else 'oversized'} "
            "frame)"
        )
    return header


def decode_report(message: bytes, fold: bool = False) -> LocalReport:
    """Parse a framed message back into a :class:`LocalReport`.

    Raises :class:`CorruptFrameError` (a :class:`ConfigError`) on bad
    magic, version, length mismatch, CRC mismatch, or anything
    :func:`decode_payload` refuses, and :class:`ConfigError` on any
    attempt to resolve a non-allowlisted class.

    With ``fold`` the sketch's sparse fold buffers stay in the frame,
    unlanded (:class:`SparseSection`): that sketch is fit only to be
    merged into another, which lands them.  A frame whose unlanded
    sections are not all fold buffers of its sketch (a long, mostly
    zero snapshot column, say) is decoded whole instead, so ``fold``
    refuses and accepts exactly what the plain decode does.
    """
    header = peek_header(message)
    payload = memoryview(message)[header.size :]
    if zlib.crc32(payload) != header.crc32:
        raise CorruptFrameError(
            "frame CRC32 mismatch (payload corrupted in flight)"
        )
    if fold:
        unlanded: list[SparseSection] = []
        # Whatever fails here, refusals included, is decoded whole
        # below: it then fails, or passes, as a plain decode does.
        with suppress(Exception):
            report = _checked_report(
                header, decode_payload(payload, unlanded=unlanded)
            )
            sketch = report.sketch
            sources = (
                {id(source) for source, _op in sketch.fold_buffers()}
                if isinstance(sketch, Sketch)
                else set()
            )
            if all(
                section.dtype is not None and id(section) in sources
                for section in unlanded
            ):
                return report
    return _checked_report(header, decode_payload(payload))


def _checked_report(header: FrameHeader, report) -> LocalReport:
    if not isinstance(report, LocalReport):
        raise CorruptFrameError(
            f"frame did not contain a LocalReport "
            f"(got {type(report).__name__})"
        )
    if header.host_id != (report.host_id & 0xFFFF_FFFF):
        raise CorruptFrameError(
            f"frame header host {header.host_id} does not match "
            f"payload host {report.host_id}"
        )
    return report


def encode_stream(
    reports: list[LocalReport], epoch: int = 0
) -> bytes:
    """Concatenate framed reports (a whole epoch's worth)."""
    return b"".join(encode_report(report, epoch) for report in reports)


def decode_stream(data: bytes) -> list[LocalReport]:
    """Split a concatenation of frames back into reports."""
    reports: list[LocalReport] = []
    view = memoryview(data)
    offset = 0
    while offset < len(data):
        header = parse_header(data, offset)
        if header is None:
            raise CorruptFrameError(
                "trailing bytes are not a full frame"
            )
        end = offset + header.size + header.length
        if end > len(data):
            raise CorruptFrameError(
                f"frame at offset {offset} declares {header.length} "
                f"payload bytes but only "
                f"{len(data) - offset - header.size} remain "
                "(truncated stream)"
            )
        reports.append(decode_report(view[offset:end]))
        offset = end
    return reports


# ----------------------------------------------------------------------
# Resilient collection
# ----------------------------------------------------------------------


@dataclass
class CollectionStats:
    """What one epoch's collection pass had to survive."""

    retries: int = 0
    drops: int = 0
    timeouts: int = 0
    corrupt_frames: int = 0
    duplicates: int = 0
    stale_frames: int = 0
    crashes: int = 0
    #: Total *simulated* backoff the retry loop would have slept.
    backoff_seconds: float = 0.0
    # ------------------------------------------------------------------
    # Connection-level faults, filled only by the cluster transport
    # (``repro.cluster``) — the in-process collector never sees them.
    #: TCP connection attempts refused by the aggregator.
    conn_refused: int = 0
    #: Connections reset (RST) mid-transfer.
    conn_resets: int = 0
    #: Clean closes after only a prefix of the frame was written.
    partial_writes: int = 0
    #: Transfers abandoned because the peer stalled past the idle
    #: deadline.
    slow_peers: int = 0
    #: Hosts network-partitioned from the controller for the epoch.
    partitions: int = 0
    #: Sends that had to wait on a full queue / saturated socket
    #: buffer (the transport's backpressure signal, not a fault).
    backpressure_waits: int = 0
    #: Hosts skipped this epoch because their transport circuit
    #: breaker was open (consecutive failed epochs).
    quarantined_hosts: int = 0
    # ------------------------------------------------------------------
    # Aggregator-tier faults and fail-over accounting, filled only by
    # the cluster runner.
    #: Aggregators that crashed mid-epoch (listener gone, shard lost).
    agg_crashes: int = 0
    #: Aggregators that hung mid-epoch (connectable but silent).
    agg_hangs: int = 0
    #: Aggregators declared dead by a watchdog verdict and
    #: re-sharded onto survivors.
    failovers: int = 0
    #: Shard hosts re-homed onto a surviving aggregator after their
    #: aggregator died.
    redeliveries: int = 0
    #: Redeliveries answered ``ACK_DUP`` — the report had already
    #: landed elsewhere (e.g. a mid-flight retry re-routed first), so
    #: the dedup set collapsed the second copy.
    redelivery_dups: int = 0

    @property
    def aggregator_faults(self) -> int:
        """Aggregator-tier faults only (cluster transport)."""
        return self.agg_crashes + self.agg_hangs

    @property
    def connection_faults(self) -> int:
        """Socket-layer faults only (cluster transport)."""
        return (
            self.conn_refused
            + self.conn_resets
            + self.partial_writes
            + self.slow_peers
            + self.partitions
        )

    @property
    def faults_seen(self) -> int:
        return (
            self.drops
            + self.timeouts
            + self.corrupt_frames
            + self.duplicates
            + self.stale_frames
            + self.crashes
            + self.connection_faults
            + self.aggregator_faults
        )


@dataclass
class CollectionResult:
    """Everything the collector gathered for one epoch."""

    epoch: int
    reports: list[LocalReport] = field(default_factory=list)
    missing_hosts: list[int] = field(default_factory=list)
    stats: CollectionStats = field(default_factory=CollectionStats)
    #: How many hosts' reports were collected.  Unlike
    #: ``len(reports)`` it survives the list being dropped, and it
    #: counts hosts where an aggregator tier folded ``reports`` into
    #: partial aggregates.
    hosts_reported: int = 0
    #: One record per aggregator a watchdog verdict declared dead
    #: this epoch (:class:`~repro.cluster.runner.FailoverRecord`);
    #: empty everywhere but the cluster runner.
    failovers: list = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.missing_hosts


#: One-byte receiver verdicts.  The socket tier writes them on the
#: wire; the in-process loopback reads them straight off
#: :func:`accept_frame`.
ACK = b"\x06"
ACK_DUP = b"\x07"
NAK_STALE = b"\x15"
NAK_CORRUPT = b"\x16"

#: Verdicts that mean "your report is accounted for; stop retrying".
SUCCESS_ACKS = (ACK, ACK_DUP)

#: Fault kinds that take a host out for the whole epoch.
_FATAL = (FaultKind.CRASH, FaultKind.PARTITION)


def accept_frame(
    frame: bytes,
    epoch: int,
    seen: set[tuple[int, int]],
    stats: CollectionStats,
) -> tuple[bytes, LocalReport | None]:
    """The receiver check for one frame: ``(verdict, report)``.

    The in-the-clear epoch is checked first, so a stale replay is
    refused without being decoded; then CRC and decode, where an
    envelope naming a class outside the unpickler's allowlist is
    refused like any other corrupt frame; then dedup by
    ``(host_id, epoch)`` against ``seen``.  Every refusal is counted in
    ``stats``.  ``report`` is the checked report on ``ACK`` and
    ``None`` on every other verdict.  It is frame-backed, like a
    handed-off one (:meth:`LocalReport.hand_off`).  When the check's
    decode left every fold buffer of the sketch in the frame, unlanded,
    the report keeps that decode for the one merge that folds it; a
    decode that holds a dense buffer of its own is dropped, so a
    report waiting for its merge holds no more than its frame, and the
    merge decodes the frame again.
    """
    try:
        if peek_header(frame).epoch != epoch & 0xFFFF_FFFF:
            stats.stale_frames += 1
            return NAK_STALE, None
        report = decode_report(frame, fold=True)
    except ConfigError:  # a CorruptFrameError, or a refused class
        stats.corrupt_frames += 1
        return NAK_CORRUPT, None
    key = (report.host_id, epoch)
    if key in seen:
        stats.duplicates += 1
        return ACK_DUP, None
    seen.add(key)
    sketch = report.sketch
    buffers = sketch.fold_buffers() if isinstance(sketch, Sketch) else ()
    unlanded = bool(buffers) and all(
        isinstance(source, SparseSection) for source, _op in buffers
    )
    report.hand_off(frame, unlanded=sketch if unlanded else None)
    return ACK, report


class Delivery:
    """One host's report delivery for one epoch, without I/O.

    A driver iterates :meth:`attempts`, puts :meth:`payloads` on its
    wire to a receiver running :func:`accept_frame`, and calls
    :meth:`acked` once the receiver accounts for the report.
    ``faults`` is the host's schedule, one per attempt; ``policy`` is
    anything with ``max_retries``, ``backoff_base``,
    ``backoff_factor``, ``backoff_jitter`` and ``jitter_seed`` (a
    :class:`ReportCollector` or a ``ClusterConfig``).
    """

    def __init__(
        self,
        host: int,
        epoch: int,
        faults,
        policy,
        stats: CollectionStats,
        injector=None,
    ):
        self.host = host
        self.epoch = epoch
        self.policy = policy
        self.stats = stats
        self.injector = injector
        self.faults: deque[FaultKind] = deque(faults)
        #: The crash or partition that takes the host out for the
        #: whole epoch, or ``None``.
        self.fatal = next(
            (fault for fault in self.faults if fault in _FATAL), None
        )
        #: The frame the receiver accounted for, once it has.
        self.delivered: bytes | None = None

    def backoff(self, attempt: int) -> float:
        """The sleep before retry ``attempt`` (1-based)."""
        policy = self.policy
        return jittered_backoff(
            policy.backoff_base,
            policy.backoff_factor,
            policy.backoff_jitter,
            policy.jitter_seed,
            self.epoch,
            self.host,
            attempt,
        )

    def _record(self, fault: FaultKind) -> None:
        if self.injector is not None:
            self.injector.record(fault)

    def attempts(self):
        """Yield ``(attempt, fault)`` until the report is acked or the
        retry budget is spent, booking each retry and its backoff.

        A fatal fault yields nothing: the host is down (crash) or
        unreachable (partition), so the whole budget burns at once.
        """
        stats = self.stats
        retries = self.policy.max_retries
        if self.fatal is not None:
            self._record(self.fatal)
            if self.fatal is FaultKind.CRASH:
                stats.crashes += 1
            else:
                stats.partitions += 1
            stats.retries += retries
            stats.backoff_seconds += sum(
                self.backoff(attempt) for attempt in range(1, retries + 1)
            )
            return
        for attempt in range(retries + 1):
            if attempt:
                stats.retries += 1
                stats.backoff_seconds += self.backoff(attempt)
            yield attempt, (self.faults.popleft() if self.faults else None)
            if self.delivered is not None:
                return

    def payloads(
        self, fault: FaultKind | None, frame: bytes, attempt: int
    ) -> tuple[bytes, ...] | None:
        """The frames to put on the wire this attempt, or ``None`` when
        ``fault`` loses the report before anything is sent (drop,
        delay, refused connection, replay with nothing to replay) —
        counted here.  Every other fault is counted where it shows:
        by the receiver, or by the driver that carries the bytes.
        """
        if fault is None:
            return (frame,)
        self._record(fault)
        stats = self.stats
        if fault is FaultKind.DROP:
            stats.drops += 1
            return None
        if fault is FaultKind.DELAY:
            stats.timeouts += 1
            return None
        if fault is FaultKind.CONN_REFUSED:
            stats.conn_refused += 1
            return None
        injector = self.injector
        if fault is FaultKind.REPLAY:
            stale = injector.stale_frame(self.host)
            if stale is None:
                stats.drops += 1
                return None
            return (stale,)
        if fault is FaultKind.TRUNCATE:
            return (injector.truncate(frame, self.epoch, self.host, attempt),)
        if fault is FaultKind.BITFLIP:
            return (injector.bitflip(frame, self.epoch, self.host, attempt),)
        if fault is FaultKind.DUPLICATE:
            return (frame, frame)
        if fault is FaultKind.PARTIAL_WRITE:
            return (frame[: max(1, len(frame) // 2)],)
        return (frame,)

    def acked(self, frame: bytes) -> None:
        """The receiver accounted for ``frame``: stop retrying, and keep
        it as the host's replay fuel for later epochs."""
        self.delivered = frame
        if self.injector is not None:
            self.injector.remember(self.host, frame)


class ReportCollector:
    """Per-host report delivery with retry and dedup, in process.

    The collector models the controller side of the report channel:
    it runs each host's :class:`Delivery` on a loopback that hands
    every payload straight to :func:`accept_frame`, and reports hosts
    whose every attempt failed as missing — the input to the
    controller's degraded-mode merge.  Time is simulated, not slept:
    a delay is a missed deadline, and backoff accumulates into
    :attr:`CollectionStats.backoff_seconds`, so chaos suites run at
    full speed.

    Parameters
    ----------
    max_retries:
        Retries after the first failed attempt, per host.
    backoff_base, backoff_factor:
        Retry ``i`` (simulated-)sleeps ``backoff_base * factor**(i-1)``.
    backoff_jitter:
        Fractional jitter on every backoff sleep, drawn by a seeded RNG
        keyed on ``(jitter_seed, epoch, host, attempt)`` so hosts that
        fail together do not retry in lockstep (see
        :func:`jittered_backoff`).  ``0.0`` gives the fixed schedule.
    jitter_seed:
        Root seed of the jitter draw stream.
    injector:
        Optional :class:`~repro.faults.injector.FaultInjector`; when
        absent every frame is delivered cleanly on the first attempt
        and the collector is pure overheadless bookkeeping.
    """

    def __init__(
        self,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_jitter: float = 0.1,
        jitter_seed: int = 0,
        injector=None,
    ):
        if max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if not 0.0 <= backoff_jitter < 1.0:
            raise ConfigError(
                f"backoff_jitter must be in [0, 1), got {backoff_jitter}"
            )
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_jitter = backoff_jitter
        self.jitter_seed = jitter_seed
        self.injector = injector

    # ------------------------------------------------------------------
    def collect(
        self, frames_by_host: dict[int, bytes], epoch: int
    ) -> CollectionResult:
        """Deliver one epoch's frames through the fault model.

        ``frames_by_host`` maps host id to that host's encoded
        frame.  Hosts are processed in id order so fault schedules and
        results are independent of dict insertion order.
        """
        result = CollectionResult(epoch=epoch)
        stats = result.stats
        seen: set[tuple[int, int]] = set()
        injector = self.injector
        for host in sorted(frames_by_host):
            frame = frames_by_host[host]
            faults = injector.schedule(epoch, host) if injector else ()
            delivery = Delivery(host, epoch, faults, self, stats, injector)
            for attempt, fault in delivery.attempts():
                sent = delivery.payloads(fault, frame, attempt)
                if sent is None:
                    continue
                ok = True
                for payload in sent:
                    verdict, report = accept_frame(payload, epoch, seen, stats)
                    if report is not None:
                        result.reports.append(report)
                    ok = ok and verdict in SUCCESS_ACKS
                if ok:
                    delivery.acked(frame)
            if delivery.delivered is None:
                result.missing_hosts.append(host)
        result.hosts_reported = len(result.reports)
        return result
