"""Flow and packet abstractions.

The paper identifies flow-based statistics by 5-tuples and host-based
statistics by IP addresses (§2.1).  :class:`FlowKey` is an immutable
5-tuple; helper functions project it to the key kinds the different
measurement tasks use (source host, destination host, src→dst pair).

Keys carry a cached 64-bit fold (``key64``) so hot loops hash a plain
integer instead of re-folding the tuple per sketch row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.common.hashing import fold_key, mix64

PROTO_TCP = 6
PROTO_UDP = 17
_HEADER_FIELDS = ("src_ip", "dst_ip", "src_port", "dst_port", "proto")


@dataclass(frozen=True, slots=True)
class FlowKey:
    """An immutable 5-tuple flow identifier.

    Addresses are stored as 32-bit integers and ports as 16-bit integers,
    matching the 104-bit flow-header space the paper reasons about
    (2 x 32 + 2 x 16 + 8 = 104 bits).
    """

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: int = PROTO_TCP
    # Cached 64-bit fold, excluded from equality/hash/repr; computed
    # once in __post_init__ so hot loops never re-fold the header.
    _key64: int = field(init=False, repr=False, compare=False, default=0)
    # Cached hash — the value the dataclass-generated ``__hash__`` would
    # return (the tuple of compared fields), so set and dict iteration
    # orders are what they were; flows key every hot dict in the repo.
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if not 0 <= self.src_ip < 2**32 or not 0 <= self.dst_ip < 2**32:
            raise ValueError("IP addresses must fit in 32 bits")
        if not 0 <= self.src_port < 2**16 or not 0 <= self.dst_port < 2**16:
            raise ValueError("ports must fit in 16 bits")
        if not 0 <= self.proto < 2**8:
            raise ValueError("protocol must fit in 8 bits")
        packed = self.key104
        object.__setattr__(
            self,
            "_key64",
            mix64((packed >> 64) ^ (packed & ((1 << 64) - 1))),
        )
        object.__setattr__(
            self,
            "_hash",
            hash(
                (
                    self.src_ip,
                    self.dst_ip,
                    self.src_port,
                    self.dst_port,
                    self.proto,
                )
            ),
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        """Pickle as the five header fields: unpickling goes through
        the constructor, which validates them and re-derives the
        cached fold and hash."""
        return (
            FlowKey,
            (
                self.src_ip,
                self.dst_ip,
                self.src_port,
                self.dst_port,
                self.proto,
            ),
        )

    def __setstate__(self, state) -> None:
        """Load the state form older pickles carry (all seven fields,
        cached ones included) through the constructor's checks.

        Cached values that disagree with the header are refused: such
        a key would hash apart from its honest twin and split its dict
        entries at a merge.
        """
        state = tuple(state)
        if len(state) != 7:
            raise ValueError(f"flow key state has {len(state)} fields, not 7")
        for name, value in zip(_HEADER_FIELDS, state):
            object.__setattr__(self, name, value)
        self.__post_init__()
        if state[5:] != (self._key64, self._hash):
            raise ValueError("flow key state disagrees with its header")

    @property
    def key104(self) -> int:
        """The exact 104-bit packed header, used by reversible sketches."""
        return (
            (self.src_ip << 72)
            | (self.dst_ip << 40)
            | (self.src_port << 24)
            | (self.dst_port << 8)
            | self.proto
        )

    @property
    def key64(self) -> int:
        """A mixed 64-bit fold of the header, used by hashing sketches.

        Precomputed in ``__post_init__`` — reading it is a slot load,
        not a re-fold of the 104-bit header.
        """
        return self._key64

    @classmethod
    def from_key104(cls, packed: int) -> "FlowKey":
        """Inverse of :attr:`key104` — unpack a 104-bit header."""
        return cls(
            src_ip=(packed >> 72) & 0xFFFFFFFF,
            dst_ip=(packed >> 40) & 0xFFFFFFFF,
            src_port=(packed >> 24) & 0xFFFF,
            dst_port=(packed >> 8) & 0xFFFF,
            proto=packed & 0xFF,
        )

    def reversed(self) -> "FlowKey":
        """The flow of the opposite direction (dst↔src swapped)."""
        return FlowKey(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            src_port=self.dst_port,
            dst_port=self.src_port,
            proto=self.proto,
        )


def key64_column(flows) -> np.ndarray:
    """The ``key64`` folds of ``flows`` (a sequence) as a uint64 array."""
    return np.fromiter(
        map(attrgetter("_key64"), flows), np.uint64, len(flows)
    )


def pack_headers(src, dst, sport, dport, proto):
    """Header columns packed as ``(hi, lo)`` uint64 word columns:
    bits 64-103 and bits 0-63 of :attr:`FlowKey.key104`.  The fields
    must already fit their widths; ``mix64_array(hi ^ lo)`` is the
    ``key64`` column."""
    src, dst, sport, dport, proto = (
        np.asarray(column).astype(np.uint64)
        for column in (src, dst, sport, dport, proto)
    )
    hi = src << np.uint64(8) | dst >> np.uint64(24)
    lo = (
        (dst & np.uint64(0xFFFFFF)) << np.uint64(40)
        | sport << np.uint64(24)
        | dport << np.uint64(8)
        | proto
    )
    return hi, lo


def header_words(flows) -> tuple[np.ndarray, np.ndarray]:
    """The 104-bit headers of ``flows`` (a sequence) as ``(hi, lo)``
    uint64 columns (see :func:`pack_headers`)."""
    return pack_headers(
        *(
            np.fromiter(map(attrgetter(name), flows), np.uint64, len(flows))
            for name in _HEADER_FIELDS
        )
    )


def header_flows(hi, lo) -> list[FlowKey]:
    """Inverse of :func:`header_words`: one :class:`FlowKey` per row of
    the word columns, reading the low 104 bits as
    :meth:`FlowKey.from_key104` does."""
    hi = np.asarray(hi, dtype=np.uint64)
    lo = np.asarray(lo, dtype=np.uint64)
    fields = (
        (hi >> np.uint64(8)) & np.uint64(0xFFFFFFFF),
        (hi & np.uint64(0xFF)) << np.uint64(24) | lo >> np.uint64(40),
        (lo >> np.uint64(24)) & np.uint64(0xFFFF),
        (lo >> np.uint64(8)) & np.uint64(0xFFFF),
        lo & np.uint64(0xFF),
    )
    return list(map(FlowKey, *(column.tolist() for column in fields)))


#: Odd multiplier of :func:`header_groups`' one-word fold of ``(hi, lo)``.
HEADER_FOLD = np.uint64(0x9E3779B97F4A7C15)


def header_groups(hi: np.ndarray, lo: np.ndarray):
    """Group rows by distinct header ``(hi, lo)``.

    Returns ``(first, group)``: the row of each distinct header's first
    occurrence, ascending, and every row's index into ``first``.

    Rows are sorted once on a one-word fold of the header.  Should two
    different headers share a fold, the rows are sorted on both words
    instead, so a fold collision never merges two headers.
    """
    if hi.size == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    fold = lo ^ (hi * HEADER_FOLD)
    order = np.argsort(fold)
    lead = _run_leads(fold[order])
    same_header = ~(_run_leads(hi[order]) | _run_leads(lo[order]))
    if not (lead | same_header).all():
        order = np.lexsort((lo, hi))
        lead = _run_leads(hi[order]) | _run_leads(lo[order])
    # The earliest row of each run stands for it; runs are renumbered
    # in the order of those rows.
    first = np.minimum.reduceat(order, np.flatnonzero(lead))
    by_row = np.argsort(first)
    rank = np.empty_like(by_row)
    rank[by_row] = np.arange(by_row.size)
    group = np.empty_like(order)
    group[order] = rank[np.cumsum(lead) - 1]
    return first[by_row], group


def _run_leads(column: np.ndarray) -> np.ndarray:
    """Marks each element of a sorted column that differs from the one
    before it (the first element always)."""
    lead = np.ones(column.size, dtype=bool)
    lead[1:] = column[1:] != column[:-1]
    return lead


def source_key(flow: FlowKey) -> int:
    """Host key for superspreader detection: the source IP."""
    return flow.src_ip


def destination_key(flow: FlowKey) -> int:
    """Host key for DDoS detection: the destination IP."""
    return flow.dst_ip


def flow_pair_key(flow: FlowKey) -> int:
    """(src, dst) host-pair key, folded to 64 bits."""
    return fold_key((flow.src_ip, flow.dst_ip))


@dataclass(frozen=True, slots=True)
class Packet:
    """A single observed packet: flow identity, byte size, timestamp.

    ``timestamp`` is in seconds from the start of the trace; the data
    plane uses it to derive arrival spacing when simulating offered load.
    """

    flow: FlowKey
    size: int
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"packet size must be positive, got {self.size}")
