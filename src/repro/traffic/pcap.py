"""Classic pcap (libpcap) import/export with minimal header parsing.

Lets the library ingest real captures: classic pcap global header +
per-packet records, Ethernet II framing, IPv4, TCP/UDP.  Packets that
are not IPv4 TCP/UDP are skipped (counted).  Export writes synthetic
traces back out as valid pcap files (Ethernet/IPv4/UDP skeletons with
correct lengths), so external tools can read what the generator made.

Only the stdlib ``struct`` module is used — no capture dependencies.
"""

from __future__ import annotations

import pathlib
import struct
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigError
from repro.common.flow import PROTO_TCP, PROTO_UDP, Packet
from repro.traffic.trace import Trace, number_headers

_PCAP_MAGIC_LE = 0xA1B2C3D4
_PCAP_MAGIC_BE = 0xD4C3B2A1
_LINKTYPE_ETHERNET = 1
_ETHERTYPE_IPV4 = 0x0800

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")


@dataclass
class PcapStats:
    """What an import saw."""

    records: int = 0
    decoded: int = 0
    skipped_non_ethernet_ip: int = 0
    skipped_non_tcp_udp: int = 0
    truncated: int = 0


def read_pcap(
    path: str | pathlib.Path,
) -> tuple[Trace, PcapStats]:
    """Parse a classic pcap file into a Trace of IPv4 TCP/UDP packets.

    Packet sizes use the record's original (on-the-wire) length;
    timestamps are rebased so the capture starts at t=0.
    """
    data = pathlib.Path(path).read_bytes()
    if len(data) < _GLOBAL_HEADER.size:
        raise ConfigError("not a pcap file: too short")
    magic = struct.unpack_from("<I", data, 0)[0]
    if magic == _PCAP_MAGIC_LE:
        endian = "<"
    elif magic == _PCAP_MAGIC_BE:
        endian = ">"
    else:
        raise ConfigError(f"not a pcap file: magic {magic:#x}")
    (_magic, _major, _minor, _tz, _sig, _snaplen, linktype) = (
        struct.unpack_from(endian + "IHHiIII", data, 0)
    )
    if linktype != _LINKTYPE_ETHERNET:
        raise ConfigError(
            f"unsupported linktype {linktype}; only Ethernet (1)"
        )

    record = struct.Struct(endian + "IIII")
    stats = PcapStats()
    timestamps: list[float] = []
    sizes: list[int] = []
    headers: list[tuple[int, int, int, int, int]] = []
    offset = _GLOBAL_HEADER.size
    first_ts: float | None = None
    while offset + record.size <= len(data):
        ts_sec, ts_usec, incl_len, orig_len = record.unpack_from(
            data, offset
        )
        offset += record.size
        payload = data[offset : offset + incl_len]
        offset += incl_len
        stats.records += 1
        if len(payload) < incl_len:
            stats.truncated += 1
            break
        parsed = _parse_ethernet_ipv4(payload)
        if parsed is None:
            stats.skipped_non_ethernet_ip += 1
            continue
        if isinstance(parsed, str):
            stats.skipped_non_tcp_udp += 1
            continue
        timestamp = ts_sec + ts_usec / 1e6
        if first_ts is None:
            first_ts = timestamp
        timestamps.append(timestamp - first_ts)
        sizes.append(max(int(orig_len), 1))
        headers.append(parsed)
        stats.decoded += 1
    timestamps = np.array(timestamps, dtype=np.float64)
    order = np.argsort(timestamps, kind="stable")
    flow, table = number_headers(
        *np.array(headers, dtype=np.int64).reshape(-1, 5)[order].T
    )
    trace = Trace.from_columns(
        timestamps[order], np.array(sizes, dtype=np.int64)[order], flow, table
    )
    return trace, stats


def _parse_ethernet_ipv4(payload: bytes) -> tuple | str | None:
    """Returns the 5-tuple ``(src_ip, dst_ip, src_port, dst_port,
    proto)``, the string "non-tcp-udp", or None."""
    if len(payload) < 14 + 20:
        return None
    ethertype = struct.unpack_from("!H", payload, 12)[0]
    if ethertype != _ETHERTYPE_IPV4:
        return None
    ip_offset = 14
    version_ihl = payload[ip_offset]
    if version_ihl >> 4 != 4:
        return None
    ihl = (version_ihl & 0x0F) * 4
    if len(payload) < ip_offset + ihl + 4:
        return None
    proto = payload[ip_offset + 9]
    src_ip, dst_ip = struct.unpack_from(
        "!II", payload, ip_offset + 12
    )
    if proto not in (PROTO_TCP, PROTO_UDP):
        return "non-tcp-udp"
    l4_offset = ip_offset + ihl
    src_port, dst_port = struct.unpack_from("!HH", payload, l4_offset)
    return src_ip, dst_ip, src_port, dst_port, proto


def write_pcap(trace: Trace, path: str | pathlib.Path) -> None:
    """Write a trace as classic pcap (Ethernet/IPv4/UDP-or-TCP stubs).

    Each record's original length is the packet's byte size; the stored
    bytes are a minimal valid header stack (no payload), so captures
    stay small while wire lengths round-trip.
    """
    chunks = [
        _GLOBAL_HEADER.pack(
            _PCAP_MAGIC_LE, 2, 4, 0, 0, 65_535, _LINKTYPE_ETHERNET
        )
    ]
    for packet in trace:
        frame = _build_frame(packet)
        ts_sec = int(packet.timestamp)
        ts_usec = int(round((packet.timestamp - ts_sec) * 1e6))
        chunks.append(
            _RECORD_HEADER.pack(
                ts_sec, ts_usec, len(frame), max(packet.size, len(frame))
            )
        )
        chunks.append(frame)
    pathlib.Path(path).write_bytes(b"".join(chunks))


def _build_frame(packet: Packet) -> bytes:
    flow = packet.flow
    ip_total = max(packet.size - 14, 28)
    ethernet = (
        b"\x02\x00\x00\x00\x00\x01"
        + b"\x02\x00\x00\x00\x00\x02"
        + struct.pack("!H", _ETHERTYPE_IPV4)
    )
    ip_header = struct.pack(
        "!BBHHHBBHII",
        0x45,  # version 4, IHL 5
        0,
        min(ip_total, 65_535),
        0,
        0,
        64,  # TTL
        flow.proto,
        0,  # checksum left zero (tools tolerate it)
        flow.src_ip,
        flow.dst_ip,
    )
    if flow.proto == PROTO_UDP:
        l4 = struct.pack(
            "!HHHH",
            flow.src_port,
            flow.dst_port,
            max(ip_total - 20, 8),
            0,
        )
    else:
        l4 = struct.pack(
            "!HHIIBBHHH",
            flow.src_port,
            flow.dst_port,
            0,
            0,
            5 << 4,
            0x10,  # ACK
            65_535,
            0,
            0,
        )
    return ethernet + ip_header + l4
