"""Classic pcap import/export."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.flow import PROTO_TCP, PROTO_UDP, FlowKey, Packet
from repro.traffic.pcap import (
    PcapStats,
    _parse_ethernet_ipv4,
    read_pcap,
    write_pcap,
)
from repro.traffic.trace import Trace


class TestRoundTrip:
    def test_flows_and_sizes_roundtrip(self, small_trace, tmp_path):
        path = tmp_path / "trace.pcap"
        write_pcap(small_trace, path)
        restored, stats = read_pcap(path)
        assert stats.decoded == len(small_trace)
        assert stats.skipped_non_ethernet_ip == 0
        assert restored.flow_sizes() == small_trace.flow_sizes()

    def test_timestamps_rebased_and_ordered(self, small_trace, tmp_path):
        path = tmp_path / "trace.pcap"
        write_pcap(small_trace, path)
        restored, _stats = read_pcap(path)
        assert restored[0].timestamp == pytest.approx(0.0, abs=1e-5)
        previous = -1.0
        for packet in restored:
            assert packet.timestamp >= previous
            previous = packet.timestamp

    def test_protocols_preserved(self, small_trace, tmp_path):
        path = tmp_path / "trace.pcap"
        write_pcap(small_trace, path)
        restored, _stats = read_pcap(path)
        original_protos = {
            flow: flow.proto for flow in small_trace.flows()
        }
        for flow in restored.flows():
            assert flow.proto == original_protos[flow]
            assert flow.proto in (PROTO_TCP, PROTO_UDP)


class TestRobustness:
    def test_rejects_non_pcap(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ConfigError):
            read_pcap(path)

    def test_rejects_short_file(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(ConfigError):
            read_pcap(path)

    def test_skips_non_ipv4_frames(self, small_trace, tmp_path):
        path = tmp_path / "trace.pcap"
        write_pcap(small_trace, path)
        data = bytearray(path.read_bytes())
        # Append an ARP frame record at the end.
        arp_frame = (
            b"\xff" * 6 + b"\x02" * 6 + struct.pack("!H", 0x0806)
            + b"\x00" * 28
        )
        data += struct.pack(
            "<IIII", 99, 0, len(arp_frame), len(arp_frame)
        )
        data += arp_frame
        path.write_bytes(bytes(data))
        restored, stats = read_pcap(path)
        assert stats.skipped_non_ethernet_ip == 1
        assert stats.decoded == len(small_trace)

    def test_skips_non_tcp_udp(self, tmp_path):
        # Hand-build one ICMP packet.
        ip_header = struct.pack(
            "!BBHHHBBHII", 0x45, 0, 28, 0, 0, 64, 1, 0, 1, 2
        )
        frame = (
            b"\x02" * 6 + b"\x04" * 6 + struct.pack("!H", 0x0800)
            + ip_header + b"\x00" * 8
        )
        header = struct.pack(
            "<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1
        )
        record = struct.pack("<IIII", 0, 0, len(frame), len(frame))
        path = tmp_path / "icmp.pcap"
        path.write_bytes(header + record + frame)
        trace, stats = read_pcap(path)
        assert len(trace) == 0
        assert stats.skipped_non_tcp_udp == 1

    def test_stats_dataclass_defaults(self):
        stats = PcapStats()
        assert stats.records == 0 and stats.truncated == 0


def _pcap_the_packet_way(path) -> Trace:
    """The reader as it was: a Packet per decoded record, sorted by
    timestamp, fed to Trace."""
    data = path.read_bytes()
    offset, first, packets = 24, None, []
    while offset + 16 <= len(data):
        ts_sec, ts_usec, incl_len, orig_len = struct.unpack_from(
            "<IIII", data, offset
        )
        payload = data[offset + 16 : offset + 16 + incl_len]
        offset += 16 + incl_len
        header = _parse_ethernet_ipv4(payload)
        if not isinstance(header, tuple):
            continue
        stamp = ts_sec + ts_usec / 1e6
        first = stamp if first is None else first
        packets.append(
            Packet(FlowKey(*header), max(orig_len, 1), stamp - first)
        )
    packets.sort(key=lambda packet: packet.timestamp)
    return Trace(packets)


def test_read_pcap_equals_the_packet_built_trace(small_trace, tmp_path):
    path = tmp_path / "trace.pcap"
    write_pcap(small_trace, path)
    columnar, _stats = read_pcap(path)
    packet_built = _pcap_the_packet_way(path)
    assert columnar.table == packet_built.table
    for name in ("timestamps", "sizes", "flow"):
        mine, theirs = getattr(columnar, name), getattr(packet_built, name)
        assert mine.dtype == theirs.dtype
        assert np.array_equal(mine, theirs), name
