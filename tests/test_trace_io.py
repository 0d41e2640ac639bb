"""Trace persistence: npz and CSV round trips."""

from __future__ import annotations

import csv
import random

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.flow import FlowKey, Packet
from repro.traffic.io import export_csv, import_csv, load_trace, save_trace
from repro.traffic.trace import Trace


class TestNpzRoundTrip:
    def test_roundtrip_identical(self, small_trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(small_trace, path)
        loaded = load_trace(path)
        assert len(loaded) == len(small_trace)
        for original, restored in zip(small_trace, loaded):
            assert original.flow == restored.flow
            assert original.size == restored.size
            assert original.timestamp == pytest.approx(
                restored.timestamp
            )

    def test_ground_truth_preserved(self, small_trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(small_trace, path)
        assert load_trace(path).flow_sizes() == small_trace.flow_sizes()

    def test_missing_arrays_rejected(self, tmp_path):
        import numpy as np

        path = tmp_path / "bad.npz"
        np.savez(path, src=np.zeros(1))
        with pytest.raises(ConfigError):
            load_trace(path)


class TestCsvRoundTrip:
    def test_roundtrip_identical(self, small_trace, tmp_path):
        path = tmp_path / "trace.csv"
        export_csv(small_trace, path)
        loaded = import_csv(path)
        assert loaded.flow_sizes() == small_trace.flow_sizes()

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            import_csv(path)

    def test_unsorted_rows_are_sorted(self, tmp_path):
        path = tmp_path / "unsorted.csv"
        path.write_text(
            "timestamp,src_ip,dst_ip,src_port,dst_port,proto,size\n"
            "2.0,1,2,3,4,6,100\n"
            "1.0,5,6,7,8,6,200\n"
        )
        trace = import_csv(path)
        assert trace[0].timestamp == 1.0
        assert trace[1].timestamp == 2.0


# ----------------------------------------------------------------------
# The readers build columns; the result is the trace packets would give
# ----------------------------------------------------------------------
def assert_same_trace(columnar, packet_built):
    """Same columns, same dtypes, same flow table in the same order."""
    assert columnar.table == packet_built.table
    for name in ("timestamps", "sizes", "flow"):
        mine, theirs = getattr(columnar, name), getattr(packet_built, name)
        assert mine.dtype == theirs.dtype, name
        assert np.array_equal(mine, theirs), name


def _csv_the_packet_way(path) -> Trace:
    with open(path, newline="") as handle:
        packets = [
            Packet(
                FlowKey(
                    int(row["src_ip"]),
                    int(row["dst_ip"]),
                    int(row["src_port"]),
                    int(row["dst_port"]),
                    int(row["proto"]),
                ),
                int(row["size"]),
                float(row["timestamp"]),
            )
            for row in csv.DictReader(handle)
        ]
    packets.sort(key=lambda packet: packet.timestamp)
    return Trace(packets)


class TestReadersBuildColumns:
    def test_load_trace_equals_the_packet_built_trace(
        self, small_trace, tmp_path
    ):
        path = tmp_path / "trace.npz"
        save_trace(small_trace, path)
        with np.load(path) as data:
            packets = [
                Packet(FlowKey(*map(int, header)), int(size), float(stamp))
                for *header, size, stamp in zip(
                    *(
                        data[name]
                        for name in (
                            "src", "dst", "sport", "dport", "proto",
                            "size", "timestamp",
                        )
                    )
                )
            ]
        assert_same_trace(load_trace(path), Trace(packets))

    def test_import_csv_equals_the_packet_built_trace(
        self, small_trace, tmp_path
    ):
        """Rows shuffled, with timestamp ties: the sort keeps file
        order among ties and the table is numbered after it."""
        path = tmp_path / "trace.csv"
        export_csv(small_trace, path)
        header, *rows = path.read_text().splitlines()
        random.Random(5).shuffle(rows)
        tie = rows[0].split(",")
        tie[1] = "77"
        rows += [",".join(tie)] * 2
        path.write_text("\n".join([header, *rows]) + "\n")
        assert_same_trace(import_csv(path), _csv_the_packet_way(path))

    def test_out_of_range_header_is_refused(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(
            "timestamp,src_ip,dst_ip,src_port,dst_port,proto,size\n"
            f"1.0,{1 << 32},2,3,4,6,100\n"
        )
        with pytest.raises(ValueError, match="32 bits"):
            import_csv(path)

    def test_empty_file_reads_as_empty_trace(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(
            "timestamp,src_ip,dst_ip,src_port,dst_port,proto,size\n"
        )
        assert len(import_csv(path)) == 0
