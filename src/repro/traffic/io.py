"""Trace persistence: compact binary (npz) and CSV interchange.

A downstream user will want to generate a workload once and reuse it
across experiments, or import packets from their own capture tooling.
The npz format stores five integer columns (src, dst, sport, dport,
proto), sizes, and float timestamps; CSV uses one packet per line with
a header row.
"""

from __future__ import annotations

import csv
import pathlib

import numpy as np

from repro.common.errors import ConfigError
from repro.traffic.trace import Trace, number_headers

_CSV_FIELDS = (
    "timestamp",
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "proto",
    "size",
)


def save_trace(trace: Trace, path: str | pathlib.Path) -> None:
    """Write a trace as a compressed npz archive."""
    n = len(trace)
    src = np.empty(n, dtype=np.uint32)
    dst = np.empty(n, dtype=np.uint32)
    sport = np.empty(n, dtype=np.uint16)
    dport = np.empty(n, dtype=np.uint16)
    proto = np.empty(n, dtype=np.uint8)
    size = np.empty(n, dtype=np.uint16)
    timestamp = np.empty(n, dtype=np.float64)
    for i, packet in enumerate(trace):
        flow = packet.flow
        src[i] = flow.src_ip
        dst[i] = flow.dst_ip
        sport[i] = flow.src_port
        dport[i] = flow.dst_port
        proto[i] = flow.proto
        size[i] = packet.size
        timestamp[i] = packet.timestamp
    np.savez_compressed(
        path,
        src=src,
        dst=dst,
        sport=sport,
        dport=dport,
        proto=proto,
        size=size,
        timestamp=timestamp,
    )


def load_trace(path: str | pathlib.Path) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    with np.load(path) as data:
        required = {
            "src", "dst", "sport", "dport", "proto", "size", "timestamp"
        }
        missing = required - set(data.files)
        if missing:
            raise ConfigError(f"trace file missing arrays: {missing}")
        flow, table = number_headers(
            *(data[name] for name in ("src", "dst", "sport", "dport", "proto"))
        )
        return Trace.from_columns(
            data["timestamp"], data["size"], flow, table
        )


def export_csv(trace: Trace, path: str | pathlib.Path) -> None:
    """Write a trace as CSV (one packet per row, header included)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_FIELDS)
        for packet in trace:
            flow = packet.flow
            writer.writerow(
                [
                    f"{packet.timestamp:.9f}",
                    flow.src_ip,
                    flow.dst_ip,
                    flow.src_port,
                    flow.dst_port,
                    flow.proto,
                    packet.size,
                ]
            )


def import_csv(path: str | pathlib.Path) -> Trace:
    """Read a CSV trace written by :func:`export_csv` (or compatible);
    rows are put in timestamp order, ties kept in file order."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or set(_CSV_FIELDS) - set(
            reader.fieldnames
        ):
            raise ConfigError(
                f"CSV must have columns {_CSV_FIELDS}, "
                f"got {reader.fieldnames}"
            )
        rows = list(reader)
    timestamps = np.array(
        [float(row["timestamp"]) for row in rows], dtype=np.float64
    )
    order = np.argsort(timestamps, kind="stable")
    sizes, *headers = (
        np.array([int(row[name]) for row in rows], dtype=np.int64)[order]
        for name in ("size", *_CSV_FIELDS[1:6])
    )
    flow, table = number_headers(*headers)
    return Trace.from_columns(timestamps[order], sizes, flow, table)
