"""Checkpointer and write-ahead-log behavior under crashes.

Covers the failure envelope of the files themselves: torn WAL tails,
snapshots corrupted at rest (walk-back to an older good one), atomic
write-then-rename, and per-epoch pruning.  The ``REPRO_CHECKPOINT_*``
switches are in ``tests/test_framework.py``'s environment table.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.dataplane.engine import HostEngine
from repro.durability import (
    DEFAULT_CHECKPOINT_EVERY,
    Checkpointer,
    WriteAheadLog,
)
from repro.fastpath.topk import FastPath
from repro.sketches import CountMinSketch


def make_engine():
    return HostEngine(
        sketch=CountMinSketch(width=64, depth=3, seed=3),
        fastpath=FastPath(memory_bytes=1024),
        buffer_packets=32,
    )


class TestWriteAheadLog:
    def test_append_and_read(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.jsonl"))
        wal.reset()
        wal.append({"offset": 0})
        wal.append({"offset": 128})
        assert wal.records() == [{"offset": 0}, {"offset": 128}]

    def test_missing_file_reads_empty(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "nope.jsonl"))
        assert wal.records() == []

    def test_torn_tail_is_ignored(self, tmp_path):
        """A crash mid-append leaves a partial last line; reads must
        stop at the last complete record, not explode."""
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(str(path))
        wal.reset()
        wal.append({"offset": 0})
        wal.append({"offset": 128})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"offset": 256, "fi')  # torn mid-write
        assert wal.records() == [{"offset": 0}, {"offset": 128}]

    def test_reset_truncates(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.jsonl"))
        wal.reset()
        wal.append({"offset": 0})
        wal.reset()
        assert wal.records() == []


class TestCheckpointer:
    def test_begin_epoch_writes_baseline(self, tmp_path, small_trace):
        ckpt = Checkpointer(str(tmp_path), host_id=0, every_packets=64)
        engine = make_engine()
        ckpt.begin_epoch(0, engine)
        assert ckpt.stats.writes == 1
        restored = ckpt.restore(0, engine.cost_model)
        assert restored is not None
        assert restored.offset == 0

    def test_restore_returns_newest(self, tmp_path, small_trace):
        ckpt = Checkpointer(str(tmp_path), host_id=0, every_packets=64)
        engine = make_engine()
        ckpt.begin_epoch(0, engine)
        engine.run(
            small_trace,
            stop_at=200,
            checkpoint_every=64,
            on_checkpoint=lambda e: ckpt.write(0, e),
        )
        restored = ckpt.restore(0, engine.cost_model)
        assert restored.offset == 192  # newest 64-aligned boundary

    def test_corrupt_newest_walks_back(self, tmp_path, small_trace):
        """Flip a byte in the newest snapshot: restore must skip it
        (counting it) and land on the previous boundary."""
        ckpt = Checkpointer(str(tmp_path), host_id=0, every_packets=64)
        engine = make_engine()
        ckpt.begin_epoch(0, engine)
        engine.run(
            small_trace,
            stop_at=200,
            checkpoint_every=64,
            on_checkpoint=lambda e: ckpt.write(0, e),
        )
        newest = os.path.join(
            ckpt.directory, ckpt._snapshot_name(0, 192)
        )
        blob = bytearray(open(newest, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(newest, "wb") as handle:
            handle.write(bytes(blob))
        restored = ckpt.restore(0, engine.cost_model)
        assert restored.offset == 128
        assert ckpt.stats.corrupt_snapshots == 1

    def test_all_corrupt_returns_none(self, tmp_path):
        ckpt = Checkpointer(str(tmp_path), host_id=0, every_packets=64)
        engine = make_engine()
        ckpt.begin_epoch(0, engine)
        for name in os.listdir(ckpt.directory):
            if name.startswith("ckpt_"):
                path = os.path.join(ckpt.directory, name)
                with open(path, "wb") as handle:
                    handle.write(b"garbage")
        assert ckpt.restore(0, engine.cost_model) is None
        assert ckpt.stats.corrupt_snapshots >= 1

    def test_no_tmp_files_left_behind(self, tmp_path, small_trace):
        """Atomic write-then-rename: the directory never accumulates
        ``.tmp`` files under the journaled names."""
        ckpt = Checkpointer(str(tmp_path), host_id=0, every_packets=32)
        engine = make_engine()
        ckpt.begin_epoch(0, engine)
        engine.run(
            small_trace,
            stop_at=100,
            checkpoint_every=32,
            on_checkpoint=lambda e: ckpt.write(0, e),
        )
        names = os.listdir(ckpt.directory)
        assert not [n for n in names if n.endswith(".tmp")]

    def test_begin_epoch_prunes_previous(self, tmp_path, small_trace):
        ckpt = Checkpointer(str(tmp_path), host_id=0, every_packets=32)
        engine = make_engine()
        ckpt.begin_epoch(0, engine)
        engine.run(
            small_trace,
            stop_at=100,
            checkpoint_every=32,
            on_checkpoint=lambda e: ckpt.write(0, e),
        )
        ckpt.begin_epoch(1, make_engine())
        names = os.listdir(ckpt.directory)
        assert all("000001" in n for n in names), names
        assert ckpt.restore(0, engine.cost_model) is None

    def test_wal_rejects_path_escape(self, tmp_path):
        """A doctored WAL record must not read files outside the
        checkpoint directory."""
        ckpt = Checkpointer(str(tmp_path), host_id=0, every_packets=32)
        engine = make_engine()
        ckpt.begin_epoch(0, engine)
        wal = WriteAheadLog(ckpt._wal_path(0))
        wal.append(
            {"epoch": 0, "offset": 1, "file": "../../etc/passwd"}
        )
        restored = ckpt.restore(0, engine.cost_model)
        assert restored is not None  # fell back to the baseline
        assert restored.offset == 0


def test_default_interval_is_sane():
    assert DEFAULT_CHECKPOINT_EVERY == 16384


class TestWalRecordShape:
    def test_records_are_json_per_line(self, tmp_path, small_trace):
        ckpt = Checkpointer(str(tmp_path), host_id=0, every_packets=64)
        engine = make_engine()
        ckpt.begin_epoch(0, engine)
        engine.run(
            small_trace,
            stop_at=70,
            checkpoint_every=64,
            on_checkpoint=lambda e: ckpt.write(0, e),
        )
        with open(ckpt._wal_path(0), encoding="utf-8") as handle:
            lines = [json.loads(l) for l in handle if l.strip()]
        assert [r["offset"] for r in lines] == [0, 64]
        for record in lines:
            assert set(record) == {"epoch", "offset", "file", "bytes"}
