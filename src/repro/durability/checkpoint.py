"""Periodic engine checkpoints plus a tiny write-ahead journal.

Layout (one directory per host under the configured root)::

    <root>/host_0003/
        wal_epoch_000007.jsonl       # one JSON record per checkpoint
        ckpt_000007_000000000000.skvs  # baseline (offset 0)
        ckpt_000007_000000008192.skvs  # every K packets thereafter

The WAL is the journal of trace offsets: each line records which
snapshot file covers the epoch up to which offset.  Recovery reads it
*tolerantly* — a torn tail (the crash hit mid-append) simply ends the
journal at the last complete line — then walks the records backwards,
skipping any snapshot whose CRC-checked decode fails, until one
restores.  A baseline checkpoint at offset 0 is written at epoch start,
so restore can always fall back to "replay the whole shard" and never
has to give up on corruption alone.

Checkpoint boundaries are aligned to *absolute* trace offsets
(``offset % K == 0``), not to the restart point — so a host that
crashes, restores, and crashes again re-encounters the same boundaries
and the same journal, keeping multi-crash runs deterministic.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.common.errors import ReproError
from repro.durability.codec import StateCodec

#: Default snapshot interval in packets — small enough that replay
#: after a crash is cheap, large enough that snapshot cost stays small
#: (the end-to-end benchmark's ``durability.overhead_ratio`` row on the
#: ``dp_durable`` workload measures it).
DEFAULT_CHECKPOINT_EVERY = 16384


@dataclass
class CheckpointStats:
    """Lifetime counters of one host's checkpointer."""

    writes: int = 0
    bytes_written: int = 0
    restores: int = 0
    corrupt_snapshots: int = 0


class WriteAheadLog:
    """Append-only JSON-lines journal with torn-tail-tolerant reads."""

    def __init__(self, path: str):
        self.path = path

    def reset(self) -> None:
        """Truncate the journal (start of a new epoch)."""
        with open(self.path, "w", encoding="utf-8"):
            pass

    def append(self, record: dict) -> None:
        """Append one record; the trailing newline commits it (a crash
        mid-write leaves a torn last line that reads ignore)."""
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()

    def records(self) -> list[dict]:
        """Every complete record, in append order.

        Stops at the first line that is not valid JSON — by
        construction only the final line can be torn, and anything
        after a corrupt line is not trustworthy either way.
        """
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError:
            return []
        records: list[dict] = []
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                break
            if not isinstance(record, dict):
                break
            records.append(record)
        return records


class Checkpointer:
    """Snapshot one host's engine every K packets, journal the offset.

    Parameters
    ----------
    root:
        Checkpoint root directory (one subdirectory per host).
    host_id:
        The host this checkpointer serves.
    every_packets:
        Snapshot interval (absolute-offset aligned).
    """

    def __init__(
        self,
        root: str,
        host_id: int,
        every_packets: int = DEFAULT_CHECKPOINT_EVERY,
        codec: StateCodec | None = None,
    ):
        self.host_id = host_id
        self.every_packets = max(1, int(every_packets))
        self.directory = os.path.join(root, f"host_{host_id:04d}")
        os.makedirs(self.directory, exist_ok=True)
        self.codec = codec or StateCodec()
        self.stats = CheckpointStats()
        self._epoch: int | None = None
        self._wal: WriteAheadLog | None = None

    # ------------------------------------------------------------------
    def _wal_path(self, epoch: int) -> str:
        return os.path.join(
            self.directory, f"wal_epoch_{epoch:06d}.jsonl"
        )

    def _snapshot_name(self, epoch: int, offset: int) -> str:
        return f"ckpt_{epoch:06d}_{offset:012d}.skvs"

    # ------------------------------------------------------------------
    def begin_epoch(self, epoch: int, engine) -> None:
        """Start an epoch: prune older epochs' files, truncate the
        WAL, and write the offset-0 baseline snapshot."""
        for name in os.listdir(self.directory):
            if not (name.startswith("ckpt_") or name.startswith("wal_")):
                continue
            try:
                os.remove(os.path.join(self.directory, name))
            except OSError:
                pass
        self._epoch = epoch
        self._wal = WriteAheadLog(self._wal_path(epoch))
        self._wal.reset()
        self.write(epoch, engine)

    def write(self, epoch: int, engine) -> None:
        """Snapshot the engine now and journal the trace offset."""
        blob = self.codec.snapshot_engine(engine)
        name = self._snapshot_name(epoch, engine.offset)
        path = os.path.join(self.directory, name)
        # Write-then-rename so a crash mid-write never leaves a partial
        # file under the journaled name (the WAL record lands after the
        # rename, which is the actual commit point).
        tmp_path = path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(blob)
            handle.flush()
        os.replace(tmp_path, path)
        self._wal.append(
            {
                "epoch": epoch,
                "offset": engine.offset,
                "file": name,
                "bytes": len(blob),
            }
        )
        self.stats.writes += 1
        self.stats.bytes_written += len(blob)

    # ------------------------------------------------------------------
    def restore(self, epoch: int, cost_model):
        """The newest restorable engine for ``epoch``, or ``None``.

        Walks the journal backwards past torn/corrupt snapshots; the
        baseline entry makes total corruption the only way to return
        ``None``.
        """
        wal = WriteAheadLog(self._wal_path(epoch))
        for record in reversed(wal.records()):
            if record.get("epoch") != epoch:
                continue
            name = record.get("file")
            if not isinstance(name, str) or os.sep in name:
                continue
            path = os.path.join(self.directory, name)
            try:
                with open(path, "rb") as handle:
                    blob = handle.read()
                engine = self.codec.restore_engine(blob, cost_model)
            except (OSError, ReproError):
                self.stats.corrupt_snapshots += 1
                continue
            self.stats.restores += 1
            return engine
        return None
