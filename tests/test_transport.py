"""Host → controller report serialization."""

from __future__ import annotations

import pickle
import random
import struct

import numpy as np
import pytest

from repro.cluster.framing import FrameAssembler
from repro.common.errors import ConfigError, CorruptFrameError
from repro.controlplane.controller import Controller
from repro.controlplane.recovery import RecoveryMode
from repro.controlplane.transport import (
    ReportCollector,
    decode_report,
    decode_stream,
    encode_report,
    encode_stream,
    peek_header,
)
from repro.dataplane.host import Host
from repro.sketches.deltoid import Deltoid
from repro.sketches.flowradar import FlowRadar


@pytest.fixture(scope="module")
def report(small_trace):
    host = Host(0, Deltoid(width=128, depth=2, seed=5), fastpath_bytes=8192)
    return host.run_epoch(small_trace)


class TestRoundTrip:
    def test_report_roundtrip(self, report):
        restored = decode_report(encode_report(report))
        assert restored.host_id == report.host_id
        assert np.array_equal(
            restored.sketch.to_matrix(), report.sketch.to_matrix()
        )
        assert restored.fastpath.total_bytes == (
            report.fastpath.total_bytes
        )
        assert restored.fastpath.entries.keys() == (
            report.fastpath.entries.keys()
        )

    def test_restored_report_aggregates_identically(
        self, report, small_trace
    ):
        """Aggregating the wire copy must answer exactly like the
        original — transport is lossless for the control plane."""
        restored = decode_report(encode_report(report))
        threshold = 0.01 * small_trace.total_bytes
        original_network = Controller(
            RecoveryMode.SKETCHVISOR
        ).aggregate([report])
        restored_network = Controller(
            RecoveryMode.SKETCHVISOR
        ).aggregate([restored])
        assert restored_network.sketch.decode(threshold).keys() == (
            original_network.sketch.decode(threshold).keys()
        )

    def test_nonlinear_sketch_roundtrip(self, small_trace):
        host = Host(
            1,
            FlowRadar(bloom_bits=20_000, num_cells=4000, seed=5),
            fastpath_bytes=8192,
        )
        report = host.run_epoch(small_trace)
        restored = decode_report(encode_report(report))
        original, _ = report.sketch.decode()
        recovered, _ = restored.sketch.decode()
        assert original == recovered

    def test_stream_roundtrip(self, report):
        stream = encode_stream([report, report, report])
        reports = decode_stream(stream)
        assert len(reports) == 3


class TestAllSolutionsSerialize:
    """The wire format must round-trip every Table 1 solution."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Deltoid(width=64, depth=2, seed=4),
            lambda: FlowRadar(bloom_bits=5000, num_cells=1000, seed=4),
        ],
        ids=["deltoid", "flowradar"],
    )
    def test_reversible_sketches(self, build, small_trace):
        host = Host(0, build(), fastpath_bytes=8192)
        report = host.run_epoch(small_trace)
        restored = decode_report(encode_report(report))
        assert np.array_equal(
            restored.sketch.to_matrix(), report.sketch.to_matrix()
        )

    def test_every_registry_solution(self, small_trace):
        from repro.framework.registry import TASK_REGISTRY, create_task

        seen: set[str] = set()
        for task_name, (_cls, solutions) in TASK_REGISTRY.items():
            for solution in solutions:
                if solution in seen:
                    continue
                seen.add(solution)
                kwargs = {}
                if task_name in ("heavy_hitter", "heavy_changer"):
                    kwargs["threshold"] = 1000
                if task_name in ("ddos", "superspreader"):
                    kwargs["threshold"] = 10
                task = create_task(task_name, solution, **kwargs)
                host = Host(
                    0, task.create_sketch(seed=2), fastpath_bytes=8192
                )
                report = host.run_epoch(small_trace)
                restored = decode_report(encode_report(report))
                assert type(restored.sketch) is type(report.sketch)
        assert len(seen) == 9


class TestFrameValidation:
    def test_short_message(self):
        with pytest.raises(ConfigError):
            decode_report(b"SK")

    def test_bad_magic(self, report):
        message = bytearray(encode_report(report))
        message[0:4] = b"XXXX"
        with pytest.raises(ConfigError):
            decode_report(bytes(message))

    def test_bad_version(self, report):
        message = bytearray(encode_report(report))
        message[4] = 99
        with pytest.raises(ConfigError):
            decode_report(bytes(message))

    def test_truncated_payload(self, report):
        message = encode_report(report)
        with pytest.raises(ConfigError):
            decode_report(message[:-10])

    def test_trailing_garbage_in_stream(self, report):
        with pytest.raises(ConfigError):
            decode_stream(encode_report(report) + b"\x01\x02")


class TestFrameV2:
    """The CRC-checked v2 format; v1 is an unsupported version."""

    def test_header_carries_host_and_epoch(self, report):
        frame = encode_report(report, epoch=17)
        header = peek_header(frame)
        assert header.host_id == report.host_id
        assert header.epoch == 17
        assert header.length == len(frame) - header.size

    def test_v1_frame_rejected_everywhere(self, report):
        """The pre-CRC v1 layout is an unsupported version: alone,
        mid-stream, at the collector and at the socket assembler."""
        payload = pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL)
        v1 = struct.pack(">4sBI", b"SKVR", 1, len(payload)) + payload
        with pytest.raises(CorruptFrameError, match="version 1"):
            decode_report(v1)
        with pytest.raises(CorruptFrameError, match="version 1"):
            decode_stream(encode_report(report, epoch=3) + v1)
        result = ReportCollector(max_retries=1).collect(
            {report.host_id: v1}, epoch=0
        )
        assert result.missing_hosts == [report.host_id]
        assert result.stats.corrupt_frames == 2
        assembler = FrameAssembler()
        assert len(assembler.feed(encode_report(report))) == 1
        with pytest.raises(CorruptFrameError, match="version 1"):
            assembler.feed(v1)

    def test_oversized_payload_rejected(self, report):
        frame = encode_report(report)
        with pytest.raises(CorruptFrameError, match="oversized"):
            decode_report(frame + b"\x00\x00\x00")

    def test_truncated_payload_rejected(self, report):
        frame = encode_report(report)
        with pytest.raises(CorruptFrameError, match="truncated"):
            decode_report(frame[:-3])

    def test_host_field_mismatch_rejected(self, report):
        frame = bytearray(encode_report(report, epoch=0))
        # host_id field lives at bytes [5, 9); rewrite it wholesale so
        # the CRC (payload-only) stays valid and only the cross-check
        # against the payload's host can catch it.
        frame[5:9] = struct.pack(">I", report.host_id + 7)
        with pytest.raises(CorruptFrameError, match="host"):
            decode_report(bytes(frame))


class TestCorruptionProperty:
    """Property-style sweeps: random reports survive the round trip;
    every corruption mode is rejected with the right error type."""

    def _frames(self, report):
        return [encode_report(report, epoch=e) for e in (0, 1, 42)]

    def test_random_reports_roundtrip(self, small_trace):
        for seed in range(5):
            host = Host(
                seed,
                Deltoid(width=64, depth=2, seed=seed + 1),
                fastpath_bytes=4096,
            )
            report = host.run_epoch(small_trace)
            restored = decode_report(encode_report(report, epoch=seed))
            assert restored.host_id == report.host_id
            assert np.array_equal(
                restored.sketch.to_matrix(), report.sketch.to_matrix()
            )
            assert (
                restored.fastpath.entries.keys()
                == report.fastpath.entries.keys()
            )

    def test_random_truncations_rejected(self, report):
        frame = encode_report(report, epoch=1)
        rng = random.Random(5)
        for _ in range(30):
            cut = frame[: rng.randrange(1, len(frame))]
            with pytest.raises(CorruptFrameError):
                decode_report(cut)

    def test_payload_bitflips_rejected_by_crc(self, report):
        frame = encode_report(report, epoch=1)
        header_size = peek_header(frame).size
        rng = random.Random(6)
        for _ in range(30):
            corrupted = bytearray(frame)
            position = rng.randrange(header_size, len(corrupted))
            corrupted[position] ^= 1 << rng.randrange(8)
            with pytest.raises(CorruptFrameError):
                decode_report(bytes(corrupted))

    def test_header_bitflips_rejected(self, report):
        """Flips in magic/version/host/length/CRC fields are caught at
        decode time.  (Epoch-field flips — bytes [9, 13) — decode fine
        by design and are rejected by the collector's epoch check.)"""
        frame = encode_report(report, epoch=1)
        protected = [b for b in range(13, 21)]  # length + crc
        protected += list(range(0, 9))  # magic, version, host_id
        for position in protected:
            for bit in range(8):
                corrupted = bytearray(frame)
                corrupted[position] ^= 1 << bit
                with pytest.raises(ConfigError):
                    decode_report(bytes(corrupted))

    def test_bad_magic_rejected(self, report):
        frame = bytearray(encode_report(report))
        frame[0:4] = b"NOPE"
        with pytest.raises(CorruptFrameError, match="magic"):
            decode_report(bytes(frame))

    def test_bad_version_rejected(self, report):
        frame = bytearray(encode_report(report))
        frame[4] = 9
        with pytest.raises(CorruptFrameError, match="version"):
            decode_report(bytes(frame))

    def test_garbage_payload_with_valid_crc_rejected(self):
        import zlib

        payload = b"\x99" * 64  # not a pickle
        frame = (
            struct.pack(
                ">4sBIIII", b"SKVR", 2, 0, 0, len(payload),
                zlib.crc32(payload),
            )
            + payload
        )
        with pytest.raises(CorruptFrameError, match="pickle"):
            decode_report(frame)


class TestRestrictedUnpickler:
    def _frame(self, payload: bytes) -> bytes:
        import struct
        import zlib

        return (
            struct.pack(
                ">4sBIIII",
                b"SKVR",
                2,
                0,
                0,
                len(payload),
                zlib.crc32(payload),
            )
            + payload
        )

    def test_rejects_arbitrary_classes(self):
        payload = pickle.dumps(object())  # builtins.object is allowed...
        # ...but the result is not a LocalReport.
        with pytest.raises(ConfigError):
            decode_report(self._frame(payload))

    def test_rejects_os_system_gadget(self):
        class Evil:
            def __reduce__(self):
                import os

                return (os.system, ("true",))

        payload = pickle.dumps(Evil())
        with pytest.raises(ConfigError):
            decode_report(self._frame(payload))

    def test_rejects_eval_gadget(self):
        class Evil:
            def __reduce__(self):
                return (eval, ("1+1",))

        payload = pickle.dumps(Evil())
        with pytest.raises(ConfigError):
            decode_report(self._frame(payload))
