"""Host → controller report serialization."""

from __future__ import annotations

import dataclasses
import pickle
import random
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.aggregator import Aggregator
from repro.cluster.framing import FrameAssembler
from repro.common.errors import ConfigError, CorruptFrameError
from repro.controlplane.controller import Controller
from repro.controlplane.recovery import RecoveryMode
from repro.controlplane.transport import (
    ACK,
    NAK_CORRUPT,
    CollectionStats,
    ReportCollector,
    accept_frame,
    decode_report,
    decode_stream,
    encode_frame,
    encode_report,
    encode_stream,
    peek_header,
)
from repro.dataplane.host import Host, LocalReport
from repro.dataplane.switch import SwitchReport
from repro.framework.modes import DataPlaneMode
from repro.framework.pipeline import PipelineConfig, SketchVisorPipeline
from repro.sketches.countmin import CountMinSketch
from repro.sketches.deltoid import Deltoid
from repro.sketches.flowradar import FlowRadar
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.traffic.generator import TraceConfig, generate_trace
from repro.traffic.groundtruth import GroundTruth
from repro.traffic.trace import Trace
from tests.conftest import (
    FILLS,
    adversarial_arrays,
    arrays_in,
    assert_exact_unaliased_round_trip,
    fill_sketch,
    make_flow,
    pre_column_flowradar,
    registry_solutions,
    saturate,
    snapshot_of,
)

DENSE, SPARSE = 0, 1


@pytest.fixture(scope="module")
def report(small_trace):
    host = Host(0, Deltoid(width=128, depth=2, seed=5), fastpath_bytes=8192)
    return host.run_epoch(small_trace)


def frame_of(payload: bytes, version: int = 3, host: int = 0) -> bytes:
    """A frame around ``payload`` whose header (CRC included) is right,
    so only what parses the payload can refuse it."""
    return (
        struct.pack(
            ">4sBIIII", b"SKVR", version, host, 0, len(payload),
            zlib.crc32(payload),
        )
        + payload
    )


def array_section(*buffers: tuple[int, int, int, bytes]) -> bytes:
    """``count | (kind, dense_nbytes, nnz) data ...`` as the codec
    lays it out."""
    return struct.pack("<I", len(buffers)) + b"".join(
        struct.pack("<BQI", kind, nbytes, nnz) + data
        for kind, nbytes, nnz, data in buffers
    )


def sparse_data(indices: list[int], words: list[int]) -> bytes:
    return (
        np.array(indices, "<u4").tobytes()
        + np.array(words, "<u8").tobytes()
    )


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
        assert restored.fastpath.rows() == report.fastpath.rows()

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
        solutions = registry_solutions()
        for build in solutions.values():
            host = Host(0, build(seed=2), fastpath_bytes=8192)
            report = host.run_epoch(small_trace)
            restored = decode_report(encode_report(report))
            assert type(restored.sketch) is type(report.sketch)
        assert len(solutions) == 9

    @settings(max_examples=40, deadline=None)
    @given(
        solution=st.sampled_from(sorted(registry_solutions())),
        fill=st.sampled_from(FILLS),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_is_exact_and_unaliased(
        self, report, solution, fill, seed
    ):
        """Every solution at its deployed size, from all-zero (the
        sparse arm at its best) to no zero at all (the dense arm)."""
        sketch = registry_solutions()[solution](seed=seed)
        assert_exact_unaliased_round_trip(
            dataclasses.replace(
                report, sketch=fill_sketch(sketch, fill, seed)
            ),
            encode_report,
            decode_report,
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        density=st.sampled_from([0.0, 0.01, 0.04, 0.05, 0.5, 1.0]),
    )
    def test_adversarial_arrays_round_trip(self, report, seed, density):
        """The codec sees buffers, not sketches: whatever arrays sit in
        a report come back bit for bit (0.04/0.05 straddle the
        sparse/dense choice of one-in-24 words)."""
        assert_exact_unaliased_round_trip(
            dataclasses.replace(
                report, sketch=adversarial_arrays(seed, density)
            ),
            encode_report,
            decode_report,
        )

    def test_frames_carry_the_non_zero_counters_only(self):
        """The size the wire format exists for: every `cp_fanin`-shaped
        host (a 3 000-flow trace split 32 ways, ~900 packets each into
        a 3.4 MB Deltoid) ships under a tenth of its sketch, and a
        full sketch pays nothing for the option."""
        trace = generate_trace(TraceConfig(num_flows=3000, seed=2017))
        task = HeavyHitterTask("deltoid", threshold=1000)
        for shard in trace.partition(32):
            host = Host(0, task.create_sketch(seed=1), fastpath_bytes=8192)
            frame = encode_report(host.run_epoch(shard))
            assert len(frame) < 256 << 10
        fresh = Host(0, task.create_sketch(seed=1)).run_epoch(Trace([]))
        assert len(encode_report(fresh)) < 4 << 10

        full = CountMinSketch(width=4096, depth=4, seed=1)
        saturate(full, seed=1)
        counter_bytes = sum(a.nbytes for a in arrays_in(full))
        frame = encode_report(LocalReport(0, full, None, fresh.switch))
        assert counter_bytes <= len(frame) < 1.01 * counter_bytes


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


def _three_rows():
    return snapshot_of(
        [(make_flow(index), 1.5, 100.0 * index, 0.25) for index in (1, 2, 3)],
        total_bytes=600,
    )


def _reordered(snapshot):
    return dataclasses.replace(
        snapshot, hi=snapshot.hi[::-1].copy(), lo=snapshot.lo[::-1].copy()
    )


def _duplicated(snapshot):
    """The first row twice."""
    columns = {name: getattr(snapshot, name) for name in snapshot.COLUMNS}
    return dataclasses.replace(
        snapshot,
        **{name: np.append(c[:1], c) for name, c in columns.items()},
    )


def _with(name, index, value):
    def bad(snapshot):
        column = getattr(snapshot, name).copy()
        column[index] = value
        return dataclasses.replace(snapshot, **{name: column})

    return bad


#: Snapshots no fast path or fold builds, each refused at decode.
MALFORMED = {
    "unequal_lengths": lambda s: dataclasses.replace(s, e=s.e[:-1].copy()),
    "hi_not_uint64": lambda s: dataclasses.replace(s, hi=s.hi.view(np.int64)),
    "r_not_float64": lambda s: dataclasses.replace(s, r=s.r.astype("f4")),
    "lo_big_endian": lambda s: dataclasses.replace(s, lo=s.lo.astype(">u8")),
    "two_dimensional": lambda s: dataclasses.replace(s, d=s.d.reshape(1, -1)),
    "hi_above_40_bits": _with("hi", -1, 1 << 40),
    "rows_out_of_order": _reordered,
    "rows_repeated": _duplicated,
    "e_infinite": _with("e", 0, np.inf),
    "r_nan": _with("r", 1, np.nan),
    "d_negative": _with("d", 2, -0.5),
}


class TestMalformedSnapshot:
    """A snapshot's columns are checked where a frame is decoded: two
    rows of one header, or a ``hi`` word past 40 bits (read back as
    another header), would otherwise split or alias a flow."""

    def _frame(self, report, snapshot):
        bad = LocalReport(
            report.host_id, report.sketch, snapshot, report.switch
        )
        return encode_frame(
            struct.Struct(">4sBIIII"),
            b"SKVR",
            3,
            report.host_id,
            0,
            obj=bad,
        )

    def test_well_formed_snapshot_decodes(self, report):
        snapshot = _three_rows()
        restored = decode_report(self._frame(report, snapshot))
        assert restored.fastpath.rows() == snapshot.rows()

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_refused(self, report, kind):
        snapshot = MALFORMED[kind](_three_rows())
        with pytest.raises(CorruptFrameError):
            decode_report(self._frame(report, snapshot))


class TestNoFlowKeyOnTheWire:
    def test_overloaded_epoch_frames_name_no_flow_key(self):
        """A report is arrays and scalars: over a 4-host FlowRadar
        epoch sent as fast as possible, where every host diverts
        flows to its fast path, no frame pickles a ``FlowKey``."""
        trace = generate_trace(TraceConfig(num_flows=10_000, seed=7))
        truth = GroundTruth.from_trace(trace)
        pipeline = SketchVisorPipeline(
            HeavyHitterTask("flowradar", threshold=0.005 * truth.total_bytes),
            DataPlaneMode.SKETCHVISOR,
            config=PipelineConfig(num_hosts=4),
        )
        result = pipeline.run_epoch(trace, truth)
        assert len(result.reports) == 4
        for report in result.reports:
            assert report.sketch is not None
            assert report.fastpath.tracked
            assert report.switch.fastpath_flow_count
            assert b"FlowKey" not in encode_report(report, epoch=1)


class TestFrameV2:
    """What the CRC-checked header has promised since v2 (the class
    keeps that name); v1 and v2 themselves are unsupported versions."""

    def test_header_carries_host_and_epoch(self, report):
        frame = encode_report(report, epoch=17)
        header = peek_header(frame)
        assert header.host_id == report.host_id
        assert header.epoch == 17
        assert header.length == len(frame) - header.size

    def test_v1_frame_rejected_everywhere(self, report):
        """The pre-CRC v1 layout and the dense-pickle v2 layout are
        unsupported versions: alone, mid-stream, at the collector and
        at the socket assembler."""
        payload = pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL)
        old_frames = {
            1: struct.pack(">4sBI", b"SKVR", 1, len(payload)) + payload,
            2: frame_of(payload, version=2, host=report.host_id),
        }
        for version, old in old_frames.items():
            rejection = f"version {version}"
            with pytest.raises(CorruptFrameError, match=rejection):
                decode_report(old)
            with pytest.raises(CorruptFrameError, match=rejection):
                decode_stream(encode_report(report, epoch=3) + old)
            result = ReportCollector(max_retries=1).collect(
                {report.host_id: old}, epoch=0
            )
            assert result.missing_hosts == [report.host_id]
            assert result.stats.corrupt_frames == 2
            assembler = FrameAssembler()
            assert len(assembler.feed(encode_report(report))) == 1
            with pytest.raises(CorruptFrameError, match=rejection):
                assembler.feed(old)

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
            assert restored.fastpath.rows() == report.fastpath.rows()

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

    def test_pre_column_flowradar_is_refused_not_half_loaded(self, report):
        """A host still sending FlowRadar's ``flow_xor`` list gets a
        corrupt-frame verdict (so a NAK), not a controller that dies
        with ``AttributeError`` in the merge."""
        frame = encode_report(
            dataclasses.replace(report, sketch=pre_column_flowradar())
        )
        with pytest.raises(CorruptFrameError, match="word columns"):
            decode_report(frame)

    def test_garbage_payload_with_valid_crc_rejected(self):
        payload = b"\x99" * 64  # neither an array section nor a pickle
        with pytest.raises(CorruptFrameError, match="array section"):
            decode_report(frame_of(payload))

    @pytest.mark.parametrize(
        "build, rejection",
        [
            # A 60-byte frame declaring a terabyte: refused unallocated.
            (
                lambda env: array_section((SPARSE, 1 << 40, 0, b""))
                + env[:22],
                "ceiling",
            ),
            (
                lambda env: array_section(
                    (SPARSE, 40 << 20, 0, b""), (SPARSE, 40 << 20, 0, b"")
                )
                + env,
                "ceiling",
            ),
            (lambda env: struct.pack("<I", 1), "ends inside descriptor"),
            (
                lambda env: array_section((DENSE, 100, 0, b"\x01" * 10)),
                "only 10 remain",
            ),
            (
                lambda env: array_section(
                    (SPARSE, 8192, 100, b"\x00" * 50)
                ),
                "declares 1200 stored bytes but only 50 remain",
            ),
            (
                lambda env: array_section(
                    (SPARSE, 2048, 1, sparse_data([256], [1]))
                )
                + env,
                "below 256",
            ),
            (
                lambda env: array_section(
                    (SPARSE, 2048, 2, sparse_data([5, 5], [1, 2]))
                )
                + env,
                "strictly increasing",
            ),
            (
                lambda env: array_section(
                    (SPARSE, 2048, 2, sparse_data([7, 3], [1, 2]))
                )
                + env,
                "strictly increasing",
            ),
            (
                lambda env: array_section((7, 8, 0, b"\x00" * 8)) + env,
                "unknown kind 7",
            ),
            (
                lambda env: array_section((DENSE, 8, 1, b"\x00" * 8))
                + env,
                "inconsistent",
            ),
            (
                lambda env: array_section((SPARSE, 2052, 0, b"")) + env,
                "inconsistent",
            ),
            (
                lambda env: array_section((DENSE, 8, 0, b"\x00" * 8))
                + env,
                "more than the envelope uses",
            ),
            (
                lambda env: array_section((SPARSE, 0, 0, b"")) + env,
                "more than the envelope uses",
            ),
            (
                lambda env: array_section()
                + pickle.dumps(
                    np.zeros(4), protocol=5, buffer_callback=lambda _: None
                ),
                "not a valid pickle",
            ),
            (lambda env: array_section() + env + b"\x00", "trailing"),
        ],
        ids=[
            "declared-terabyte",
            "declared-sum",
            "descriptor-outside-payload",
            "dense-bytes-outside-payload",
            "sparse-entries-outside-payload",
            "index-out-of-range",
            "index-repeated",
            "index-decreasing",
            "unknown-kind",
            "dense-with-nnz",
            "sparse-of-ragged-length",
            "buffer-unused",
            "sparse-empty-unused",
            "buffer-missing",
            "trailing-bytes",
        ],
    )
    def test_malformed_payload_with_valid_crc_rejected(
        self, build, rejection
    ):
        """One case per decoder rule.  Every frame's CRC is right, so
        it is the payload parser and not the checksum that refuses."""
        frame = frame_of(build(pickle.dumps(None, protocol=5)))
        with pytest.raises(CorruptFrameError, match=rejection):
            decode_report(frame)


class TestRestrictedUnpickler:
    def _frame(self, envelope: bytes) -> bytes:
        return frame_of(array_section() + envelope)

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


class _Foreign:
    """A class from outside the unpickler's allowlist."""


def _reframed(frame: bytes, payload: bytes) -> bytes:
    """``frame``'s header around ``payload``, length and CRC right."""
    header = peek_header(frame)
    return frame_of(payload, host=header.host_id)


def _bad_index(frame: bytes) -> bytes:
    """The first sparse buffer's second index repeats its first."""
    payload = bytearray(frame[peek_header(frame).size :])
    kind, _nbytes, nnz = struct.unpack_from("<BQI", payload, 4)
    assert kind == SPARSE and nnz >= 2
    first = 4 + struct.calcsize("<BQI")
    payload[first + 4 : first + 8] = payload[first : first + 4]
    return _reframed(frame, bytes(payload))


def _rebuilt(frame: bytes, **changes) -> bytes:
    report = decode_report(frame)
    fields = dict(
        host_id=report.host_id,
        sketch=report.sketch,
        fastpath=report.fastpath,
        switch=report.switch,
    )
    fields.update(changes)
    return encode_frame(
        struct.Struct(">4sBIIII"),
        b"SKVR",
        3,
        report.host_id,
        0,
        obj=LocalReport(**fields),
    )


#: Frames refused where they are checked, each built from a good one.
REFUSED = {
    "bad_index": _bad_index,
    "foreign_class": lambda frame: _rebuilt(frame, switch=_Foreign()),
    "bad_snapshot": lambda frame: _rebuilt(
        frame, fastpath=_reordered(_three_rows())
    ),
}


class TestFoldFromSections:
    """An aggregator folds each accepted frame's sparse sections into
    its running merge, so one dense sketch — the merge — is all it
    builds; a frame it refuses leaves that merge as it was."""

    @pytest.fixture(scope="class")
    def fanin_frames(self):
        """One ``cp_fanin``-shaped epoch: 32 hosts' frames of the
        deployed Deltoid (3.4 MB dense) over 3000 flows."""
        trace = generate_trace(TraceConfig(num_flows=3000, seed=23))
        build = registry_solutions()["deltoid"]
        return [
            encode_report(Host(host_id, build(seed=1)).run_epoch(shard), 0)
            for host_id, shard in enumerate(trace.partition(32))
        ]

    def test_one_aggregator_builds_about_one_sketch(self, fanin_frames):
        dense = sum(
            array.nbytes
            for array, _op in decode_report(fanin_frames[0]).sketch.fold_buffers()
        )
        aggregator = Aggregator(0)
        seen: set = set()
        stats = CollectionStats()
        tracemalloc.start()
        try:
            for frame in fanin_frames:
                verdict, report = accept_frame(frame, 0, seen, stats)
                assert verdict == ACK
                aggregator.add(report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert aggregator.peak_resident == 1
        assert dense <= peak < 1.25 * dense

    @pytest.mark.parametrize("kind", sorted(REFUSED))
    def test_a_refused_frame_leaves_the_merge_as_it_was(
        self, fanin_frames, kind
    ):
        k = 3
        aggregator = Aggregator(0)
        seen: set = set()
        stats = CollectionStats()
        for frame in fanin_frames[:k]:
            verdict, report = accept_frame(frame, 0, seen, stats)
            aggregator.add(report)
        before = [a.tobytes() for a, _op in aggregator.sketch.fold_buffers()]
        bad = REFUSED[kind](fanin_frames[k])
        assert accept_frame(bad, 0, seen, stats) == (NAK_CORRUPT, None)
        assert stats.corrupt_frames == 1
        # Folding it anyway runs the same checks before anything lands.
        handed = LocalReport(k, None, None, SwitchReport())
        handed.hand_off(bad)
        with pytest.raises(ConfigError):
            aggregator.add(handed)
        after = [a.tobytes() for a, _op in aggregator.sketch.fold_buffers()]
        assert after == before
        assert aggregator.host_ids == list(range(k))
