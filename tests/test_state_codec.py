"""StateCodec round-trip properties across every sketch type.

The durability contract starts here: if ``decode(encode(x))`` is not
*exactly* ``x`` for every piece of host state, checkpoint/replay cannot
be bit-identical.  These tests sweep every registered sketch type
through the codec — empty, lightly updated, batch-updated, and
saturated — plus the flattened fast-path tables and the full engine
snapshot, and then hammer the frame with the corruptions the CRC is
there to catch.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CorruptSnapshotError
from repro.dataplane.engine import HostEngine
from repro.durability.codec import (
    StateCodec,
    _freeze_fastpath,
    _thaw_fastpath,
)
from repro.fastpath.misra_gries import MisraGriesTopK
from repro.fastpath.space_saving import SpaceSavingTopK
from repro.fastpath.topk import FastPath, TopKTable
from repro.sketches import (
    MRAC,
    CountMinSketch,
    CountSketch,
    Deltoid,
    FlowRadar,
    FMSketch,
    HyperLogLog,
    KMinSketch,
    LinearCounting,
    ReversibleSketch,
    TwoLevelSketch,
    UnivMon,
)
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.traffic.generator import TraceConfig, generate_trace
from tests.conftest import (
    FILLS,
    adversarial_arrays,
    assert_exact_unaliased_round_trip,
    fill_sketch,
    make_flow,
    pre_column_flowradar,
)
from tests.reference_engine import reference_run

#: Small instances of every registered sketch type (§ Table 1), sized
#: for test speed — the codec is structure-generic, so small is enough.
SKETCH_FACTORIES = {
    "countmin": lambda: CountMinSketch(width=64, depth=3, seed=3),
    "countsketch": lambda: CountSketch(width=64, depth=3, seed=3),
    "deltoid": lambda: Deltoid(seed=3),
    "revsketch": lambda: ReversibleSketch(seed=3),
    "flowradar": lambda: FlowRadar(
        bloom_bits=2048, num_cells=512, seed=3
    ),
    "univmon": lambda: UnivMon(
        level_widths=(64, 32, 16), depth=3, heap_size=20, seed=3
    ),
    "twolevel": lambda: TwoLevelSketch(seed=3),
    "mrac": lambda: MRAC(seed=3),
    "fm": lambda: FMSketch(seed=3),
    "hll": lambda: HyperLogLog(seed=3),
    "kmin": lambda: KMinSketch(seed=3),
    "linear": lambda: LinearCounting(seed=3),
}


def state_equal(a, b, path="") -> bool:
    """Recursive exact equality over arbitrary repro state objects."""
    if type(a) is not type(b):
        return False
    if isinstance(a, TopKTable):
        # The logical table (rows with order as exact floats, ``V``,
        # ``E``, the counters): a restored table may sit in other slots.
        return _freeze_fastpath(a) == _freeze_fastpath(b)
    if isinstance(a, np.ndarray):
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and np.array_equal(a, b)
        )
    if isinstance(a, dict):
        if set(a) != set(b):
            return False
        # Insertion order is load-bearing for fast-path tables.
        if list(a) != list(b):
            return False
        return all(state_equal(a[k], b[k], f"{path}.{k}") for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            state_equal(x, y, f"{path}[]") for x, y in zip(a, b)
        )
    if isinstance(a, (set, frozenset)):
        return a == b
    if hasattr(a, "__dict__"):
        return state_equal(vars(a), vars(b), f"{path}.__dict__")
    if hasattr(a, "__slots__"):
        return all(
            state_equal(
                getattr(a, slot), getattr(b, slot), f"{path}.{slot}"
            )
            for slot in a.__slots__
        )
    return a == b


def updates_strategy(max_size=200):
    """(flow index, byte count) streams over a small flow pool, so
    collisions, kick-outs, and heap churn all actually happen."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=24),
            st.integers(min_value=40, max_value=1500),
        ),
        max_size=max_size,
    )


@pytest.fixture(scope="module")
def codec() -> StateCodec:
    return StateCodec()


class TestSketchRoundTrip:
    @pytest.mark.parametrize("name", sorted(SKETCH_FACTORIES))
    def test_empty_sketch_round_trips(self, codec, name):
        sketch = SKETCH_FACTORIES[name]()
        restored = codec.decode(codec.encode(sketch))
        assert state_equal(sketch, restored), name

    @pytest.mark.parametrize("name", sorted(SKETCH_FACTORIES))
    @settings(max_examples=20, deadline=None)
    @given(updates=updates_strategy())
    def test_updated_sketch_round_trips(self, codec, name, updates):
        sketch = SKETCH_FACTORIES[name]()
        for index, size in updates:
            sketch.update(make_flow(index), size)
        restored = codec.decode(codec.encode(sketch))
        assert state_equal(sketch, restored), name
        assert np.array_equal(sketch.to_matrix(), restored.to_matrix())

    @pytest.mark.parametrize("name", sorted(SKETCH_FACTORIES))
    def test_batch_updated_sketch_round_trips(self, codec, name):
        rng = np.random.default_rng(11)
        keys64 = rng.integers(
            0, 2**63, size=400, dtype=np.uint64
        )
        values = rng.integers(
            40, 1500, size=400
        ).astype(np.float64)
        sketch = SKETCH_FACTORIES[name]()
        if not sketch.key64_updates:
            pytest.skip("sketch has no key64 batch path")
        sketch.update_batch(keys64, values)
        restored = codec.decode(codec.encode(sketch))
        assert state_equal(sketch, restored), name

    @pytest.mark.parametrize("name", sorted(SKETCH_FACTORIES))
    def test_restored_sketch_evolves_identically(self, codec, name):
        """The restored copy must not just *look* equal — it must keep
        behaving identically under further updates (live hash state,
        heaps, etc. all have to survive)."""
        sketch = SKETCH_FACTORIES[name]()
        for index in range(30):
            sketch.update(make_flow(index), 100 + index)
        restored = codec.decode(codec.encode(sketch))
        for index in range(30, 60):
            sketch.update(make_flow(index % 40), 99)
            restored.update(make_flow(index % 40), 99)
        assert state_equal(sketch, restored), name


    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(SKETCH_FACTORIES)),
        fill=st.sampled_from(FILLS),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_is_exact_and_unaliased(
        self, codec, name, fill, seed
    ):
        assert_exact_unaliased_round_trip(
            fill_sketch(SKETCH_FACTORIES[name](), fill, seed),
            codec.encode,
            codec.decode,
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        density=st.sampled_from([0.0, 0.01, 0.04, 0.05, 0.5, 1.0]),
    )
    def test_adversarial_arrays_round_trip(self, codec, seed, density):
        assert_exact_unaliased_round_trip(
            adversarial_arrays(seed, density), codec.encode, codec.decode
        )


class TestFastPathRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(updates=updates_strategy())
    def test_sketchvisor_fastpath(self, updates):
        fastpath = FastPath(memory_bytes=512)  # tiny → kick-outs
        for index, size in updates:
            fastpath.update(make_flow(index), size)
        restored = _thaw_fastpath(_freeze_fastpath(fastpath))
        assert state_equal(fastpath, restored)
        assert restored.rows() == fastpath.rows()

    @settings(max_examples=25, deadline=None)
    @given(updates=updates_strategy())
    def test_misra_gries_fastpath(self, updates):
        fastpath = MisraGriesTopK(memory_bytes=256)
        for index, size in updates:
            fastpath.update(make_flow(index), size)
        restored = _thaw_fastpath(_freeze_fastpath(fastpath))
        assert state_equal(fastpath, restored)

    @settings(max_examples=25, deadline=None)
    @given(updates=updates_strategy())
    def test_space_saving_fastpath(self, updates):
        fastpath = SpaceSavingTopK(memory_bytes=256)
        for index, size in updates:
            fastpath.update(make_flow(index), size)
        restored = _thaw_fastpath(_freeze_fastpath(fastpath))
        assert state_equal(fastpath, restored)
        assert restored.rows() == fastpath.rows()

    def test_none_fastpath(self):
        assert _thaw_fastpath(_freeze_fastpath(None)) is None

    def test_saturated_fastpath_round_trips(self):
        """A table driven far past capacity (evictions + rejections)."""
        fastpath = FastPath(memory_bytes=256)
        for index in range(500):
            fastpath.update(make_flow(index % 60), 40 + index % 1400)
        assert fastpath.num_kickouts > 0
        restored = _thaw_fastpath(_freeze_fastpath(fastpath))
        assert state_equal(fastpath, restored)


class TestEngineSnapshot:
    def test_mid_epoch_engine_round_trips(self, codec, small_trace):
        engine = HostEngine(
            sketch=CountMinSketch(width=64, depth=3, seed=3),
            fastpath=FastPath(memory_bytes=1024),
            buffer_packets=32,
        )
        engine.run(small_trace, stop_at=len(small_trace) // 2)
        restored = codec.restore_engine(
            codec.snapshot_engine(engine), engine.cost_model
        )
        assert restored.offset == engine.offset
        assert restored.producer == engine.producer
        assert restored.consumer == engine.consumer
        assert state_equal(engine.report, restored.report)
        assert state_equal(engine.sketch, restored.sketch)
        assert state_equal(engine.fastpath, restored.fastpath)
        assert engine.fast_flows.any()
        assert np.array_equal(restored.fast_flows, engine.fast_flows)
        assert restored.fast_flows is not engine.fast_flows
        assert engine.fifo.queue  # a backlog is in flight
        assert list(restored.fifo.queue) == list(engine.fifo.queue)
        assert restored.fifo.high_water == engine.fifo.high_water

    def test_snapshot_carries_the_non_zero_counters_only(self, codec):
        """A checkpoint is as small as a frame: a `cp_fanin`-shaped
        host (one of 32 on a 3 000-flow trace, so one chunk is its
        whole epoch) snapshots its 3.4 MB Deltoid in under 256 KB, bare
        or inside an engine."""
        trace = generate_trace(TraceConfig(num_flows=3000, seed=2017))
        task = HeavyHitterTask("deltoid", threshold=1000)
        engine = HostEngine(
            sketch=task.create_sketch(seed=1),
            fastpath=FastPath(memory_bytes=8192),
        )
        engine.run(trace.partition(32)[0])
        assert engine.sketch.to_matrix().any()
        assert len(codec.encode(engine.sketch)) < 256 << 10
        assert len(codec.snapshot_engine(engine)) < 256 << 10

    def test_resumed_engine_matches_uninterrupted(
        self, codec, small_trace
    ):
        """Snapshot mid-epoch, restore, run to the end: identical to
        the uninterrupted per-packet oracle — the keystone the
        checkpoint layer stands on."""
        oracle_sketch = CountMinSketch(width=64, depth=3, seed=3)
        oracle_fastpath = FastPath(memory_bytes=1024)
        expected = reference_run(
            small_trace, oracle_sketch, oracle_fastpath, buffer_packets=32
        )

        interrupted = HostEngine(
            sketch=CountMinSketch(width=64, depth=3, seed=3),
            fastpath=FastPath(memory_bytes=1024),
            buffer_packets=32,
        )
        interrupted.run(small_trace, stop_at=len(small_trace) // 3)
        resumed = codec.restore_engine(
            codec.snapshot_engine(interrupted), interrupted.cost_model
        )
        actual = resumed.run(small_trace).finish()
        assert state_equal(expected, actual)
        assert state_equal(oracle_sketch, resumed.sketch)
        assert state_equal(oracle_fastpath, resumed.fastpath)


class TestFrameCorruption:
    def _blob(self, codec):
        sketch = CountMinSketch(width=16, depth=2, seed=3)
        sketch.update(make_flow(1), 100)
        return codec.encode(sketch)

    def test_truncated_header(self, codec):
        with pytest.raises(CorruptSnapshotError):
            codec.decode(self._blob(codec)[:4])

    def test_truncated_payload(self, codec):
        with pytest.raises(CorruptSnapshotError):
            codec.decode(self._blob(codec)[:-3])

    def test_bad_magic(self, codec):
        blob = bytearray(self._blob(codec))
        blob[0] ^= 0xFF
        with pytest.raises(CorruptSnapshotError):
            codec.decode(bytes(blob))

    def test_unknown_version(self, codec):
        """Version 1 (the dense-pickle snapshot) is as unknown as 99."""
        for version in (1, 99):
            blob = bytearray(self._blob(codec))
            blob[4] = version
            with pytest.raises(
                CorruptSnapshotError, match=f"version {version}"
            ):
                codec.decode(bytes(blob))

    def test_malformed_payload_is_a_corrupt_snapshot(self, codec):
        """What the shared payload decoder refuses — here a section
        declaring a terabyte, CRC intact — surfaces as this layer's
        error, so restore walks back to the previous checkpoint."""
        payload = struct.pack("<IBQI", 1, 1, 1 << 40, 0)
        blob = (
            struct.pack(
                ">4sBII", b"SKVS", 2, len(payload), zlib.crc32(payload)
            )
            + payload
        )
        with pytest.raises(CorruptSnapshotError, match="ceiling"):
            codec.decode(blob)

    @pytest.mark.parametrize("position", [0.1, 0.5, 0.9])
    def test_payload_bitflip_caught_by_crc(self, codec, position):
        blob = bytearray(self._blob(codec))
        index = codec.header_size + int(
            (len(blob) - codec.header_size) * position
        )
        blob[index] ^= 0x10
        with pytest.raises(CorruptSnapshotError):
            codec.decode(bytes(blob))

    def test_pre_column_flowradar_is_refused_not_half_loaded(self, codec):
        """A checkpoint holding a FlowRadar with a ``flow_xor`` list is
        a corrupt snapshot at decode time — restore walks back — not an
        ``AttributeError`` at the first update."""
        blob = codec.encode({"sketch": pre_column_flowradar()})
        with pytest.raises(CorruptSnapshotError, match="word columns"):
            codec.decode(blob)

    def test_engine_state_of_the_flow_set_format_is_refused(
        self, codec, small_trace
    ):
        """``host-engine/v2`` carried the report's flow sets as header
        lists and no fast-flow mask; such a checkpoint is corrupt, so
        restore walks back past it."""
        engine = HostEngine(
            sketch=CountMinSketch(width=64, depth=3, seed=3),
            fastpath=FastPath(memory_bytes=1024),
            buffer_packets=32,
        )
        engine.run(small_trace, stop_at=len(small_trace) // 2)
        state = codec.decode(codec.snapshot_engine(engine))
        state["format"] = "host-engine/v2"
        del state["fast_flows"]
        state["report"].update(normal_flows=[1 << 80], fastpath_flows=[])
        with pytest.raises(CorruptSnapshotError):
            codec.restore_engine(codec.encode(state), engine.cost_model)

    @pytest.mark.parametrize(
        "mask",
        [np.zeros(8, dtype=np.uint8), np.zeros((2, 4), dtype=bool), [True]],
        ids=["uint8", "two_dimensional", "list"],
    )
    def test_malformed_fast_flow_mask_is_refused(
        self, codec, small_trace, mask
    ):
        engine = HostEngine(
            sketch=CountMinSketch(width=64, depth=3, seed=3),
            fastpath=FastPath(memory_bytes=1024),
        )
        engine.run(small_trace, stop_at=100)
        state = codec.decode(codec.snapshot_engine(engine))
        state["fast_flows"] = mask
        with pytest.raises(CorruptSnapshotError, match="mask"):
            codec.restore_engine(codec.encode(state), engine.cost_model)

    @pytest.mark.parametrize("kind", ["sketchvisor", "misra_gries"])
    def test_fast_path_rows_repeating_a_flow_are_refused(
        self, codec, small_trace, kind
    ):
        """A checkpoint whose fast-path rows name one flow twice would
        restore a smaller table than it claims: restore walks back."""
        engine = self._fast_engine(small_trace, kind)
        state = codec.decode(codec.snapshot_engine(engine))
        entries = state["fastpath"]["entries"]
        assert entries
        state["fastpath"]["entries"] = [entries[0], *entries]
        with pytest.raises(CorruptSnapshotError):
            codec.restore_engine(codec.encode(state), engine.cost_model)

    @pytest.mark.parametrize("kind", ["sketchvisor", "misra_gries"])
    def test_fast_path_rows_over_capacity_are_refused(
        self, codec, small_trace, kind
    ):
        engine = self._fast_engine(small_trace, kind)
        state = codec.decode(codec.snapshot_engine(engine))
        entries = state["fastpath"]["entries"]
        _key, *counters = entries[0]
        state["fastpath"]["entries"] = entries + [
            (make_flow(1000 + index).key104, *counters)
            for index in range(engine.fastpath.capacity + 1)
        ]
        with pytest.raises(CorruptSnapshotError):
            codec.restore_engine(codec.encode(state), engine.cost_model)

    @staticmethod
    def _fast_engine(trace, kind):
        """An engine halfway through ``trace`` with a non-empty fast
        path of ``kind``."""
        make = {"sketchvisor": FastPath, "misra_gries": MisraGriesTopK}
        engine = HostEngine(
            sketch=CountMinSketch(width=64, depth=3, seed=3),
            fastpath=make[kind](memory_bytes=1024),
            buffer_packets=32,
        )
        engine.run(trace, stop_at=len(trace) // 2)
        return engine

    def test_not_an_engine_snapshot(self, codec):
        blob = codec.encode({"format": "something-else"})
        with pytest.raises(CorruptSnapshotError):
            codec.restore_engine(blob, None)
