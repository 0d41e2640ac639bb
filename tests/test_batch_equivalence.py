"""Engine equivalence: vectorized paths must be bit-identical.

The chunked data plane's whole correctness story is that counter state
is order-insensitive within an epoch, so deferring sketch updates into
one vectorized call per chunk changes *nothing observable*.  These
tests pin that down at three levels: sketch counters, merge/round-trip,
and full switch reports against the per-packet oracle
(``tests/reference_engine.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.flow import FlowKey, Packet
from repro.dataplane.cost_model import CostModel
from repro.dataplane.switch import SoftwareSwitch
from repro.fastpath.topk import FastPath
from repro.framework.modes import DataPlaneMode
from repro.framework.pipeline import PipelineConfig, SketchVisorPipeline
from repro.sketches.bloom import BloomFilter, CountingBloomFilter
from repro.sketches.cardinality import (
    FMSketch,
    HyperLogLog,
    KMinSketch,
    LinearCounting,
)
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.deltoid import Deltoid
from repro.sketches.flowradar import FlowRadar
from repro.sketches.mrac import MRAC
from repro.sketches.revsketch import ReversibleSketch
from repro.sketches.univmon import UnivMon
from repro.tasks.heavy_hitter import HeavyHitterTask
from repro.traffic.generator import TraceConfig, generate_trace
from repro.traffic.groundtruth import GroundTruth
from repro.traffic.trace import Trace
from tests.reference_engine import reference_reports, reference_run

SKETCH_FACTORIES = {
    "countmin": lambda: CountMinSketch(width=512, depth=4, seed=5),
    "countsketch": lambda: CountSketch(width=512, depth=5, seed=5),
    "mrac": lambda: MRAC(width=512, seed=5),
    "fm": lambda: FMSketch(num_registers=64, depth=3, seed=5),
    "hll": lambda: HyperLogLog(num_registers=64, seed=5),
    "lc": lambda: LinearCounting(width=512, depth=4, seed=5),
    "kmin": lambda: KMinSketch(k=64, depth=3, seed=5),
}


@pytest.fixture(scope="module")
def trace():
    return generate_trace(TraceConfig(num_flows=700, seed=9))


@pytest.mark.parametrize("name", sorted(SKETCH_FACTORIES))
def test_update_batch_bit_identical(trace, name):
    factory = SKETCH_FACTORIES[name]
    scalar, batch = factory(), factory()
    for packet in trace:
        scalar.update(packet.flow, packet.size)
    batch.update_batch(trace.key64, trace.sizes)
    assert np.array_equal(scalar.to_matrix(), batch.to_matrix())


@pytest.mark.parametrize("name", sorted(SKETCH_FACTORIES))
def test_merge_and_roundtrip_after_batch(trace, name):
    factory = SKETCH_FACTORIES[name]
    half = len(trace) // 2
    # Scalar reference over the whole trace.
    scalar = factory()
    for packet in trace:
        scalar.update(packet.flow, packet.size)
    # Two batch-built halves, merged.
    first, second = factory(), factory()
    first.update_batch(trace.key64[:half], trace.sizes[:half])
    second.update_batch(trace.key64[half:], trace.sizes[half:])
    first.merge(second)
    assert np.array_equal(scalar.to_matrix(), first.to_matrix())
    # Recovery round-trip: to_matrix -> load_matrix reproduces counters.
    restored = factory()
    restored.load_matrix(first.to_matrix())
    assert np.array_equal(restored.to_matrix(), first.to_matrix())


def test_bloom_filter_batch(trace):
    scalar, batch = BloomFilter(4096, seed=2), BloomFilter(4096, seed=2)
    keys = trace.key64
    for key in keys.tolist():
        scalar.add(key)
    batch.add_batch(keys)
    assert np.array_equal(scalar.bits, batch.bits)


def test_counting_bloom_batch(trace):
    scalar = CountingBloomFilter(4096, seed=2)
    batch = CountingBloomFilter(4096, seed=2)
    for key, size in zip(trace.key64.tolist(), trace.sizes.tolist()):
        scalar.add(key, size)
    batch.add_batch(trace.key64, trace.sizes)
    assert np.array_equal(scalar.counters, batch.counters)


def test_update_batch_rejects_header_dependent_sketches():
    for sketch in (UnivMon(seed=1), FlowRadar(seed=1), Deltoid(seed=1)):
        with pytest.raises(NotImplementedError, match="update_trace"):
            sketch.update_batch(
                np.zeros(1, dtype=np.uint64), np.ones(1, dtype=np.int64)
            )


# ----------------------------------------------------------------------
# Reversible heavy-hitter sketches: the update_trace kernels must leave
# the *whole* internal state (XOR fields, Bloom bits, bit counters — not
# just to_matrix()) exactly as the per-packet loop does.
# ----------------------------------------------------------------------
def _small_flowradar(**overrides):
    config = dict(bloom_bits=20_000, num_cells=4_000, seed=5)
    return FlowRadar(**{**config, **overrides})


REVERSIBLE_FACTORIES = {
    "flowradar": _small_flowradar,
    "flowradar_packets": lambda: _small_flowradar(count_packets=True),
    # 700 flows x 4 hashes into 512 bits: the filter saturates, so most
    # new-flow decisions are false positives that depend on the order.
    "flowradar_tiny_bloom": lambda: _small_flowradar(bloom_bits=512),
    "deltoid": lambda: Deltoid(width=256, depth=3, seed=5),
    "revsketch": lambda: ReversibleSketch(seed=5),
}
REVERSIBLE_NAMES = sorted(REVERSIBLE_FACTORIES)


def _full_state(sketch) -> dict:
    if isinstance(sketch, FlowRadar):
        return {
            "flow_xor": np.array(sketch.flow_xor, dtype=object),
            "flow_count": sketch.flow_count,
            "byte_count": sketch.byte_count,
            "bloom_bits": sketch.bloom.bits,
        }
    if isinstance(sketch, Deltoid):
        return {"totals": sketch.totals, "bits": sketch.bits}
    return {"counters": sketch.counters}


def _assert_same_state(reference, candidate):
    expected, actual = _full_state(reference), _full_state(candidate)
    for field, value in expected.items():
        assert value.dtype == actual[field].dtype, field
        assert np.array_equal(value, actual[field]), field


def _scalar_reference(factory, trace, indices=None):
    sketch = factory()
    packets = trace.packets
    for index in range(len(packets)) if indices is None else indices:
        sketch.update(packets[index].flow, packets[index].size)
    return sketch


@pytest.mark.parametrize("name", REVERSIBLE_NAMES)
def test_update_trace_whole_trace(trace, name):
    factory = REVERSIBLE_FACTORIES[name]
    kernel = factory()
    kernel.update_trace(trace)
    _assert_same_state(_scalar_reference(factory, trace), kernel)


@pytest.mark.parametrize("name", REVERSIBLE_NAMES)
def test_update_trace_chunked(trace, name):
    """State carried across calls: later chunks see earlier Bloom bits."""
    factory = REVERSIBLE_FACTORIES[name]
    n = len(trace)
    cuts = [0, 1, 18, n // 3, n // 3, n // 2 + 7, n - 2, n]
    kernel = factory()
    for low, high in zip(cuts, cuts[1:]):
        kernel.update_trace(trace, np.arange(low, high, dtype=np.intp))
    _assert_same_state(_scalar_reference(factory, trace), kernel)


@pytest.mark.parametrize("name", REVERSIBLE_NAMES)
def test_update_trace_sparse_indices(trace, name):
    """The overload case: only some packets reach the normal path."""
    factory = REVERSIBLE_FACTORIES[name]
    rng = np.random.default_rng(3)
    indices = np.flatnonzero(rng.random(len(trace)) < 0.4)
    kernel = factory()
    kernel.update_trace(trace, indices)
    _assert_same_state(
        _scalar_reference(factory, trace, indices.tolist()), kernel
    )


@pytest.mark.parametrize("name", REVERSIBLE_NAMES)
def test_update_trace_empty_batch(trace, name):
    factory = REVERSIBLE_FACTORIES[name]
    kernel = factory()
    kernel.update_trace(trace, np.empty(0, dtype=np.intp))
    kernel.update_trace(Trace([]))
    _assert_same_state(factory(), kernel)


def test_tiny_bloom_forces_false_positives(trace):
    """Guard: the tiny-Bloom case above must exercise insertion order."""
    sketch = _scalar_reference(
        REVERSIBLE_FACTORIES["flowradar_tiny_bloom"], trace
    )
    recorded = int(sketch.flow_count.sum()) // sketch.num_hashes
    assert 0 < recorded < len(trace.flows()) // 2


def test_deltoid_kernel_separates_key64_collisions():
    """Two headers with one 64-bit fold keep their own bit counters."""
    first = FlowKey(1, 9, 3000, 0)
    second = FlowKey(0, 9, 3000, 1)
    assert first.key64 == second.key64 and first != second
    trace = Trace(
        [
            Packet(flow, size, index * 1e-4)
            for index, (flow, size) in enumerate(
                [(first, 100), (second, 70), (first, 40), (second, 900)]
            )
        ]
    )
    factory = REVERSIBLE_FACTORIES["deltoid"]
    kernel = factory()
    kernel.update_trace(trace)
    _assert_same_state(_scalar_reference(factory, trace), kernel)


PROPERTY_FACTORIES = {
    # 26 flows x 2 hashes into 48 bits: false positives in most draws.
    "flowradar": lambda: FlowRadar(
        bloom_bits=48, num_cells=64, num_hashes=2, seed=2
    ),
    "deltoid": lambda: Deltoid(width=8, depth=2, seed=2),
    "revsketch": lambda: ReversibleSketch(depth=2, seed=2),
}


@pytest.mark.parametrize("name", sorted(PROPERTY_FACTORIES))
@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 25), st.integers(64, 1500)),
        max_size=150,
    ),
    split=st.integers(0, 150),
)
def test_update_trace_property(name, pairs, split):
    """Any packet sequence, any split point: kernel == per-packet loop.

    Every packet carries its own FlowKey object, as traces read from
    files do, so grouping cannot lean on object identity.
    """
    trace = Trace(
        [
            Packet(
                FlowKey(1000 + flow, 2000 + flow % 7, 3000, 80),
                size,
                index * 1e-4,
            )
            for index, (flow, size) in enumerate(pairs)
        ]
    )
    factory = PROPERTY_FACTORIES[name]
    split = min(split, len(trace))
    kernel = factory()
    kernel.update_trace(trace, np.arange(split, dtype=np.intp))
    kernel.update_trace(trace, np.arange(split, len(trace), dtype=np.intp))
    _assert_same_state(_scalar_reference(factory, trace), kernel)


# ----------------------------------------------------------------------
# Switch level: the chunked engine must reproduce the per-packet
# oracle (tests/reference_engine.py) exactly — report and sketch.
# ----------------------------------------------------------------------
def _run_switch(trace, *, ideal, fastpath_bytes, offered, factory):
    sketch = factory()
    fastpath = FastPath(fastpath_bytes) if fastpath_bytes else None
    switch = SoftwareSwitch(
        sketch,
        fastpath=fastpath,
        cost_model=CostModel.in_memory(),
        buffer_packets=64,
        ideal=ideal,
    )
    return switch.process(trace, offered), sketch


def _run_oracle(trace, *, ideal, fastpath_bytes, offered, factory):
    sketch = factory()
    report = reference_run(
        trace,
        sketch,
        FastPath(fastpath_bytes) if fastpath_bytes else None,
        cost_model=CostModel.in_memory(),
        buffer_packets=64,
        ideal=ideal,
        offered_gbps=offered,
    )
    return report, sketch


def _assert_reports_equal(oracle_report, engine_report):
    for name in (
        "total_packets",
        "total_bytes",
        "normal_packets",
        "normal_bytes",
        "fastpath_packets",
        "fastpath_bytes",
        "producer_cycles",
        "consumer_cycles",
        "makespan_cycles",
        "throughput_gbps",
        "buffer_high_water",
    ):
        assert getattr(oracle_report, name) == getattr(
            engine_report, name
        ), name
    # The oracle counts the flow sets it keeps.
    assert oracle_report.flow_count == engine_report.flow_count
    assert (
        oracle_report.fastpath_flow_count
        == engine_report.fastpath_flow_count
    )


@pytest.mark.parametrize(
    "ideal,fastpath_bytes,offered",
    [
        (True, None, None),
        (True, None, 20.0),
        (False, 2048, None),  # SketchVisor, fast path engaged
        (False, 2048, 40.0),
        (False, None, None),  # NoFastPath (blocking)
    ],
)
@pytest.mark.parametrize("name", ["countmin", "mrac", "countsketch"])
def test_switch_batch_reproduces_scalar_report(
    trace, name, ideal, fastpath_bytes, offered
):
    arm = dict(
        ideal=ideal,
        fastpath_bytes=fastpath_bytes,
        offered=offered,
        factory=SKETCH_FACTORIES[name],
    )
    oracle_report, oracle_sketch = _run_oracle(trace, **arm)
    engine_report, engine_sketch = _run_switch(trace, **arm)
    _assert_reports_equal(oracle_report, engine_report)
    assert np.array_equal(
        oracle_sketch.to_matrix(), engine_sketch.to_matrix()
    )


@pytest.mark.parametrize(
    "ideal,fastpath_bytes,offered",
    [
        # Ideal mode applies the whole trace (``indices=None``): the
        # accuracy-yardstick arms get the kernels too.
        (True, None, None),
        (False, 2048, None),  # overload: fast path engaged
        (False, 2048, 40.0),
    ],
)
@pytest.mark.parametrize("name", REVERSIBLE_NAMES)
def test_switch_batch_reversible_full_state(
    trace, name, ideal, fastpath_bytes, offered
):
    arm = dict(
        ideal=ideal,
        fastpath_bytes=fastpath_bytes,
        offered=offered,
        factory=REVERSIBLE_FACTORIES[name],
    )
    oracle_report, oracle_sketch = _run_oracle(trace, **arm)
    engine_report, engine_sketch = _run_switch(trace, **arm)
    _assert_reports_equal(oracle_report, engine_report)
    assert ideal or 0 < engine_report.fastpath_packets < len(trace)
    _assert_same_state(oracle_sketch, engine_sketch)


def test_switch_batch_fastpath_actually_engaged(trace):
    """Guard: the SketchVisor arm above must exercise overflow routing."""
    report, _ = _run_switch(
        trace,
        ideal=False,
        fastpath_bytes=2048,
        offered=None,
        factory=SKETCH_FACTORIES["countmin"],
    )
    assert report.fastpath_packets > 0


def test_switch_batch_scalar_fallback_sketch(trace):
    """UnivMon has no kernel: the default update_trace loop, identical."""
    arm = dict(
        ideal=False,
        fastpath_bytes=2048,
        offered=None,
        factory=lambda: UnivMon(seed=3),
    )
    oracle_report, oracle_sketch = _run_oracle(trace, **arm)
    engine_report, engine_sketch = _run_switch(trace, **arm)
    _assert_reports_equal(oracle_report, engine_report)
    assert np.array_equal(
        oracle_sketch.to_matrix(), engine_sketch.to_matrix()
    )


def test_switch_batch_empty_trace():
    arm = dict(
        ideal=True,
        fastpath_bytes=None,
        offered=None,
        factory=SKETCH_FACTORIES["countmin"],
    )
    oracle_report, _ = _run_oracle(Trace([]), **arm)
    engine_report, _ = _run_switch(Trace([]), **arm)
    _assert_reports_equal(oracle_report, engine_report)


# ----------------------------------------------------------------------
# Pipeline level: every host's report is the oracle's over that host's
# shard.
# ----------------------------------------------------------------------
def test_pipeline_hosts_match_oracle(trace):
    truth = GroundTruth.from_trace(trace)
    result = SketchVisorPipeline(
        HeavyHitterTask("univmon", threshold=0.001),
        dataplane=DataPlaneMode.SKETCHVISOR,
        config=PipelineConfig(num_hosts=2),
    ).run_epoch(trace, truth)
    oracle = reference_reports(
        HeavyHitterTask("univmon", threshold=0.001),
        trace,
        PipelineConfig(num_hosts=2),
    )
    assert len(result.reports) == len(oracle) == 2
    for expected, actual in zip(oracle, result.reports):
        _assert_reports_equal(expected.switch, actual.switch)
        assert np.array_equal(
            expected.sketch.to_matrix(), actual.sketch.to_matrix()
        )


# ----------------------------------------------------------------------
# Columnar trace + cached key64 invariants the batch engine relies on.
# ----------------------------------------------------------------------
def test_trace_columns_match_packets(trace):
    assert np.array_equal(
        trace.key64,
        np.array([p.flow.key64 for p in trace], dtype=np.uint64),
    )
    assert np.array_equal(
        trace.sizes, np.array([p.size for p in trace], dtype=np.int64)
    )
    assert np.array_equal(
        trace.timestamps, np.array([p.timestamp for p in trace])
    )
    # Columns are cached (same object) and read-only.
    assert trace.key64 is trace.key64
    with pytest.raises(ValueError):
        trace.key64[0] = 0


def test_partition_shards_inherit_columns(trace):
    shards = trace.partition(3)
    assert sum(len(s) for s in shards) == len(trace)
    for shard in shards:
        assert np.array_equal(
            shard.key64,
            np.array([p.flow.key64 for p in shard], dtype=np.uint64),
        )
        assert np.array_equal(
            shard.sizes, np.array([p.size for p in shard])
        )


def test_flowkey_key64_precomputed():
    key = FlowKey(0x0A000001, 0x0A000002, 1234, 80)
    # The cached slot exists and equals the documented fold formula.
    from repro.common.hashing import mix64

    packed = key.key104
    expected = mix64((packed >> 64) ^ (packed & ((1 << 64) - 1)))
    assert key._key64 == expected
    assert key.key64 == expected
    # Cache is excluded from equality/hash.
    assert key == FlowKey(0x0A000001, 0x0A000002, 1234, 80)
    assert hash(key) == hash(FlowKey(0x0A000001, 0x0A000002, 1234, 80))
