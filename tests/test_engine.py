"""The chunked engine against the per-packet oracle, as a property.

Whatever the chunking — ``stop_at`` cut points, checkpoint and heartbeat
intervals, a snapshot→restore in the middle — and whatever the arrival
pattern — back-to-back bursts, paced stretches that fill the FIFO
mid-chunk, idle gaps that let it drain — the engine must end exactly
where the uninterrupted per-packet loop (``tests/reference_engine.py``)
ends: the same clocks and FIFO, the same report, the same fast-path
table in the same order, the same encoded sketch.  The routing scan's
max-plus helper is checked against the scalar recurrence on its own.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.flow import FlowKey, Packet
from repro.dataplane.cost_model import CostModel
from repro.dataplane.engine import SCAN_PASSES, HostEngine, max_plus_scan
from repro.durability.codec import StateCodec
from repro.telemetry import ProfileConfig, Telemetry
from repro.fastpath.misra_gries import MisraGriesTopK
from repro.fastpath.topk import ENTRY_BYTES, FastPath, TopKTable
from repro.sketches.countmin import CountMinSketch
from repro.traffic.trace import Trace
from tests.conftest import make_flow
from tests.reference_engine import reference_run
from tests.test_state_codec import state_equal

#: FIFO capacities: one a burst of a few packets fills, one only a long
#: busy run does.
BUFFER_PACKETS = (6, 64)

#: arm -> (fast path factory, ideal, flow pool).  The ``kickouts``
#: arms draw from 200 flows into 4 entries: nearly every fast-path
#: packet misses, and most misses are kick-out passes.
ARMS = {
    "fastpath": (lambda: FastPath(4 * ENTRY_BYTES), False, 31),
    "kickouts": (lambda: FastPath(4 * ENTRY_BYTES), False, 200),
    "misra_gries": (lambda: MisraGriesTopK(4 * ENTRY_BYTES), False, 31),
    "misra_gries_kickouts": (
        lambda: MisraGriesTopK(4 * ENTRY_BYTES),
        False,
        200,
    ),
    "no_fastpath": (lambda: None, False, 31),
    "ideal": (lambda: None, True, 31),
}


def _sketch():
    return CountMinSketch(width=32, depth=2, seed=7)


#: The in-memory profile, and one whose dispatch cost is exactly half
#: the sketch's 310 cycles: back-to-back, a completion then ties with an
#: arrival every other packet (the consumer pops at ``done == now``).
COST_MODELS = (CostModel.in_memory(), CostModel(dispatch_cycles=155.0))

#: Inter-packet gaps (seconds) a stretch of packets is paced at: 0 is a
#: back-to-back burst; the trace is rescaled to the offered rate, so the
#: rest are dense or sparse relative to one another.
GAPS = [0.0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3]


def _packets(length, pool, min_size=1):
    """``(flow index, size)`` rows over a pool of ``pool`` flows: with a
    small pool hits, inserts and kick-outs all happen."""
    return st.lists(
        st.tuples(st.integers(0, pool - 1), st.integers(40, 1500)),
        min_size=min_size,
        max_size=length,
    )


def _per_packet(pool):
    """Up to 300 packets, each with its own gap: arrivals mixed packet
    by packet (many short busy runs and partial drains)."""
    return st.lists(
        st.tuples(_packets(1, pool), st.sampled_from(GAPS)), max_size=300
    )


def _stretches(pool):
    """A few stretches of one gap each: bursts longer than the routing
    scan's pass cap, long paced stretches that fill the FIFO mid-chunk,
    and idle gaps after which the queue has drained."""
    return st.lists(
        st.tuples(_packets(120, pool), st.sampled_from(GAPS)), max_size=6
    )


#: Packets of a trace's leading back-to-back burst, at most: enough to
#: fill either FIFO.
LEAD_BURST = 150


@st.composite
def traces(draw, pool):
    """Timestamps non-decreasing with ties: a leading back-to-back
    burst of a uniformly drawn length, so most traces fill the FIFO,
    then gaps drawn per packet or per stretch."""
    length = draw(st.integers(0, LEAD_BURST))
    packets = [
        Packet(make_flow(index), size, 0.0)
        for index, size in draw(_packets(length, pool, min_size=length))
    ]
    clock = 0.0
    for rows, gap in draw(st.one_of(_per_packet(pool), _stretches(pool))):
        for index, size in rows:
            clock += gap
            packets.append(Packet(make_flow(index), size, clock))
    return Trace(packets)


def _interval(n):
    return st.sampled_from([1, 7, 2048, n + 1])


def _assert_flow_keyed(fastpath, running=False):
    """No flow ordinal leaks out of a run: the fast path's index, its
    key column and its rows name flows.  Between runs (not
    ``running``) the index is the live one, not a copy."""
    if not isinstance(fastpath, TopKTable):
        return
    if not running:
        assert fastpath.slots is fastpath.slots
    assert all(type(flow) is FlowKey for flow in fastpath.slots)
    assert all(
        key is None or type(key) is FlowKey for key in fastpath.keys
    )
    assert [flow for flow, *_ in fastpath.rows()] == list(fastpath.slots)


@pytest.mark.parametrize("offered", [None, 1.0])
@pytest.mark.parametrize("arm", sorted(ARMS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_chunking_equals_the_oracle(arm, offered, data):
    make_fastpath, ideal, pool = ARMS[arm]
    trace = data.draw(traces(pool), "trace")
    n = len(trace)
    buffer_packets = data.draw(st.sampled_from(BUFFER_PACKETS), "buffer")
    cost_model = data.draw(st.sampled_from(COST_MODELS), "cost_model")

    oracle_sketch, oracle_fastpath = _sketch(), make_fastpath()
    end_state = {}
    expected = reference_run(
        trace,
        oracle_sketch,
        oracle_fastpath,
        cost_model=cost_model,
        buffer_packets=buffer_packets,
        ideal=ideal,
        offered_gbps=offered,
        end_state=end_state,
    )

    # Some cuts, and the snapshot→restore, land after the FIFO first
    # fills: the saturated loop then stops and resumes mid-stretch.
    cuts = data.draw(st.lists(st.integers(0, n + 3), max_size=6), "cuts")
    first_full = end_state.pop("first_full")
    normal_flows = end_state.pop("normal_flows")
    fastpath_flows = end_state.pop("fastpath_flows")
    if first_full is not None:
        cuts += data.draw(
            st.lists(st.integers(first_full + 1, n), min_size=1, max_size=3),
            "saturated_cuts",
        )
    cuts.sort()
    saturated = [
        step
        for step in range(1, len(cuts) + 1)
        if first_full is not None and min(cuts[step - 1], n) > first_full
    ]
    restore_at = data.draw(
        st.sampled_from(saturated)
        if saturated
        else st.integers(0, len(cuts)),
        "restore_at",
    )
    checkpoint_every = data.draw(_interval(n), "checkpoint_every")
    codec = StateCodec()

    def engine():
        return HostEngine(
            _sketch(),
            make_fastpath(),
            cost_model=cost_model,
            buffer_packets=buffer_packets,
            ideal=ideal,
        )

    straight = engine().run(trace, offered)
    _assert_flow_keyed(straight.fastpath)

    checkpoints = []

    def on_checkpoint(engine):
        _assert_flow_keyed(engine.fastpath, running=True)
        checkpoints.append(engine.offset)

    hooks = dict(
        checkpoint_every=checkpoint_every, on_checkpoint=on_checkpoint
    )
    chunked = engine()
    for step, cut in enumerate([*cuts, None]):
        if step == restore_at:
            chunked = codec.restore_engine(
                codec.snapshot_engine(chunked), chunked.cost_model
            )
        chunked.run(trace, offered, stop_at=cut, **hooks)
        assert chunked.offset == (n if cut is None else min(cut, n))
        _assert_flow_keyed(chunked.fastpath)

    for candidate in (straight, chunked):
        assert state_equal(
            end_state,
            dict(
                producer=candidate.producer,
                consumer=candidate.consumer,
                queue=list(candidate.fifo.queue),
                high_water=candidate.fifo.high_water,
            ),
        )
        report = candidate.finish()
        assert state_equal(expected, report)
        assert report.flow_count == len(normal_flows | fastpath_flows)
        assert report.fastpath_flow_count == len(fastpath_flows)
        assert codec.encode(candidate.sketch) == codec.encode(
            oracle_sketch
        )
        # vars(): rows in order, V/E and every operation counter.
        assert state_equal(oracle_fastpath, candidate.fastpath)
    if isinstance(oracle_fastpath, FastPath):
        assert (
            chunked.fastpath.snapshot().rows()
            == oracle_fastpath.snapshot().rows()
        )
    # The hook fires once per absolute boundary, resumed or not.
    assert checkpoints == list(
        range(checkpoint_every, n, checkpoint_every)
    )


def test_hooks_see_the_chunk_applied(small_trace):
    """State is written back before a hook fires: at every checkpoint
    the report, the sketch and the offset agree on what was consumed."""
    seen = []

    def on_checkpoint(engine):
        report = engine.report
        assert report.total_packets == engine.offset
        assert (
            report.normal_packets + report.fastpath_packets
            == engine.offset
        )
        assert engine.sketch.counters[0].sum() == report.normal_bytes
        assert engine.fastpath.total_bytes == report.fastpath_bytes
        seen.append(engine.offset)

    engine = HostEngine(
        CountMinSketch(width=64, depth=3, seed=3),
        FastPath(1024),
        buffer_packets=32,
    )
    engine.run(
        small_trace, checkpoint_every=500, on_checkpoint=on_checkpoint
    )
    assert seen == list(range(500, len(small_trace), 500))
    assert engine.report.fastpath_packets > 0


@pytest.mark.parametrize("profiled", [False, True], ids=["bare", "profiled"])
@pytest.mark.parametrize(
    "make_fastpath", [FastPath, MisraGriesTopK], ids=["sketchvisor", "mg"]
)
def test_saturated_run_hashes_no_flow_per_packet(
    monkeypatch, make_fastpath, profiled
):
    """The routing loop probes the fast path by flow ordinal, whatever
    its kick-out rule and whether a profiler watches.  Over one run,
    flows are hashed only where the run translates them — the bind's
    pass over the table and the unbind's over the fast path's entries:
    ``len(table) + capacity`` however many packets go down the fast
    path.  The report counts its flows from ordinals.  A profiler
    credits ``fastpath.topk`` with exactly the run's fast-path
    packets."""
    flows, capacity = 40, 16
    rng = np.random.default_rng(3)
    trace = Trace(
        [
            Packet(make_flow(int(index)), int(size), 0.0)
            for index, size in zip(
                rng.zipf(1.3, 20_000) % flows,
                rng.integers(40, 1500, 20_000),
            )
        ]
    )
    profiler = (
        Telemetry(profile=ProfileConfig(sample_hz=0.0)).profiler
        if profiled
        else None
    )
    engine = HostEngine(
        _sketch(),
        make_fastpath(capacity * ENTRY_BYTES),
        buffer_packets=8,
        profiler=profiler,
    )
    # A first run leaves the table full, so the measured one binds a
    # non-empty table.
    engine.run(trace, stop_at=2_000)
    assert len(engine.fastpath.bounds()) == capacity
    hashed = []
    monkeypatch.setattr(
        FlowKey,
        "__hash__",
        lambda flow: hashed.append(flow) or flow._hash,
    )
    fast_before = engine.report.fastpath_packets
    with profiler.stage("dataplane.host") if profiled else nullcontext():
        engine.run(trace)
    monkeypatch.undo()
    fastpath = engine.fastpath
    fast_packets = engine.report.fastpath_packets - fast_before
    assert fast_packets > 5_000
    if profiler is not None:
        assert profiler.stages["fastpath.topk"][2] == fast_packets
    assert fastpath.num_hits > 4_000 and fastpath.num_kickouts > 100
    assert len(hashed) <= len(trace.table) + capacity
    _assert_flow_keyed(fastpath)


def _recurrence(x, step, start):
    """The clocks' recurrence as the per-packet loop writes it."""
    y, out = start, []
    for value in x:
        y = (y if y > value else value) + step
        out.append(y)
    return out


@settings(max_examples=200, deadline=None)
@given(
    stretches=st.lists(
        st.tuples(st.integers(1, 300), st.sampled_from([0, 1, 2, 3, 40])),
        max_size=10,
    ),
    step=st.sampled_from([1.0, 0.1, 46.0, 310.0, 310]),
    start=st.sampled_from([0.0, 0.5, 7.0, 1e9]),
    jitter=st.sampled_from([0.0, 1e-9]),
)
def test_scan_is_the_scalar_recurrence(stretches, step, start, jitter):
    """Busy runs past the pass cap and the first chain span, idle gaps,
    and ties: with gaps of whole steps and no jitter, ``x[i] ==
    y[i-1]`` wherever a run of one-step gaps is caught up, and the
    loop's ``y if y > x else x`` takes ``x`` there.  An ``int`` step
    (``CostModel`` accepts one) must not truncate the clock."""
    x, clock = [], 0.0
    for length, gap in stretches:
        for _ in range(length):
            clock += gap * step + jitter
            x.append(clock)
    x = np.array(x, dtype=np.float64)
    y, passes = max_plus_scan(x, step, start)
    assert y.dtype == np.float64
    assert y.tolist() == _recurrence(x.tolist(), step, start)
    assert passes >= 1


def test_back_to_back_chunk_takes_few_passes():
    """100K back-to-back packets are one busy run: one pass finds it and
    one accumulate chain settles it (a pass per element would be 100K),
    with the loop's exact values."""
    x = np.zeros(100_000)
    y, passes = max_plus_scan(x, 46.0, 0.0)
    assert y.tolist() == _recurrence(x.tolist(), 46.0, 0.0)
    assert passes <= 3


def test_many_long_bursts_hit_the_pass_cap():
    """More long bursts than passes: at the cap every run still open is
    chained, and the values stay the loop's."""
    x = np.repeat(np.arange(40) * 1e4, 50)
    y, passes = max_plus_scan(x, 46.0, 0.0)
    assert y.tolist() == _recurrence(x.tolist(), 46.0, 0.0)
    assert SCAN_PASSES < passes < SCAN_PASSES + 2 * 40
