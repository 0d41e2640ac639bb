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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.flow import Packet
from repro.dataplane.cost_model import CostModel
from repro.dataplane.engine import SCAN_PASSES, HostEngine, max_plus_scan
from repro.durability.codec import StateCodec
from repro.fastpath.misra_gries import MisraGriesTopK
from repro.fastpath.topk import ENTRY_BYTES, FastPath
from repro.sketches.countmin import CountMinSketch
from repro.traffic.trace import Trace
from tests.conftest import make_flow
from tests.reference_engine import reference_run
from tests.test_state_codec import state_equal

#: FIFO capacities: one a burst of a few packets fills, one only a long
#: busy run does.
BUFFER_PACKETS = (6, 64)

#: arm -> (fast path factory, ideal)
ARMS = {
    "fastpath": (lambda: FastPath(4 * ENTRY_BYTES), False),
    "misra_gries": (lambda: MisraGriesTopK(4 * ENTRY_BYTES), False),
    "no_fastpath": (lambda: None, False),
    "ideal": (lambda: None, True),
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


def _packets(length):
    """``(flow index, size)`` rows over a small flow pool: hits, inserts
    and kick-outs all happen."""
    return st.lists(
        st.tuples(st.integers(0, 30), st.integers(40, 1500)),
        min_size=1,
        max_size=length,
    )


def _per_packet():
    """Up to 300 packets, each with its own gap: arrivals mixed packet
    by packet (many short busy runs and partial drains)."""
    return st.lists(
        st.tuples(_packets(1), st.sampled_from(GAPS)), max_size=300
    )


def _stretches():
    """A few stretches of one gap each: bursts longer than the routing
    scan's pass cap, long paced stretches that fill the FIFO mid-chunk,
    and idle gaps after which the queue has drained."""
    return st.lists(
        st.tuples(_packets(120), st.sampled_from(GAPS)), max_size=6
    )


@st.composite
def traces(draw):
    """Timestamps non-decreasing with ties, gaps drawn per packet or
    per stretch."""
    clock = 0.0
    packets = []
    for rows, gap in draw(st.one_of(_per_packet(), _stretches())):
        for index, size in rows:
            clock += gap
            packets.append(Packet(make_flow(index), size, clock))
    return Trace(packets)


def _interval(n):
    return st.sampled_from([1, 7, 2048, n + 1])


@pytest.mark.parametrize("offered", [None, 1.0])
@pytest.mark.parametrize("arm", sorted(ARMS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), trace=traces())
def test_any_chunking_equals_the_oracle(arm, offered, trace, data):
    n = len(trace)
    make_fastpath, ideal = ARMS[arm]
    cuts = sorted(
        data.draw(st.lists(st.integers(0, n + 3), max_size=6), "cuts")
    )
    checkpoint_every = data.draw(_interval(n), "checkpoint_every")
    restore_at = data.draw(st.integers(0, len(cuts)), "restore_at")
    buffer_packets = data.draw(st.sampled_from(BUFFER_PACKETS), "buffer")
    cost_model = data.draw(st.sampled_from(COST_MODELS), "cost_model")
    codec = StateCodec()

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

    def engine():
        return HostEngine(
            _sketch(),
            make_fastpath(),
            cost_model=cost_model,
            buffer_packets=buffer_packets,
            ideal=ideal,
        )

    straight = engine().run(trace, offered)

    checkpoints = []
    hooks = dict(
        checkpoint_every=checkpoint_every,
        on_checkpoint=lambda e: checkpoints.append(e.offset),
    )
    chunked = engine()
    for step, cut in enumerate([*cuts, None]):
        if step == restore_at:
            chunked = codec.restore_engine(
                codec.snapshot_engine(chunked), chunked.cost_model
            )
        chunked.run(trace, offered, stop_at=cut, **hooks)
        assert chunked.offset == (n if cut is None else min(cut, n))

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
        assert state_equal(expected, candidate.finish())
        assert codec.encode(candidate.sketch) == codec.encode(
            oracle_sketch
        )
        # vars(): rows in order, V/E and every operation counter.
        assert state_equal(oracle_fastpath, candidate.fastpath)
    if isinstance(oracle_fastpath, FastPath):
        assert list(chunked.fastpath.snapshot().entries) == list(
            oracle_fastpath.snapshot().entries
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
