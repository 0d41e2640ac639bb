"""The chunked engine against the per-packet oracle, as a property.

Whatever the chunking — ``stop_at`` cut points, checkpoint and heartbeat
intervals, a snapshot→restore in the middle — the engine must end
exactly where the uninterrupted per-packet loop
(``tests/reference_engine.py``) ends: the same report, the same fast-path
table in the same order, the same encoded sketch.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.flow import Packet
from repro.dataplane.engine import HostEngine
from repro.durability.codec import StateCodec
from repro.fastpath.misra_gries import MisraGriesTopK
from repro.fastpath.topk import ENTRY_BYTES, FastPath
from repro.sketches.countmin import CountMinSketch
from repro.traffic.trace import Trace
from tests.conftest import make_flow
from tests.reference_engine import reference_run
from tests.test_state_codec import state_equal

BUFFER_PACKETS = 6

#: arm -> (fast path factory, ideal)
ARMS = {
    "fastpath": (lambda: FastPath(4 * ENTRY_BYTES), False),
    "misra_gries": (lambda: MisraGriesTopK(4 * ENTRY_BYTES), False),
    "no_fastpath": (lambda: None, False),
    "ideal": (lambda: None, True),
}


def _sketch():
    return CountMinSketch(width=32, depth=2, seed=7)


@st.composite
def traces(draw):
    """A few hundred packets over a small flow pool (hits, inserts and
    kick-outs all happen), timestamps non-decreasing with ties."""
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 30),
                st.integers(40, 1500),
                st.sampled_from([0.0, 1e-6, 1e-4]),
            ),
            max_size=300,
        )
    )
    clock = 0.0
    packets = []
    for index, size, gap in rows:
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
    codec = StateCodec()

    oracle_sketch, oracle_fastpath = _sketch(), make_fastpath()
    expected = reference_run(
        trace,
        oracle_sketch,
        oracle_fastpath,
        buffer_packets=BUFFER_PACKETS,
        ideal=ideal,
        offered_gbps=offered,
    )

    def engine():
        return HostEngine(
            _sketch(),
            make_fastpath(),
            buffer_packets=BUFFER_PACKETS,
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
