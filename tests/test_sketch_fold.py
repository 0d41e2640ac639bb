"""Sketch state as foldable buffers: in-place reset and merge.

Every sketch declares the arrays its merge combines, each with a fold
op (``Sketch.fold_buffers``).  Two promises rest on that declaration:

* ``reset()`` zeroes a sketch in place to exactly the state
  ``clone_empty()`` builds, so one warm sketch can serve host after
  host;
* merging the sketches that flow-disjoint hosts sent as frames gives,
  buffer for buffer, the sketch of the whole trace.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.flow import FlowKey, Packet
from repro.controlplane.merge import merge_sketches
from repro.controlplane.transport import decode_report, encode_report
from repro.dataplane.host import LocalReport
from repro.dataplane.switch import SwitchReport
from repro.sketches.cardinality import HyperLogLog
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.flowradar import FlowRadar
from repro.sketches.univmon import UnivMon
from repro.traffic.generator import TraceConfig, generate_trace
from repro.traffic.trace import Trace
from tests.conftest import registry_solutions

#: Every solution of Table 1, plus the counter sketches no task deploys
#: on its own.
BUILDERS = {
    **registry_solutions(),
    "countmin": lambda seed: CountMinSketch(width=2048, depth=4, seed=seed),
    "countsketch": lambda seed: CountSketch(width=2048, depth=4, seed=seed),
    "hll": lambda seed: HyperLogLog(seed=seed),
}


def state(sketch) -> list:
    """What two equal sketches agree on: the matrix, every fold buffer,
    FlowRadar's extra fields and UnivMon's trackers."""
    out = [sketch.to_matrix().tobytes()]
    out += [array.tobytes() for array, _op in sketch.fold_buffers()]
    if isinstance(sketch, FlowRadar):
        out += [
            list(sketch.flow_xor),
            sketch.flow_count.tobytes(),
            sketch.byte_count.tobytes(),
            sketch.bloom.bits.tobytes(),
        ]
    if isinstance(sketch, UnivMon):
        out.append([list(tracker.items()) for tracker in sketch.trackers])
    return out


packet_lists = st.lists(
    st.tuples(st.integers(0, 40), st.integers(40, 1500)),
    min_size=1,
    max_size=120,
)


def _trace(pairs) -> Trace:
    return Trace(
        [
            Packet(
                FlowKey(7000 + index, 9000 + index % 5, 1000 + index, 443),
                size,
                position * 1e-5,
            )
            for position, (index, size) in enumerate(pairs)
        ]
    )


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_reset_returns_to_the_empty_clone(name):
    sketch = BUILDERS[name](seed=5)

    @given(packet_lists)
    @settings(max_examples=12, deadline=None)
    def check(pairs):
        sketch.update_trace(_trace(pairs))
        sketch.reset()
        assert state(sketch) == state(sketch.clone_empty())

    check()


def counters(sketch) -> list:
    """The matrix and every fold buffer (``state`` without UnivMon's
    trackers, which keep each host's own top flows)."""
    return state(sketch)[: 1 + len(sketch.fold_buffers())]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_merge_of_host_frames_is_the_whole_trace_sketch(name):
    trace = generate_trace(TraceConfig(num_flows=400, seed=41))
    decoded = []
    for host_id, shard in enumerate(trace.partition(3)):
        sketch = BUILDERS[name](seed=3)
        sketch.update_trace(shard)
        report = LocalReport(host_id, sketch, None, SwitchReport())
        decoded.append(decode_report(encode_report(report, 5)).sketch)
    whole = BUILDERS[name](seed=3)
    whole.update_trace(trace)
    assert counters(merge_sketches(decoded)) == counters(whole)
