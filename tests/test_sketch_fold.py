"""Sketch state as foldable buffers: in-place reset and merge.

Every sketch declares the arrays its merge combines, each with a fold
op (``Sketch.fold_buffers``).  Two promises rest on that declaration:

* ``reset()`` zeroes a sketch in place to exactly the state
  ``clone_empty()`` builds, so one warm sketch can serve host after
  host;
* merging the sketches that flow-disjoint hosts sent as frames gives,
  buffer for buffer, the sketch of the whole trace;
* folding frames by their sparse sections (the fold sink) gives, bit
  for bit, what materializing every frame and merging gives.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.flow import FlowKey, Packet
from repro.controlplane import transport
from repro.controlplane.merge import MergeFold, merge_sketches
from repro.controlplane.transport import (
    ACK,
    CollectionStats,
    SparseSection,
    accept_frame,
    decode_payload,
    decode_report,
    encode_frame,
    encode_report,
)
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
        # Estimates by their bits: a planted NaN word can make one NaN,
        # and NaN == NaN is False however equal the bits.
        out.append(
            [
                [
                    (key, flow, struct.pack("<d", estimate))
                    for key, (flow, estimate) in tracker.items()
                ]
                for tracker in sketch.trackers
            ]
        )
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


#: Words no counter update writes but a frame may carry: ``-0.0``, a
#: signalling and two quiet NaNs with payloads, ``-inf``, all ones.
SPECIAL_WORDS = (
    0x8000_0000_0000_0000,
    0x7FF0_0000_0000_0001,
    0x7FF8_DEAD_BEEF_0001,
    0xFFF8_0000_0000_0002,
    0xFFF0_0000_0000_0000,
    0xFFFF_FFFF_FFFF_FFFF,
)

#: A few cells of one fold buffer, each set to a raw 8-byte word.
planted_words = st.lists(
    st.tuples(
        st.integers(0, 2**31),
        st.one_of(st.sampled_from(SPECIAL_WORDS), st.integers(1, 2**64 - 1)),
    ),
    max_size=6,
)


def _plant(sketch, planted) -> None:
    """Overwrite whole words of the fold buffers whose items tile one
    (``-0.0`` and NaN payloads into float buffers, any bytes into int
    and bool ones)."""
    buffers = [array for array, _op in sketch.fold_buffers()]
    for position, (cell, word) in enumerate(planted if buffers else ()):
        array = buffers[position % len(buffers)]
        if array.nbytes % 8 or not array.flags.c_contiguous:
            continue
        words = array.reshape(-1).view(np.uint64)
        words[cell % words.size] = word


#: NaN words added to anything are NaN: numpy says so, both ways.
quiet_nan_adds = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning"
)


@quiet_nan_adds
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_fold_sink_equals_materialize_then_merge(name):
    """Every registered sketch's fold ops (add on int and float
    buffers, xor, or on bools), item sizes 1 and 8, and planted
    ``-0.0`` / NaN-payload words: a fold that lands each frame's
    sections equals a merge of the materialized frames, bit for bit."""

    @given(
        st.lists(st.tuples(packet_lists, planted_words), min_size=1, max_size=3)
    )
    # A signalling NaN that reaches a UnivMon tracker's estimate.
    @example(hosts=[([(31, 40)], [(151819360, 0x7FF0_0000_0000_0001)])])
    @settings(max_examples=8, deadline=None)
    def check(hosts):
        frames = []
        for host_id, (pairs, planted) in enumerate(hosts):
            sketch = BUILDERS[name](seed=3)
            sketch.update_trace(_trace(pairs))
            _plant(sketch, planted)
            report = LocalReport(host_id, sketch, None, SwitchReport())
            frames.append(encode_report(report, 0))
        folded = MergeFold()
        for host_id, frame in enumerate(frames):
            report = LocalReport(host_id, None, None, SwitchReport())
            report.hand_off(frame)
            folded.add(report)
        merged = merge_sketches([decode_report(f).sketch for f in frames])
        assert state(folded.sketch) == state(merged)

    check()


def test_a_sparse_deltoid_frame_folds_unlanded():
    """The property above is not vacuous: a lightly filled sketch's
    big buffers reach the merge as sections, never as arrays."""
    sketch = BUILDERS["deltoid"](seed=3)
    sketch.update_trace(_trace([(1, 100), (2, 200)]))
    frame = encode_report(LocalReport(0, sketch, None, SwitchReport()), 0)
    sources = [s for s, _op in decode_report(frame, fold=True).sketch.fold_buffers()]
    assert all(isinstance(source, SparseSection) for source in sources)


def test_an_accepted_report_hands_its_check_to_one_fold(monkeypatch):
    """``accept_frame`` decodes a frame once and the report keeps that
    decode for the fold: the first ``fold_sketch()`` costs no decode,
    a second decodes the frame again, and ``sketch`` decodes it whole,
    so only a fold ever sees a section."""
    sketch = BUILDERS["deltoid"](seed=3)
    sketch.update_trace(_trace([(1, 100), (2, 200)]))
    frame = encode_report(LocalReport(0, sketch, None, SwitchReport()), 0)
    decoded = []
    decode = transport.decode_payload
    monkeypatch.setattr(
        transport,
        "decode_payload",
        lambda *args, **kwargs: decoded.append(1) or decode(*args, **kwargs),
    )
    verdict, report = accept_frame(frame, 0, set(), CollectionStats())
    assert verdict == ACK and len(decoded) == 1

    def sections(folded):
        return [
            isinstance(source, SparseSection)
            for source, _op in folded.fold_buffers()
        ]

    first = report.fold_sketch()
    assert len(decoded) == 1 and all(sections(first))
    again = report.fold_sketch()
    assert len(decoded) == 2 and again is not first and all(sections(again))
    assert not any(sections(report.sketch))
    assert len(decoded) == 3


#: One item type per row: its fold ops, and how to read raw item bits.
ITEM_TYPES = {
    "bool": ("?", ("add", "bitwise_xor", "bitwise_or"), "u1"),
    "uint8": ("u1", ("add", "bitwise_xor", "bitwise_or"), "u1"),
    "int32": ("<i4", ("add", "bitwise_xor", "bitwise_or"), "<u4"),
    "float32": ("<f4", ("add",), "<u4"),
    "int64": ("<i8", ("add", "bitwise_xor", "bitwise_or"), "<u8"),
    "float64": ("<f8", ("add",), "<u8"),
}
_FLOAT_BITS = {
    "<u4": (0x8000_0000, 0x7F80_0001, 0x7FC0_BEEF, 0xFF80_0000),
    "<u8": SPECIAL_WORDS,
}
_LAYOUT = struct.Struct(">II")


@quiet_nan_adds
@pytest.mark.parametrize(
    "item, op",
    [
        (item, op)
        for item, (_dtype, ops, _bits) in sorted(ITEM_TYPES.items())
        for op in ops
    ],
)
def test_landing_a_section_equals_the_dense_op(item, op):
    """Item sizes 1, 4 and 8, int and float, under add, xor and or:
    a merge that starts from zeros and lands section after section
    holds the bytes ``op(merge, array, out=merge)`` leaves."""
    dtype, _ops, bits = ITEM_TYPES[item]
    ufunc = getattr(np, op)
    size = 4096 // np.dtype(dtype).itemsize
    raw = st.integers(1, 2 ** (8 * np.dtype(bits).itemsize) - 1)
    if bits in _FLOAT_BITS and "f" in dtype:
        raw = st.one_of(st.sampled_from(_FLOAT_BITS[bits]), raw)
    frames = st.lists(
        st.lists(st.tuples(st.integers(0, size - 1), raw), max_size=12),
        min_size=1,
        max_size=4,
    )

    @given(frames)
    @settings(max_examples=40, deadline=None)
    def check(cells_per_frame):
        dense = np.zeros((4, size // 4), dtype=dtype)
        landed = np.zeros_like(dense)
        for cells in cells_per_frame:
            array = np.zeros_like(dense)
            for cell, value in cells:
                array.reshape(-1).view(bits)[cell] = value
            payload = encode_frame(_LAYOUT, obj=array)[_LAYOUT.size :]
            ufunc(dense, decode_payload(payload), out=dense)
            unlanded = []
            section = decode_payload(payload, unlanded=unlanded)
            assert unlanded == [section]
            section.land(landed, ufunc)
        assert landed.tobytes() == dense.tobytes()

    check()
