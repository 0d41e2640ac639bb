"""Shared fixtures: small deterministic traces and ground truths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.flow import FlowKey, Packet, header_words
from repro.fastpath.topk import FastPathSnapshot
from repro.traffic.generator import TraceConfig, generate_trace
from repro.traffic.groundtruth import GroundTruth
from repro.traffic.trace import Trace


@pytest.fixture(scope="session")
def small_trace() -> Trace:
    """~500 flows, a few thousand packets; fast enough for unit tests."""
    return generate_trace(TraceConfig(num_flows=500, seed=42))


@pytest.fixture(scope="session")
def small_truth(small_trace: Trace) -> GroundTruth:
    return GroundTruth.from_trace(small_trace)


@pytest.fixture(scope="session")
def medium_trace() -> Trace:
    """~2000 flows; used by integration-level tests."""
    return generate_trace(TraceConfig(num_flows=2000, seed=7))


@pytest.fixture(scope="session")
def medium_truth(medium_trace: Trace) -> GroundTruth:
    return GroundTruth.from_trace(medium_trace)


def make_flow(index: int, dst: int = 9999) -> FlowKey:
    """A deterministic distinct flow for hand-built streams."""
    return FlowKey(
        src_ip=1000 + index,
        dst_ip=dst,
        src_port=1024 + (index % 60000),
        dst_port=80,
    )


def snapshot_of(rows, **scalars) -> FastPathSnapshot:
    """A fast-path snapshot of ``(flow, e, r, d)`` rows (any order;
    rows of one flow add) and the given scalar fields."""
    rows = list(rows)
    hi, lo = header_words([row[0] for row in rows])
    e, r, d = (
        np.array([row[k] for row in rows], dtype=np.float64)
        for k in (1, 2, 3)
    )
    return FastPathSnapshot.from_columns(hi, lo, e, r, d, **scalars)


def make_trace(sized_flows: list[tuple[FlowKey, list[int]]]) -> Trace:
    """Build a trace from (flow, [packet sizes]) pairs, interleaved."""
    packets = []
    timestamp = 0.0
    remaining = [
        (flow, list(sizes)) for flow, sizes in sized_flows if sizes
    ]
    while remaining:
        next_round = []
        for flow, sizes in remaining:
            packets.append(Packet(flow, sizes.pop(0), timestamp))
            timestamp += 0.001
            if sizes:
                next_round.append((flow, sizes))
        remaining = next_round
    return Trace(packets)


def registry_solutions() -> dict:
    """Solution name -> ``build(seed=...)`` of its deployed sketch, for
    every solution of Table 1."""
    from repro.framework.registry import TASK_REGISTRY, create_task

    builders = {}
    for task_name, (_cls, solutions) in TASK_REGISTRY.items():
        kwargs = {}
        if task_name in ("heavy_hitter", "heavy_changer"):
            kwargs["threshold"] = 1000
        if task_name in ("ddos", "superspreader"):
            kwargs["threshold"] = 10
        for solution in solutions:
            builders.setdefault(
                solution,
                create_task(task_name, solution, **kwargs).create_sketch,
            )
    return builders


# ----------------------------------------------------------------------
# Payload-codec round-trip helpers (test_transport / test_state_codec)
# ----------------------------------------------------------------------


def arrays_in(obj, _seen=None) -> list[np.ndarray]:
    """Every ndarray reachable from a state object, in a fixed order."""
    seen = set() if _seen is None else _seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
    else:
        children = [
            getattr(obj, slot) for slot in getattr(obj, "__slots__", ())
        ]
    return [a for child in children for a in arrays_in(child, seen)]


def array_bits(obj) -> list[tuple]:
    """``(dtype, shape, bytes)`` of every array: equality of these is
    bit-exactness (``-0.0`` and NaN payloads included)."""
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays_in(obj)]


def saturate(obj, seed: int) -> None:
    """Make every counter non-zero: the codec's dense arm."""
    rng = np.random.default_rng(seed)
    for array in arrays_in(obj):
        if array.flags.writeable:
            array[...] = rng.integers(1, 100, size=array.shape)


def fill_sketch(sketch, fill: str, seed: int):
    """``sketch`` left fresh (all zero: the sparse arm at its best),
    given a few hundred updates, or saturated (the dense arm)."""
    if fill == "updated":
        for index in range(300):
            sketch.update(make_flow(seed + index % 90), 40 + index)
    elif fill == "saturated":
        saturate(sketch, seed)
    return sketch


FILLS = ("fresh", "updated", "saturated")


def assert_exact_unaliased_round_trip(obj, encode, decode) -> None:
    """``decode(encode(obj))`` has bit-identical, writable arrays, and
    scribbling on them leaves the encoded bytes — which the fault
    injector keeps for replay — decoding to the original."""
    expected = array_bits(obj)
    blob = encode(obj)
    restored = decode(blob)
    assert array_bits(restored) == expected
    for array in arrays_in(restored):
        assert array.flags.writeable is True
        array[...] = array == 0  # every element changes
    assert array_bits(decode(blob)) == expected


def pre_column_flowradar():
    """A FlowRadar whose pickled state is the one written before the
    XOR field became two word columns: a ``flow_xor`` list, no
    ``xor_hi`` / ``xor_lo``."""
    from repro.sketches.flowradar import FlowRadar

    sketch = FlowRadar(bloom_bits=2048, num_cells=512, seed=3)
    sketch.update(make_flow(1), 100)
    state = vars(sketch)
    state["flow_xor"] = sketch.flow_xor
    del state["xor_hi"], state["xor_lo"]
    return sketch


def adversarial_arrays(seed: int, density: float) -> dict:
    """Arrays chosen to break a word-sparse codec, not a sketch."""
    rng = np.random.default_rng(seed)

    def thin(values: np.ndarray) -> np.ndarray:
        values[rng.random(values.shape) >= density] = 0
        return values

    nan_payloads = np.array(
        [0x7FF8_0000_0000_0001, 0xFFF0_DEAD_BEEF_0001, 0x7FF0_0000_0000_0001],
        dtype=np.uint64,
    ).view(np.float64)
    floats = thin(rng.random(4096))
    floats[rng.integers(0, 4096, 8)] = -0.0
    floats[rng.integers(0, 4096, 3)] = nan_payloads
    return {
        "floats": floats,
        "all_negative_zero": np.full(512, -0.0),
        "int64": thin(rng.integers(-(2**62), 2**62, 1024)),
        "int8_odd_length": thin(
            rng.integers(-128, 128, 1027).astype(np.int8)
        ),
        "bool": rng.random(3000) < density,
        "zero_size": np.zeros((0, 5)),
        "fortran": np.asfortranarray(thin(rng.random((64, 48)))),
        "non_contiguous": thin(rng.random(6000))[::3],
        "under_the_sparse_floor": np.array([0.0, -0.0, 7.0]),
    }
