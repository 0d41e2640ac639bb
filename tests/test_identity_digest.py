"""The commit-comparison digest helper runs, repeats, and sees state."""

from __future__ import annotations

import hashlib

import numpy as np

from repro.sketches.flowradar import FlowRadar
from tests.conftest import make_flow
from tests.identity_digest import feed, monitor_digest


def _digest(obj) -> str:
    digest = hashlib.sha256()
    feed(digest, obj)
    return digest.hexdigest()


def test_monitor_digest_repeats():
    assert monitor_digest(windows=2) == monitor_digest(windows=2)


def test_feed_sees_order_sign_and_every_flowradar_field():
    assert _digest({"a": 1, "b": 2}) != _digest({"b": 2, "a": 1})
    assert _digest({1, 2, 3}) == _digest({3, 2, 1})
    assert _digest(0.0) != _digest(-0.0)
    assert _digest(np.zeros(2)) != _digest(np.zeros(2, dtype=np.int64))

    def radar():
        sketch = FlowRadar(bloom_bits=256, num_cells=32, seed=3)
        sketch.update(make_flow(1), 100)
        return sketch

    baseline = _digest(radar())
    assert baseline == _digest(radar())
    for field in ("xor_hi", "xor_lo", "flow_count", "byte_count"):
        sketch = radar()
        getattr(sketch, field)[5] += 1
        assert _digest(sketch) != baseline, field
    sketch = radar()
    sketch.bloom.bits[7] ^= True
    assert _digest(sketch) != baseline
