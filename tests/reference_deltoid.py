"""The bit-by-bit reversal: the oracle for Deltoid's slab decode.

This is ``Deltoid.decode`` as it was written first — every heavy bucket
reversed on its own, one header bit at a time, giving up at the first
ambiguous bit.  The kernel in ``src/`` reverses a row's heavy buckets
as one ``(104, heavy)`` slab and must return the same flows with the
same estimates in the same dict order.
"""

from __future__ import annotations

import numpy as np

from repro.common.flow import FlowKey
from repro.sketches.deltoid import HEADER_BITS


def reference_decode(sketch, threshold: float) -> dict[FlowKey, float]:
    candidates: dict[FlowKey, float] = {}
    for row in range(sketch.depth):
        heavy_cols = np.nonzero(sketch.totals[row] > threshold)[0]
        for col in heavy_cols:
            flow = _reverse_bucket(sketch, row, int(col), threshold)
            if flow is None:
                continue
            estimate = sketch.estimate(flow)
            if estimate > threshold:
                candidates[flow] = estimate
    return candidates


def _reverse_bucket(sketch, row: int, col: int, threshold: float):
    total = sketch.totals[row, col]
    header = 0
    for bit in range(HEADER_BITS):
        one_side = sketch.bits[row, bit, col]
        zero_side = total - one_side
        one_heavy = one_side > threshold
        zero_heavy = zero_side > threshold
        if one_heavy == zero_heavy:
            # Ambiguous (two heavy flows collided) or nothing heavy.
            return None
        if one_heavy:
            header |= 1 << bit
    flow = FlowKey.from_key104(header)
    if sketch._hashes.bucket(row, flow.key64, sketch.width) != col:
        return None  # failed verification: decoded garbage
    return flow
