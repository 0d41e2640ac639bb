"""The one-cell-at-a-time peel: the oracle for FlowRadar's batched decode.

This is ``FlowRadar.decode`` as it was written first — a ``deque`` of
pure cells over plain Python lists, one ``FlowKey.from_key104`` and one
scalar hash per peeled flow.  The kernel in ``src/`` peels a batch of
queued cells per NumPy pass and must return the same flows in the same
order with the same sizes, bit for bit, on every table — consistent or
not (overlapping merges, rescaled counters, corrupted cells).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.common.flow import FlowKey


def reference_decode(sketch) -> tuple[dict[FlowKey, float], bool]:
    flow_xor = list(sketch.flow_xor)
    flow_count = sketch.flow_count.tolist()
    byte_count = sketch.byte_count.tolist()
    decoded: dict[FlowKey, float] = {}

    pure = deque(np.flatnonzero(sketch.flow_count == 1).tolist())
    while pure:
        cell = pure.popleft()
        if flow_count[cell] != 1:
            continue
        header = flow_xor[cell]
        size = byte_count[cell]
        try:
            flow = FlowKey.from_key104(header)
        except ValueError:
            # Corrupted cell (should not happen without bit errors).
            flow_count[cell] = -1
            continue
        key64 = flow.key64
        cells = sketch._cells(key64)
        if cell not in cells:
            # XOR residue that is not a real flow: decoding is stuck
            # on this cell (a collision signature), mark and move on.
            flow_count[cell] = -1
            continue
        decoded[flow] = decoded.get(flow, 0.0) + size
        for other in cells:
            flow_xor[other] ^= header
            flow_count[other] -= 1
            byte_count[other] -= size
            if flow_count[other] == 1:
                pure.append(other)
    complete = max(flow_count) <= 0
    return decoded, complete
