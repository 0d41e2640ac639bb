"""Per-flow sketch positions: the oracle for the array ``matrix_positions``.

These are ``matrix_positions`` of the three low-rank sketches as they
were written first — one call per flow, each returning a list of
``(row, col, coef)`` tuples from the scalar hashes — and the operator
LENS built from them, one Python list element at a time.  The kernels
in ``src/`` position every tracked flow at once from hash columns, and
the CSR matrix built from their arrays must be byte-equal to
:func:`reference_operator`'s.
"""

from __future__ import annotations

from scipy import sparse

from repro.common.hashing import mix64
from repro.sketches.deltoid import HEADER_BITS, Deltoid
from repro.sketches.revsketch import ReversibleSketch, flow_fingerprint
from repro.sketches.twolevel import TwoLevelSketch


def deltoid_positions(sketch: Deltoid, flow) -> list[tuple[int, int, float]]:
    header = flow.key104
    key64 = flow.key64
    stride = 1 + HEADER_BITS
    positions: list[tuple[int, int, float]] = []
    for row, col in enumerate(sketch._hashes.buckets(key64, sketch.width)):
        positions.append((row * stride, col, 1.0))
        for bit in range(HEADER_BITS):
            if (header >> bit) & 1:
                positions.append((row * stride + 1 + bit, col, 1.0))
    return positions


def revsketch_positions(
    sketch: ReversibleSketch, flow
) -> list[tuple[int, int, float]]:
    words = sketch._split_words(flow_fingerprint(flow))
    return [
        (row, sketch._bucket(row, words), 1.0)
        for row in range(sketch.depth)
    ]


def twolevel_positions(
    sketch: TwoLevelSketch, flow
) -> list[tuple[int, int, float]]:
    aggregate, spread = sketch._keys(flow)
    agg64 = mix64(aggregate)
    spread64 = mix64(spread)
    inner_cols = sketch._inner_hashes.buckets(spread64, sketch.inner_width)
    positions: list[tuple[int, int, float]] = []
    for row, col in enumerate(
        sketch._outer_hashes.buckets(agg64, sketch.outer_width)
    ):
        for inner_row, inner_col in enumerate(inner_cols):
            positions.append(
                (
                    row * sketch.outer_width + col,
                    inner_row * sketch.inner_width + inner_col,
                    1.0,
                )
            )
    return positions


REFERENCE_POSITIONS = {
    Deltoid: deltoid_positions,
    ReversibleSketch: revsketch_positions,
    TwoLevelSketch: twolevel_positions,
}


def reference_operator(sketch, flows) -> sparse.csr_matrix:
    """The (m*n) x len(flows) operator, built from per-flow lists."""
    positions = [
        REFERENCE_POSITIONS[type(sketch)](sketch, flow) for flow in flows
    ]
    shape = sketch.to_matrix().shape
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    num_cols = shape[1]
    for flow_index, flow_positions in enumerate(positions):
        for row, col, coef in flow_positions:
            rows.append(row * num_cols + col)
            cols.append(flow_index)
            data.append(coef)
    return sparse.csr_matrix(
        (data, (rows, cols)),
        shape=(shape[0] * shape[1], len(positions)),
    )
