"""Array ``matrix_positions`` and the LENS operator built from them.

The three low-rank sketches position every tracked flow at once from
hash columns.  The CSR operator built from their arrays must be
byte-equal to the one built from the per-flow lists of
``tests/reference_positions.py``.  Every sketch with an operator must
replay its positions into exactly the matrix its updates produce.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.flow import FlowKey
from repro.controlplane.lens import _build_operator
from repro.sketches.cardinality import HyperLogLog
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.deltoid import Deltoid
from repro.sketches.revsketch import ReversibleSketch
from repro.sketches.twolevel import TwoLevelSketch
from tests.conftest import registry_solutions
from tests.reference_positions import reference_operator

#: Two headers with one 64-bit fold: flipping bit 24 of dst_ip and bit
#: 0 of proto flips the same bit of both folded halves.
FOLD_TWINS = (FlowKey(1, 2, 3, 4, 6), FlowKey(1, 2 ^ (1 << 24), 3, 4, 7))


def _flows(rng: random.Random, count: int) -> list[FlowKey]:
    return [FlowKey.from_key104(rng.getrandbits(104)) for _ in range(count)]


def _operator(sketch, flows):
    return _build_operator(
        sketch.matrix_positions(flows), sketch.to_matrix().shape, len(flows)
    )


def _csr_bytes(matrix) -> list:
    return [matrix.shape] + [
        (array.dtype.str, array.tobytes())
        for array in (matrix.indptr, matrix.indices, matrix.data)
    ]


@st.composite
def low_rank_sketches(draw):
    seed = draw(st.integers(1, 2**16))
    kind = draw(st.sampled_from(("deltoid", "revsketch", "twolevel")))
    if kind == "deltoid":
        return Deltoid(
            width=draw(st.sampled_from((1, 7, 64, 1024))),
            depth=draw(st.integers(1, 4)),
            seed=seed,
        )
    if kind == "revsketch":
        return ReversibleSketch(
            subindex_bits=draw(st.integers(1, 3)),
            depth=draw(st.integers(1, 4)),
            seed=seed,
        )
    return TwoLevelSketch(
        mode=draw(st.sampled_from(("ddos", "superspreader"))),
        outer_width=draw(st.sampled_from((1, 16, 1024))),
        outer_depth=draw(st.integers(1, 3)),
        inner_width=draw(st.sampled_from((1, 8, 64))),
        inner_depth=draw(st.integers(1, 3)),
        seed=seed,
    )


class TestOperatorIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        sketch=low_rank_sketches(),
        count=st.integers(0, 500),
        flow_seed=st.integers(0, 2**32),
        twins=st.booleans(),
    )
    @example(
        sketch=Deltoid(width=4000, depth=4, seed=7),
        count=500,
        flow_seed=1,
        twins=True,
    )
    def test_csr_equals_the_per_flow_build(
        self, sketch, count, flow_seed, twins
    ):
        flows = _flows(random.Random(flow_seed), count)
        if twins:
            flows[count // 2 : count // 2] = FOLD_TWINS
        assert _csr_bytes(_operator(sketch, flows)) == _csr_bytes(
            reference_operator(sketch, flows)
        )

    @pytest.mark.parametrize("width", [1, 64, 4000])
    def test_fold_twins_keep_their_own_header_bits(self, width):
        assert FOLD_TWINS[0].key64 == FOLD_TWINS[1].key64
        assert FOLD_TWINS[0].key104 != FOLD_TWINS[1].key104
        sketch = Deltoid(width=width, depth=4, seed=3)
        operator = _operator(sketch, list(FOLD_TWINS))
        assert _csr_bytes(operator) == _csr_bytes(
            reference_operator(sketch, list(FOLD_TWINS))
        )
        # One bucket per row, so the columns differ only in the bits
        # the two headers disagree on: dst_ip bit 24 and proto bit 0.
        differ = np.flatnonzero(
            operator[:, 0].toarray() != operator[:, 1].toarray()
        )
        bits = (differ // width) % 105 - 1
        assert sorted(set(bits.tolist())) == [0, 64]


def _sketches_with_an_operator():
    builders = dict(registry_solutions())
    del builders["kmin"]
    builders.update(
        countmin=CountMinSketch, countsketch=CountSketch, hll=HyperLogLog
    )
    return builders


@pytest.mark.parametrize("name", sorted(_sketches_with_an_operator()))
def test_positions_replay_to_the_updated_matrix(name):
    sketch = _sketches_with_an_operator()[name](seed=11)
    rng = random.Random(5)
    flows = _flows(rng, 200) + list(FOLD_TWINS)
    # MRAC counts packets: a unit of a flow is one update.
    values = [
        1 if name == "mrac" else rng.randint(1, 1500) for _ in flows
    ]
    for flow, value in zip(flows, values):
        sketch.update(flow, value)
    flow_index, rows, cols, coefs = sketch.matrix_positions(flows)
    assert (np.diff(flow_index) >= 0).all()
    assert set(flow_index.tolist()) == set(range(len(flows)))
    replayed = np.zeros_like(sketch.to_matrix())
    np.add.at(
        replayed, (rows, cols), coefs * np.asarray(values)[flow_index]
    )
    assert np.array_equal(replayed, sketch.to_matrix())
    empty = sketch.matrix_positions([])
    assert [array.size for array in empty] == [0, 0, 0, 0]
