"""The fast path (§4): SketchVisor's top-k algorithm and its baselines.

:class:`~repro.fastpath.topk.TopKTable` is the one counter-based top-k
table — flat ``(key, e, r, d)`` columns with a flow-to-slot index —
and each tracker on it is a ``miss`` rule:
:class:`~repro.fastpath.topk.FastPath` implements Algorithm 1 — a
Misra-Gries-style top-k tracker augmented with probabilistic lossy
counting, keeping three counters per flow for tight per-flow bounds
(Lemma 4.1) and amortizing kick-outs by evicting multiple small flows at
once.  :class:`~repro.fastpath.misra_gries.MisraGriesTopK` is the
unmodified Misra-Gries algorithm [33] the paper compares against
(Figure 16), and :class:`~repro.fastpath.space_saving.SpaceSavingTopK`
is Space-Saving, the third classic counter-based tracker, kept for the
fast-path ablation.
"""

from repro.fastpath.misra_gries import MisraGriesTopK
from repro.fastpath.space_saving import SpaceSavingTopK
from repro.fastpath.topk import FastPath, TopKTable, UpdateKind

__all__ = [
    "FastPath",
    "MisraGriesTopK",
    "SpaceSavingTopK",
    "TopKTable",
    "UpdateKind",
]
