"""The fast path (§4): SketchVisor's top-k algorithm and its baseline.

:class:`~repro.fastpath.topk.FastPath` implements Algorithm 1 — a
Misra-Gries-style top-k tracker augmented with probabilistic lossy
counting, keeping three counters per flow for tight per-flow bounds
(Lemma 4.1) and amortizing kick-outs by evicting multiple small flows at
once.  :class:`~repro.fastpath.misra_gries.MisraGriesTopK` is the
unmodified Misra-Gries algorithm [33] the paper compares against
(Figure 16).
"""

from repro.fastpath.misra_gries import MisraGriesTopK
from repro.fastpath.space_saving import SpaceSavingTopK
from repro.fastpath.topk import FastPath, UpdateKind

__all__ = [
    "FastPath",
    "MisraGriesTopK",
    "SpaceSavingTopK",
    "UpdateKind",
]
