"""Heavy hitter detection: flows whose byte count exceeds a threshold.

Solutions: Deltoid, Reversible Sketch, FlowRadar, UnivMon (Table 1).
The Reversible Sketch operates on 32-bit flow fingerprints (see
:mod:`repro.sketches.revsketch`); ground truth is mapped through the
same fingerprint, so scoring compares like with like.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.common.flow import FlowKey
from repro.metrics import precision, recall, relative_error
from repro.sketches.base import Sketch
from repro.sketches.deltoid import Deltoid
from repro.sketches.flowradar import FlowRadar
from repro.sketches.revsketch import ReversibleSketch, flow_fingerprint
from repro.sketches.univmon import UnivMon
from repro.tasks.base import MeasurementTask, TaskScore
from repro.traffic.groundtruth import GroundTruth

#: Default sketch parameters, scaled for laptop-sized traces; the
#: paper's §7.1 configurations are available via ``paper_params=True``.
DEFAULT_PARAMS = {
    "deltoid": {"width": 1024, "depth": 4},
    # depth 6 keeps reverse-hashing phantom candidates rare (each extra
    # row multiplies a phantom's survival odds by heavy-buckets/width).
    "revsketch": {
        "word_bits": 8,
        "num_words": 4,
        "subindex_bits": 3,
        "depth": 6,
    },
    "flowradar": {"bloom_bits": 60_000, "num_cells": 24_000},
    "univmon": {
        "level_widths": (2048, 1024, 512, 256, 256, 256),
        "depth": 5,
        "heap_size": 500,
    },
}

PAPER_PARAMS = {
    "deltoid": {"width": 4000, "depth": 4},
    "revsketch": {
        "word_bits": 8,
        "num_words": 4,
        "subindex_bits": 3,
        "depth": 4,
    },
    "flowradar": {"bloom_bits": 100_000, "num_cells": 40_000},
    "univmon": {
        "level_widths": (4000, 2000, 1000, 500, 500, 500, 500, 500),
        "depth": 5,
        "heap_size": 500,
    },
}

_CLASSES = {
    "deltoid": Deltoid,
    "revsketch": ReversibleSketch,
    "flowradar": FlowRadar,
    "univmon": UnivMon,
}


def build_hh_sketch(
    solution: str,
    seed: int = 1,
    sketch_params: dict | None = None,
    paper_params: bool = False,
) -> Sketch:
    """Construct a heavy-hitter-capable sketch by solution name."""
    if solution not in _CLASSES:
        raise ConfigError(f"unknown HH solution {solution!r}")
    params = sketch_params
    if params is None:
        params = (PAPER_PARAMS if paper_params else DEFAULT_PARAMS)[
            solution
        ]
    return _CLASSES[solution](seed=seed, **params)


class HeavyHitterTask(MeasurementTask):
    """Detect flows above ``threshold`` bytes in an epoch.

    Parameters
    ----------
    solution:
        One of ``deltoid``, ``revsketch``, ``flowradar``, ``univmon``.
    threshold:
        Absolute byte threshold (the paper uses 0.05% of NIC capacity
        times the epoch length).
    """

    name = "heavy_hitter"
    solutions = ("deltoid", "revsketch", "flowradar", "univmon")

    def __init__(
        self,
        solution: str,
        threshold: float,
        sketch_params: dict | None = None,
        paper_params: bool = False,
    ):
        super().__init__(solution)
        if threshold <= 0:
            raise ConfigError("threshold must be positive")
        self.threshold = float(threshold)
        self.sketch_params = sketch_params
        self.paper_params = paper_params

    def create_sketch(self, seed: int = 1) -> Sketch:
        return build_hh_sketch(
            self.solution, seed, self.sketch_params, self.paper_params
        )

    # ------------------------------------------------------------------
    def answer(self, sketch: Sketch) -> dict[object, float]:
        """``{flow key: estimated bytes}`` for flows above threshold."""
        threshold = self.threshold
        if isinstance(sketch, Deltoid):
            return dict(sketch.decode(threshold))
        if isinstance(sketch, ReversibleSketch):
            return dict(sketch.decode(threshold))
        if isinstance(sketch, FlowRadar):
            decoded, _complete = sketch.decode(threshold)
            return decoded
        if isinstance(sketch, UnivMon):
            return dict(sketch.heavy_hitters(threshold))
        raise ConfigError(f"unsupported sketch {type(sketch).__name__}")

    def truth_key(self, flow: FlowKey):
        """Map a ground-truth flow to the key space answers use."""
        if self.solution == "revsketch":
            return flow_fingerprint(flow)
        return flow

    def score(self, answer: dict, truth: GroundTruth) -> TaskScore:
        true_hh = {
            self.truth_key(flow): float(size)
            for flow, size in truth.heavy_hitters(self.threshold).items()
        }
        return TaskScore(
            recall=recall(answer, true_hh),
            precision=precision(answer, true_hh),
            relative_error=relative_error(answer, true_hh),
            extra={"reported": len(answer), "true": len(true_hh)},
        )
