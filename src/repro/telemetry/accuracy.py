"""Accuracy observability: online error estimation and SLO alerting.

The pipeline so far reports *that* it ran; this module reports *how
trustworthy this epoch's answers are*, three ways:

* **theoretical bounds** — per-epoch error envelopes derived from live
  sketch parameters and counters: the Count-Min ``(e/w) * N``
  overestimate bound, a CountSketch ``sqrt(6 * F2 / w)`` envelope with
  ``F2`` self-estimated from the rows, the fast path's Lemma 4.1 /
  Theorem 2 residual bounds from ``(V, E, k)``, and the LENS recovery
  volume decomposition (normal / tracked / small-flow / missing-host
  terms, including the degraded-merge rescale inflation);
* **empirical error** — a :class:`ShadowSampler` keeps a seeded sample
  of flows with their exact byte counts (one vectorized pass over the
  epoch's columns, never per-packet work) and compares the recovered
  answers against them: flow-size ARE, heavy-hitter precision/recall,
  cardinality relative error;
* **SLO alerting** — a declarative :class:`SLOPolicy` (JSON-able
  threshold rules over *any* published metric) evaluated once per
  epoch by :class:`SLOEngine`; breaches are counted, recorded in the
  flight recorder, surfaced as ``ACCURACY_SLO_BREACH`` monitor alerts,
  and can trigger a flight-recorder dump.

Everything is duck-typed over report/result objects (no dataplane or
controlplane imports) so the module sits below every instrumented
layer, like :mod:`repro.telemetry.publish`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.common.errors import ConfigError
from repro.telemetry.registry import MetricsRegistry

#: CountSketch envelope factor: per-row Chebyshev at 6 sigma-squared
#: gives a per-row failure probability of 1/6; the median over ``d``
#: rows fails only when half the rows do, so the envelope holds with
#: probability ``1 - exp(-d * KL(1/2 || 1/6))``.
_CS_ENVELOPE_FACTOR = 6.0
_CS_KL = 0.5 * math.log(0.5 / (1 / 6)) + 0.5 * math.log(0.5 / (5 / 6))

_SHADOW_SEED_SALT = 0x5AD0_0B5E


# ----------------------------------------------------------------------
# Theoretical bounds
# ----------------------------------------------------------------------
def sketch_error_bound(sketch) -> tuple[float, float] | None:
    """``(bound_bytes, confidence)`` for a counter-array sketch.

    Derived from the live sketch state, not the workload: ``N`` (the
    volume the sketch absorbed) is read back from the counter matrix,
    so the bound is correct after merges, rescales, and recovery
    re-injection.  Returns ``None`` for sketches without a published
    closed-form point-query bound.
    """
    counters = getattr(sketch, "counters", None)
    width = getattr(sketch, "width", None)
    depth = getattr(sketch, "depth", None)
    if counters is None or width is None or depth is None:
        return None
    name = getattr(sketch, "name", "")
    if name == "countmin":
        # Each packet lands once per row: N = sum / depth.  Point
        # queries overestimate by at most (e / w) * N with probability
        # 1 - (1/2)^d (Cormode & Muthukrishnan).
        volume = float(counters.sum()) / depth
        bound = math.e / width * volume
        confidence = 1.0 - 0.5**depth
        return bound, confidence
    if name == "countsketch":
        # Per-row sum of squares is an unbiased F2 estimator (cross
        # terms vanish under the sign hashes); the median robustifies.
        f2 = float(np.median((np.asarray(counters) ** 2).sum(axis=1)))
        bound = math.sqrt(_CS_ENVELOPE_FACTOR * max(f2, 0.0) / width)
        confidence = 1.0 - math.exp(-depth * _CS_KL)
        return bound, confidence
    return None


def publish_error_bounds(
    registry: MetricsRegistry, network, reports
) -> None:
    """Publish one epoch's theoretical error envelopes.

    ``network`` is the controller's ``NetworkResult``; ``reports`` the
    surviving per-host ``LocalReport`` list (used for the volume
    decomposition).  All gauges are end-of-epoch absolutes.
    """
    sketch = network.sketch
    envelope = sketch_error_bound(sketch)
    if envelope is not None:
        bound, confidence = envelope
        registry.gauge(
            "sketchvisor_accuracy_sketch_error_bound_bytes",
            "Theoretical per-flow point-query error envelope of the "
            "recovered sketch, from live parameters and counters",
        ).set(bound, sketch=sketch.name)
        registry.gauge(
            "sketchvisor_accuracy_sketch_error_bound_confidence",
            "Probability the per-flow envelope holds (1 - delta)",
        ).set(confidence, sketch=sketch.name)

    snapshot = network.snapshot
    if snapshot is not None and snapshot.tracked:
        registry.gauge(
            "sketchvisor_accuracy_fastpath_entry_uncertainty_bytes",
            "Largest per-entry uncertainty e in the merged fast-path "
            "table (Lemma 4.1: true size lies within [r+d, r+d+e])",
        ).set(float(snapshot.e.max()))
        registry.gauge(
            "sketchvisor_accuracy_fastpath_untracked_bound_bytes",
            "Upper bound on any untracked flow's fast-path bytes "
            "(Lemma 4.1: every flow larger than E is tracked)",
        ).set(snapshot.total_decremented)
        registry.gauge(
            "sketchvisor_accuracy_fastpath_envelope_bytes",
            "Theorem 2 leading error term V / (k + 1) of the merged "
            "fast path",
        ).set(snapshot.total_bytes / (snapshot.tracked + 1))

    # Volume decomposition of the recovered answer: where did each
    # byte the controller believes in come from?
    recovered = registry.gauge(
        "sketchvisor_accuracy_recovered_bytes",
        "Recovered epoch volume by component: normal-path counters, "
        "fast-path tracked flows, synthetic small-flow mass, and "
        "degraded-merge rescale inflation",
    )
    recovered.set(
        sum(r.switch.normal_bytes for r in reports), component="normal"
    )
    recovered.set(network.tracked_bytes, component="fastpath_tracked")
    recovered.set(
        network.small_flow_bytes, component="fastpath_small_flows"
    )
    degraded = network.degraded
    inflation_bytes = 0.0
    if degraded is not None and degraded.scale > 1.0:
        reported = sum(
            r.switch.normal_bytes + r.switch.fastpath_bytes
            for r in reports
        )
        inflation_bytes = (degraded.scale - 1.0) * reported
    recovered.set(inflation_bytes, component="missing_host_rescale")


# ----------------------------------------------------------------------
# Shadow ground truth
# ----------------------------------------------------------------------
@dataclass
class ShadowComparison:
    """Empirical error of one epoch against the shadow sample."""

    sampled_flows: int = 0
    #: Mean / max relative error of per-flow size estimates over the
    #: sample (``None`` when the recovered sketch has no point query).
    flow_are: float | None = None
    flow_max_re: float | None = None
    #: Sampled flows whose absolute error exceeded ``bound_bytes``.
    bound_violations: int = 0
    hh_precision: float | None = None
    hh_recall: float | None = None
    cardinality_re: float | None = None


class ShadowSampler:
    """Seeded uniform sample of an epoch's flows with exact sizes.

    The vectorized equivalent of per-flow reservoir sampling: one pass
    over the trace's ``key64``/``sizes`` columns (``np.unique`` +
    ``bincount``) yields exact byte counts for every distinct flow,
    from which a seeded subset of ``sample_size`` flows is kept.  Cost
    is O(packets) NumPy work per epoch — no per-packet Python, nothing
    on the data-plane hot path.
    """

    def __init__(self, sample_size: int = 256, seed: int = 1):
        if sample_size < 1:
            raise ConfigError("shadow sample size must be >= 1")
        self.sample_size = sample_size
        self.seed = seed
        self._epoch_count = 0
        #: Sampled ``FlowKey -> exact bytes`` for the last epoch.
        self.sample: dict = {}
        #: Exact distinct-flow count of the last epoch.
        self.true_cardinality = 0
        self.total_bytes = 0.0

    def observe_trace(self, trace) -> None:
        """Resample from one epoch's trace (call before it runs)."""
        keys = trace.key64
        sizes = trace.sizes
        uniques, first_index, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        per_flow = np.bincount(
            inverse, weights=sizes, minlength=len(uniques)
        )
        self.true_cardinality = int(len(uniques))
        self.total_bytes = float(sizes.sum())
        rng = np.random.default_rng(
            (self.seed ^ _SHADOW_SEED_SALT) + self._epoch_count
        )
        self._epoch_count += 1
        if len(uniques) <= self.sample_size:
            chosen = np.arange(len(uniques))
        else:
            chosen = rng.choice(
                len(uniques), size=self.sample_size, replace=False
            )
        table, flow = trace.table, trace.flow
        self.sample = {
            table[flow[first_index[i]]]: float(per_flow[i])
            for i in chosen
        }

    # ------------------------------------------------------------------
    def compare(
        self,
        network,
        answer=None,
        hh_threshold: float | None = None,
        bound_bytes: float | None = None,
    ) -> ShadowComparison:
        """Empirical error of a recovered epoch against the sample.

        ``network`` is the controller's ``NetworkResult``; ``answer``
        the task's answer (a ``{flow: size}`` dict for detection tasks,
        a scalar for cardinality).  ``bound_bytes`` is the published
        theoretical envelope — violations are counted so operators can
        watch bound tightness directly.
        """
        comparison = ShadowComparison(sampled_flows=len(self.sample))
        sketch = network.sketch
        estimate = getattr(sketch, "estimate", None)
        if estimate is not None and self.sample:
            errors = []
            violations = 0
            for flow, true_bytes in self.sample.items():
                try:
                    estimated = float(estimate(flow))
                except TypeError:
                    # Zero-arg estimate (cardinality sketches).
                    estimate = None
                    break
                error = abs(estimated - true_bytes)
                errors.append(error / max(true_bytes, 1.0))
                if bound_bytes is not None and error > bound_bytes:
                    violations += 1
            if estimate is not None and errors:
                comparison.flow_are = float(np.mean(errors))
                comparison.flow_max_re = float(np.max(errors))
                comparison.bound_violations = violations

        if (
            hh_threshold is not None
            and isinstance(answer, dict)
            and self.sample
        ):
            sampled_heavy = {
                flow
                for flow, size in self.sample.items()
                if size > hh_threshold
            }
            answered = set(answer)
            if sampled_heavy:
                comparison.hh_recall = len(
                    sampled_heavy & answered
                ) / len(sampled_heavy)
            answered_in_sample = answered & set(self.sample)
            if answered_in_sample:
                comparison.hh_precision = len(
                    answered_in_sample & sampled_heavy
                ) / len(answered_in_sample)

        if isinstance(answer, (int, float)) and self.true_cardinality:
            comparison.cardinality_re = (
                abs(float(answer) - self.true_cardinality)
                / self.true_cardinality
            )
        return comparison


def publish_shadow_comparison(
    registry: MetricsRegistry, comparison: ShadowComparison
) -> None:
    """Publish one epoch's empirical (shadow-sample) error gauges."""
    registry.gauge(
        "sketchvisor_accuracy_shadow_flows",
        "Flows in the shadow ground-truth sample this epoch",
    ).set(comparison.sampled_flows)
    if comparison.flow_are is not None:
        registry.gauge(
            "sketchvisor_accuracy_empirical_flow_are",
            "Mean relative error of per-flow size estimates over the "
            "shadow sample",
        ).set(comparison.flow_are)
        registry.gauge(
            "sketchvisor_accuracy_empirical_flow_max_re",
            "Worst relative error over the shadow sample",
        ).set(comparison.flow_max_re)
        registry.counter(
            "sketchvisor_accuracy_bound_violations_total",
            "Sampled flows whose empirical error exceeded the "
            "published theoretical envelope (expect <= delta share)",
        ).inc(comparison.bound_violations)
    if comparison.hh_precision is not None:
        registry.gauge(
            "sketchvisor_accuracy_empirical_hh_precision",
            "Heavy-hitter precision over answered flows in the sample",
        ).set(comparison.hh_precision)
    if comparison.hh_recall is not None:
        registry.gauge(
            "sketchvisor_accuracy_empirical_hh_recall",
            "Heavy-hitter recall over the shadow sample's heavy flows",
        ).set(comparison.hh_recall)
    if comparison.cardinality_re is not None:
        registry.gauge(
            "sketchvisor_accuracy_empirical_cardinality_re",
            "Relative error of the cardinality answer vs the exact "
            "per-epoch distinct-flow count",
        ).set(comparison.cardinality_re)


# ----------------------------------------------------------------------
# SLO policy + engine
# ----------------------------------------------------------------------
_OPS = {
    "<=": lambda value, threshold: value <= threshold,
    ">=": lambda value, threshold: value >= threshold,
    "<": lambda value, threshold: value < threshold,
    ">": lambda value, threshold: value > threshold,
}


@dataclass(frozen=True)
class SLORule:
    """One declarative objective over a published metric.

    ``op`` states the *requirement*: ``">="`` means the metric must
    stay at or above ``threshold``; the rule breaches when it does
    not.  ``labels`` selects one child of the family; empty means the
    sum across all label sets.  ``mode="delta"`` evaluates the
    per-epoch increment instead of the running value (what you want
    for counters).
    """

    name: str
    metric: str
    op: str
    threshold: float
    labels: tuple[tuple[str, str], ...] = ()
    mode: str = "value"

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ConfigError(
                f"SLO rule {self.name!r}: unknown op {self.op!r} "
                f"(use one of {sorted(_OPS)})"
            )
        if self.mode not in ("value", "delta"):
            raise ConfigError(
                f"SLO rule {self.name!r}: mode must be 'value' or "
                f"'delta', got {self.mode!r}"
            )

    @classmethod
    def from_dict(cls, spec: dict) -> "SLORule":
        try:
            return cls(
                name=str(spec.get("name") or spec["metric"]),
                metric=str(spec["metric"]),
                op=str(spec.get("op", "<=")),
                threshold=float(spec["threshold"]),
                labels=tuple(
                    sorted(
                        (str(k), str(v))
                        for k, v in (spec.get("labels") or {}).items()
                    )
                ),
                mode=str(spec.get("mode", "value")),
            )
        except KeyError as missing:
            raise ConfigError(
                f"SLO rule needs a {missing.args[0]!r} field: {spec!r}"
            ) from None

    def describe(self) -> str:
        labels = (
            "{" + ",".join(f"{k}={v}" for k, v in self.labels) + "}"
            if self.labels
            else ""
        )
        suffix = "/epoch" if self.mode == "delta" else ""
        return (
            f"{self.name}: {self.metric}{labels}{suffix} "
            f"{self.op} {self.threshold:g}"
        )


@dataclass
class SLOPolicy:
    """A named set of :class:`SLORule` objectives (JSON-loadable)."""

    rules: list[SLORule] = field(default_factory=list)
    name: str = "accuracy-slo"

    @classmethod
    def from_dict(cls, spec: dict) -> "SLOPolicy":
        rules = spec.get("rules")
        if not isinstance(rules, list) or not rules:
            raise ConfigError(
                "SLO policy needs a non-empty 'rules' list"
            )
        return cls(
            rules=[SLORule.from_dict(rule) for rule in rules],
            name=str(spec.get("name", "accuracy-slo")),
        )

    @classmethod
    def load(cls, path: str | Path) -> "SLOPolicy":
        try:
            spec = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ConfigError(
                f"cannot load SLO policy from {path}: {error}"
            ) from error
        return cls.from_dict(spec)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "rules": [
                {
                    "name": rule.name,
                    "metric": rule.metric,
                    "op": rule.op,
                    "threshold": rule.threshold,
                    "labels": dict(rule.labels),
                    "mode": rule.mode,
                }
                for rule in self.rules
            ],
        }


@dataclass(frozen=True)
class SLOBreach:
    """One rule failing its objective in one epoch."""

    epoch: int
    rule: str
    metric: str
    op: str
    threshold: float
    value: float

    def describe(self) -> str:
        return (
            f"epoch {self.epoch}: {self.rule} — {self.metric} = "
            f"{self.value:g}, requires {self.op} {self.threshold:g}"
        )


class SLOEngine:
    """Evaluate one :class:`SLOPolicy` against a registry per epoch.

    Rules over metrics that have not been published yet are skipped
    (absence of data is not a breach); ``mode="delta"`` rules keep the
    previous epoch's running value so counters are judged by their
    per-epoch increment.
    """

    def __init__(self, policy: SLOPolicy, registry: MetricsRegistry):
        self.policy = policy
        self.registry = registry
        self.breaches: list[SLOBreach] = []
        self._previous: dict[str, float] = {}

    def _current(self, rule: SLORule) -> float | None:
        if rule.labels:
            return self.registry.value(
                rule.metric, **dict(rule.labels)
            )
        family = self.registry._families.get(rule.metric)
        if family is None:
            return None
        return family.total()

    def evaluate(self, epoch: int) -> list[SLOBreach]:
        """Evaluate every rule once; returns this epoch's breaches."""
        breaches: list[SLOBreach] = []
        counters = self.registry.counter(
            "sketchvisor_slo_evaluations_total",
            "Per-epoch SLO policy evaluations",
        )
        breached = self.registry.counter(
            "sketchvisor_slo_breaches_total",
            "Accuracy-SLO rule breaches, labelled by rule name",
        )
        counters.inc(1)
        for rule in self.policy.rules:
            current = self._current(rule)
            if current is None:
                continue
            value = current
            if rule.mode == "delta":
                value = current - self._previous.get(rule.name, 0.0)
                self._previous[rule.name] = current
            if not _OPS[rule.op](value, rule.threshold):
                breach = SLOBreach(
                    epoch=epoch,
                    rule=rule.name,
                    metric=rule.metric,
                    op=rule.op,
                    threshold=rule.threshold,
                    value=value,
                )
                breaches.append(breach)
                breached.inc(1, rule=rule.name)
        self.breaches.extend(breaches)
        return breaches


# ----------------------------------------------------------------------
# Pipeline-facing facade
# ----------------------------------------------------------------------
class AccuracyObserver:
    """Everything the pipeline needs to watch its own accuracy.

    Owns the optional shadow sampler and SLO engine, publishes the
    theoretical-bound and empirical gauges each epoch, records SLO
    breaches into the telemetry's flight recorder, and auto-dumps the
    recorder when configured.
    """

    def __init__(
        self,
        telemetry,
        policy: SLOPolicy | None = None,
        shadow_samples: int = 0,
        seed: int = 1,
        recorder_path: str | Path | None = None,
    ):
        self.telemetry = telemetry
        self.sampler = (
            ShadowSampler(shadow_samples, seed=seed)
            if shadow_samples > 0
            else None
        )
        self.engine = (
            SLOEngine(policy, telemetry.registry)
            if policy is not None
            else None
        )
        self.recorder_path = recorder_path

    def observe_trace(self, trace) -> None:
        """Refresh the shadow sample for the epoch about to run."""
        if self.sampler is not None:
            self.sampler.observe_trace(trace)

    def observe_epoch(
        self, result, task, epoch: int
    ) -> list[SLOBreach]:
        """Publish accuracy telemetry for one finished epoch and
        evaluate the SLO policy; returns (and records) any breaches."""
        registry = self.telemetry.registry
        network = result.network
        publish_error_bounds(registry, network, result.reports)
        bound = sketch_error_bound(network.sketch)
        if self.sampler is not None:
            comparison = self.sampler.compare(
                network,
                answer=result.answer,
                hh_threshold=getattr(task, "threshold", None),
                bound_bytes=bound[0] if bound else None,
            )
            publish_shadow_comparison(registry, comparison)
        if self.engine is None:
            return []
        breaches = self.engine.evaluate(epoch)
        recorder = getattr(self.telemetry, "recorder", None)
        if breaches and recorder is not None:
            for breach in breaches:
                recorder.record(
                    "slo_breach",
                    epoch=epoch,
                    rule=breach.rule,
                    metric=breach.metric,
                    value=breach.value,
                    threshold=breach.threshold,
                    op=breach.op,
                )
            self.maybe_dump("slo_breach")
        return breaches

    def maybe_dump(self, reason: str) -> Path | None:
        """Dump the flight recorder if a dump path is configured."""
        recorder = getattr(self.telemetry, "recorder", None)
        if recorder is None or self.recorder_path is None:
            return None
        return recorder.dump(self.recorder_path, reason=reason)
