"""Cycle-level performance observability for the pipeline.

SketchVisor's design is a CPU-budget argument — the fast path exists
because per-packet cycles in a software switch are the scarce resource
— so the reproduction needs to *see* where an epoch's cycles go, not
just its end-to-end wall time.  Three cooperating pieces, all gated
behind :class:`ProfileConfig` / ``REPRO_PROFILE`` and costing nothing
when off:

* **stage timers** — every :func:`repro.telemetry.trace_span` site
  becomes a wall (``perf_counter_ns``) + CPU (``process_time_ns``)
  accounting stage when a profiler is attached; hot loops credit
  sub-stages (fast-path top-k, vectorized sketch updates, hashing)
  through :meth:`Profiler.add` without opening a span per packet.
  Stage totals export as histogram metrics
  (:func:`repro.telemetry.publish.publish_profile_epoch`) and inline
  sub-stages materialize as synthetic children in the Chrome trace;
* a **sampling profiler** — a daemon thread walks the profiled
  thread's Python stack at a configurable rate
  (``sys._current_frames``; no signals, so it is safe under pytest)
  and aggregates collapsed stacks per stage, ready for ``.folded``
  dumps and the flamegraph renderer in :mod:`repro.dash`;
* **memory high-water tracking** — an RSS gauge from
  ``/proc/self/statm`` (``getrusage`` fallback).

One profiler serves the whole run: the pipeline runs its hosts one at
a time in-process, supervised or not, attaching the profiler to each
host's switch and running that host's epoch as one ``dataplane.host``
stage.

Determinism contract: profiling only *observes*.  Wrapped hash methods
call the originals unchanged, stage timers never reorder work, and the
sampler only reads frames — a profiled run is bit-identical to an
unprofiled one.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.telemetry.tracer import Span, Tracer

__all__ = [
    "ProfileConfig",
    "Profiler",
    "StackSampler",
    "epoch_attribution",
    "write_folded",
]

#: Maximum frames kept per collapsed stack sample.
_MAX_STACK_DEPTH = 64

#: The profiler whose stage stack the hash instrumentation credits.
#: Module-global so wrapped :class:`HashFamily` methods resolve it in
#: one load; ``None`` whenever no stage is open anywhere.
_ACTIVE: "Profiler | None" = None

#: Refcount of installed hash-method wrappers (nested activations).
_HASH_INSTALLS = 0
_HASH_ORIGINALS: dict[str, object] = {}

#: HashFamily methods instrumented while a profiler is active.  The
#: scalar per-key entry points and the vectorized array entry points
#: both appear, so per-packet and kernel paths attribute hashing alike.
_HASH_METHODS = (
    "hash_value",
    "bucket",
    "buckets",
    "sign",
    "signs",
    "uniform01",
    "hash_values_array",
    "buckets_array",
    "signs_array",
)


@dataclass
class ProfileConfig:
    """Knobs of the profiling subsystem (presence = enabled).

    Stage timers are always on while a config is attached; the stack
    sampler rides on top.
    """

    #: Stack-sampler rate; 0 disables sampling (stage timers remain).
    #: 97 Hz — prime, so it does not phase-lock with periodic work.
    sample_hz: float = 97.0


class _StageFrame:
    """One open stage on the profiler's stack."""

    __slots__ = ("name", "inline")

    def __init__(self, name: str) -> None:
        self.name = name
        #: Inline sub-stage credits: name -> [wall_ns, count].
        self.inline: dict[str, list[int]] = {}


class StackSampler:
    """Thread-based stack sampler for one target thread.

    Wakes every ``1/hz`` seconds, reads the target thread's current
    Python frame via ``sys._current_frames()``, and counts the
    collapsed stack under the profiler's open stage.  Sampling only
    happens while a stage is open, so idle time between epochs costs
    one clock read per tick.
    """

    def __init__(self, profiler: "Profiler", hz: float) -> None:
        self.profiler = profiler
        self.interval = 1.0 / max(hz, 1e-3)
        self._target_tid = threading.get_ident()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None

    def _run(self) -> None:
        profiler = self.profiler
        while not self._stop.wait(self.interval):
            stack = profiler._stack
            if not stack:
                continue
            try:
                stage = stack[-1].name
            except IndexError:  # stage closed between checks
                continue
            frame = sys._current_frames().get(self._target_tid)
            if frame is None:
                continue
            names: list[str] = []
            while frame is not None and len(names) < _MAX_STACK_DEPTH:
                code = frame.f_code
                names.append(
                    f"{Path(code.co_filename).stem}:{code.co_name}"
                )
                frame = frame.f_back
            names.reverse()
            key = ";".join([stage, *names])
            folded = profiler.folded
            folded[key] = folded.get(key, 0) + 1
            profiler.sample_counts[stage] = (
                profiler.sample_counts.get(stage, 0) + 1
            )


def _wrap_hash_method(name: str, original):
    def wrapped(self, *args, **kwargs):
        profiler = _ACTIVE
        if profiler is None:
            return original(self, *args, **kwargs)
        t0 = time.perf_counter_ns()
        try:
            return original(self, *args, **kwargs)
        finally:
            profiler.add("hashing", time.perf_counter_ns() - t0)

    wrapped.__name__ = original.__name__
    wrapped.__doc__ = original.__doc__
    wrapped.__wrapped__ = original
    return wrapped


def _install_hash_instrumentation() -> None:
    global _HASH_INSTALLS
    _HASH_INSTALLS += 1
    if _HASH_INSTALLS > 1:
        return
    from repro.common.hashing import HashFamily

    for name in _HASH_METHODS:
        original = getattr(HashFamily, name)
        _HASH_ORIGINALS[name] = original
        setattr(HashFamily, name, _wrap_hash_method(name, original))


def _uninstall_hash_instrumentation() -> None:
    global _HASH_INSTALLS
    if _HASH_INSTALLS == 0:
        return
    _HASH_INSTALLS -= 1
    if _HASH_INSTALLS:
        return
    from repro.common.hashing import HashFamily

    for name, original in _HASH_ORIGINALS.items():
        setattr(HashFamily, name, original)
    _HASH_ORIGINALS.clear()


def _read_rss_bytes() -> int:
    """Current resident set size of this process, in bytes."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        try:
            import resource

            # ru_maxrss is KiB on Linux (bytes on macOS; close enough
            # for a high-water gauge on the fallback path).
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        except Exception:
            return 0


class Profiler:
    """Per-process stage accounting + sampling + memory high-water.

    One profiler serves one :class:`~repro.telemetry.Telemetry`
    instance; it opens tracer spans for every stage (so profiling and
    tracing stay one tree) and publishes per-epoch stage histograms
    when the outermost stage closes.
    """

    def __init__(
        self, telemetry, config: ProfileConfig | None = None
    ) -> None:
        self.telemetry = telemetry
        self.config = config or ProfileConfig()
        #: Cumulative stage totals: name -> [wall_ns, cpu_ns, count].
        self.stages: dict[str, list[int]] = {}
        #: Collapsed stacks: "stage;frame;..." -> sample count.
        self.folded: dict[str, int] = {}
        #: Samples attributed per stage (sampler bookkeeping).
        self.sample_counts: dict[str, int] = {}
        #: RSS high-water per contributing process: pid(str) -> bytes.
        self.rss: dict[str, int] = {}
        self._stack: list[_StageFrame] = []
        self._sampler: StackSampler | None = None
        self._window_base: dict[str, list[int]] = {}

    # -- stage timers --------------------------------------------------
    @contextmanager
    def stage(self, name: str, **attrs):
        """Open one named stage (wall + CPU accounting + tracer span)."""
        if not self._stack:
            self._activate()
        tracer: Tracer = self.telemetry.tracer
        index = len(tracer.spans)
        frame = _StageFrame(name)
        self._stack.append(frame)
        cpu0 = time.process_time_ns()
        wall0 = time.perf_counter_ns()
        try:
            with tracer.span(name, **attrs) as span:
                yield span
        finally:
            wall = time.perf_counter_ns() - wall0
            cpu = time.process_time_ns() - cpu0
            self._stack.pop()
            stat = self.stages.setdefault(name, [0, 0, 0])
            stat[0] += wall
            stat[1] += cpu
            stat[2] += 1
            if frame.inline:
                self._materialize_inline(frame, tracer, index)
            if not self._stack:
                self._deactivate()

    def add(self, name: str, wall_ns: int, count: int = 1) -> None:
        """Credit inline-accumulated work to the open stage.

        Hot loops call this once per batch (or per packet, against a
        locally hoisted clock) instead of opening a span: the credit
        lands in :attr:`stages` and becomes a synthetic child span of
        the enclosing stage when it closes.  A credit with no open
        stage is dropped — it has nothing to attach to.
        """
        if not self._stack:
            return
        inline = self._stack[-1].inline
        entry = inline.get(name)
        if entry is None:
            inline[name] = [wall_ns, count]
        else:
            entry[0] += wall_ns
            entry[1] += count

    def _materialize_inline(
        self, frame: _StageFrame, tracer: Tracer, index: int
    ) -> None:
        parent = tracer.spans[index]
        for child_name, (wall_ns, count) in frame.inline.items():
            stat = self.stages.setdefault(child_name, [0, 0, 0])
            stat[0] += wall_ns
            # Inline credits are wall-clock only; hot single-threaded
            # loops are CPU-bound, so wall is the best CPU estimate.
            stat[1] += wall_ns
            stat[2] += count
            tracer.spans.append(
                Span(
                    name=child_name,
                    start=parent.start,
                    duration=wall_ns / 1e9,
                    depth=parent.depth + 1,
                    parent=index,
                    attrs={"aggregated": count},
                    pid=tracer.pid,
                    tid=parent.tid,
                )
            )

    # -- activation lifecycle ------------------------------------------
    def _activate(self) -> None:
        global _ACTIVE
        _ACTIVE = self
        _install_hash_instrumentation()
        self._window_base = {
            name: list(stat) for name, stat in self.stages.items()
        }
        if self.config.sample_hz > 0:
            self._sampler = StackSampler(self, self.config.sample_hz)
            self._sampler.start()

    def _deactivate(self) -> None:
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = None
        _uninstall_hash_instrumentation()
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None
        self.rss[str(os.getpid())] = max(
            self.rss.get(str(os.getpid()), 0), _read_rss_bytes()
        )
        self._publish_window()

    def _publish_window(self) -> None:
        from repro.telemetry.publish import publish_profile_epoch

        deltas: dict[str, tuple[float, float]] = {}
        for name, stat in self.stages.items():
            base = self._window_base.get(name, [0, 0, 0])
            wall = (stat[0] - base[0]) / 1e9
            cpu = (stat[1] - base[1]) / 1e9
            if wall > 0 or cpu > 0:
                deltas[name] = (wall, cpu)
        self._window_base = {}
        publish_profile_epoch(
            self.telemetry.registry, deltas, self.rss
        )

    def close(self) -> None:
        """Stop the sampler thread if a stage body leaked an exception
        past the activation window (defensive; normally a no-op)."""
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None

    # -- views ---------------------------------------------------------
    def stage_table(self) -> dict[str, dict[str, float]]:
        """Cumulative per-stage totals in seconds, for reports."""
        return {
            name: {
                "wall_seconds": stat[0] / 1e9,
                "cpu_seconds": stat[1] / 1e9,
                "count": stat[2],
            }
            for name, stat in sorted(
                self.stages.items(), key=lambda kv: -kv[1][0]
            )
        }


def epoch_attribution(tracer: Tracer, root: str = "epoch") -> float:
    """Fraction of the root span's wall time its children account for.

    The acceptance bar for stage attribution: on the bench workload the
    direct children of the ``epoch`` span must cover >= 90% of its
    duration.  Returns 0.0 when no closed root span exists; multiple
    root spans average.
    """
    fractions = []
    for index, span in enumerate(tracer.spans):
        if span.name != root or span.duration <= 0:
            continue
        covered = sum(
            child.duration
            for child in tracer.spans
            if child.parent == index
        )
        fractions.append(min(covered / span.duration, 1.0))
    if not fractions:
        return 0.0
    return sum(fractions) / len(fractions)


def write_folded(
    folded: dict[str, int], destination: str | Path
) -> Path:
    """Write collapsed stacks in the standard ``.folded`` format
    (``frame;frame;frame count`` per line), consumable by any
    flamegraph tool as well as :func:`repro.dash.flamegraph_svg`."""
    path = Path(destination)
    lines = [
        f"{key} {count}"
        for key, count in sorted(folded.items())
    ]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path
