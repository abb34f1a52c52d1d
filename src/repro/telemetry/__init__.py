"""Telemetry subsystem: metrics, event tracing, and self-profiling.

Three opt-in layers over the cycle-level simulator (see
docs/observability.md):

* **metrics** — :class:`~repro.telemetry.metrics.IntervalSampler`
  snapshots IPC, queue occupancies, fault/replay/stall rates, and TEP
  accuracy every N cycles into a :class:`~repro.telemetry.metrics.
  MetricsSeries` (JSON/CSV-exportable, mergeable across campaign
  points).
* **events** — an :class:`~repro.telemetry.events.EventBus` records
  structured pipeline events (faults, predictions, pads, freezes,
  replays, retires) into a bounded ring, exported as JSONL or
  Chrome/Perfetto ``trace_event`` JSON
  (:mod:`repro.telemetry.perfetto`).
* **profile** — :class:`~repro.telemetry.profile.SelfProfiler` accounts
  the simulator's own wall-clock time per stage method.

The harness entry point is :func:`attach_telemetry`: given a core and a
:class:`~repro.telemetry.config.TelemetryConfig`, it wires the requested
layers and returns a :class:`TelemetryCollector` whose
:meth:`~TelemetryCollector.finalize` packs everything into a picklable
:class:`TelemetryResult` riding on the run's ``SimResult``.
"""

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.events import EventBus, events_to_jsonl, write_jsonl
from repro.telemetry.metrics import (
    IntervalSampler,
    MetricsRegistry,
    MetricsSeries,
    default_registry,
)
from repro.telemetry.perfetto import to_perfetto, validate_trace, write_perfetto
from repro.telemetry.profile import SelfProfiler

__all__ = [
    "EventBus",
    "IntervalSampler",
    "MetricsRegistry",
    "MetricsSeries",
    "SelfProfiler",
    "TelemetryCollector",
    "TelemetryConfig",
    "TelemetryResult",
    "attach_telemetry",
    "default_registry",
    "events_to_jsonl",
    "to_perfetto",
    "validate_trace",
    "write_jsonl",
    "write_perfetto",
]


class TelemetryResult:
    """Picklable telemetry payload of one run.

    ``metrics`` is a :class:`MetricsSeries` (or ``None``); ``events`` a
    list of ``(cycle, name, payload)`` tuples; ``profile`` the
    self-profiler's report dict. Plain data throughout, so results
    survive multiprocessing fan-out and the on-disk result cache
    unchanged.
    """

    def __init__(self, config, metrics=None, events=None, event_counts=None,
                 events_emitted=0, events_dropped=0, profile=None):
        self.config = config
        self.metrics = metrics
        self.events = events
        self.event_counts = event_counts or {}
        self.events_emitted = events_emitted
        self.events_dropped = events_dropped
        self.profile = profile

    def to_dict(self):
        """JSON-safe flattening (exports, campaign journals)."""
        return {
            "config": self.config.to_dict(),
            "metrics": (
                self.metrics.to_dict() if self.metrics is not None else None
            ),
            "events": (
                [
                    dict(payload, ts=cycle, ev=name)
                    for cycle, name, payload in self.events
                ]
                if self.events is not None else None
            ),
            "event_counts": dict(self.event_counts),
            "events_emitted": self.events_emitted,
            "events_dropped": self.events_dropped,
            "profile": self.profile,
        }

    def summary(self):
        """Compact per-run summary journaled with a campaign draw.

        The interval-metrics summary (``None`` when the metrics layer
        was off) plus, when event tracing ran, the ``dropped_events``
        tally — so ring-buffer truncation is visible wherever the
        summary travels, not just in a rendered trace.
        """
        if self.metrics is None:
            return None
        out = self.metrics.summary()
        if self.events is not None:
            out["dropped_events"] = self.events_dropped
        return out

    def __repr__(self):
        windows = len(self.metrics) if self.metrics is not None else 0
        n_events = len(self.events) if self.events is not None else 0
        return (
            f"TelemetryResult(windows={windows}, events={n_events}, "
            f"dropped={self.events_dropped}, "
            f"profiled={self.profile is not None})"
        )


class TelemetryCollector:
    """Live telemetry attachments of one core, finalized after its run."""

    def __init__(self, config, sampler=None, bus=None, profiler=None):
        self.config = config
        self.sampler = sampler
        self.bus = bus
        self.profiler = profiler

    def finalize(self, core):
        """Detach and pack everything into a :class:`TelemetryResult`."""
        metrics = (
            self.sampler.finalize(core) if self.sampler is not None else None
        )
        events = event_counts = None
        emitted = dropped = 0
        if self.bus is not None:
            events = self.bus.events()
            event_counts = self.bus.counts()
            emitted = self.bus.emitted
            dropped = self.bus.dropped
            # surface ring evictions on the run's own counters too, so
            # stats.as_dict() exports carry them without a telemetry
            # payload in hand
            core.stats.dropped_events = dropped
        profile = (
            self.profiler.report() if self.profiler is not None else None
        )
        return TelemetryResult(
            self.config, metrics=metrics, events=events,
            event_counts=event_counts, events_emitted=emitted,
            events_dropped=dropped, profile=profile,
        )


def attach_telemetry(core, config):
    """Wire ``config``'s telemetry layers onto ``core``.

    Returns a :class:`TelemetryCollector`, or ``None`` when ``config``
    is ``None`` or all-off. Attach *after* warmup (the sampler starts
    its first window at the core's current cycle) and *before* the
    measured ``core.run`` call: the profiler wraps methods the loop
    binds at entry, and the loop latches the sampler at entry (a
    sampler attached mid-window is picked up at the next 1024-cycle
    re-latch).
    """
    if config is None or not config.enabled:
        return None
    sampler = bus = profiler = None
    if config.metrics:
        sampler = IntervalSampler(config.interval).attach(core)
    if config.events:
        bus = EventBus(config.event_capacity)
        core.ebus = bus
    if config.profile:
        profiler = SelfProfiler().attach(core)
    return TelemetryCollector(config, sampler, bus, profiler)
