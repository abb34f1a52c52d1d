"""Telemetry configuration: what to record and at what granularity.

A :class:`TelemetryConfig` rides on :class:`~repro.harness.runner.RunSpec`
and is part of ``RunSpec.canonical()``: two specs that differ only in
telemetry settings are distinct cache entries, so a cached result always
carries exactly the telemetry its spec asked for.

Telemetry never changes simulation outcomes — the sampler and event bus
only *read* machine state — but it does change what a run returns, which
is why it participates in the cache key. Profiled runs are never cached
at all: their wall-clock seconds belong to the run that measured them.
"""

from repro.record import Record


class TelemetryConfig(Record):
    """Knobs of the telemetry subsystem; all-off means "no telemetry".

    Parameters
    ----------
    metrics:
        Record a cycle-windowed :class:`~repro.telemetry.metrics.
        MetricsSeries` (IPC, occupancies, fault/replay/stall rates, TEP
        hit/false-positive rates) sampled every ``interval`` cycles.
    interval:
        Sampling window in cycles.
    events:
        Record structured pipeline events (fault detections, TEP
        predict/train, VTE padding, slot freezes, replays, squashes...)
        into a bounded ring buffer of ``event_capacity`` entries.
    event_capacity:
        Ring-buffer bound; the oldest events are dropped (and counted)
        once it fills.
    profile:
        Wall-clock self-profiling of the simulator's own stage methods
        (fetch/dispatch/select/commit/events). Nondeterministic by
        nature; excluded from determinism guarantees, and a profiled
        run is never cached.
    """

    FIELDS = ("metrics", "interval", "events", "event_capacity", "profile")

    def __init__(self, metrics=True, interval=500, events=False,
                 event_capacity=65536, profile=False):
        self.metrics = bool(metrics)
        self.interval = int(interval)
        self.events = bool(events)
        self.event_capacity = int(event_capacity)
        self.profile = bool(profile)
        if self.metrics and self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.events and self.event_capacity <= 0:
            raise ValueError("event_capacity must be positive")

    @property
    def enabled(self):
        """True when any telemetry layer is on."""
        return self.metrics or self.events or self.profile
