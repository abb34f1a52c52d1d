"""Simulator self-profiling: where does the *Python* time go?

Wraps a core's per-cycle stage methods (fetch, dispatch, select/issue,
commit, event processing) with ``perf_counter`` accounting, so a run can
report wall-clock seconds and call counts per simulator stage — the data
behind docs/performance.md's hot-path work, now available from any run.

The disabled path costs nothing measurable: profiling *replaces* the
bound methods on one core instance before its run loop binds them; with
profiling off, no wrapper exists and the loop executes the original
methods untouched. (The numbers are wall-clock and therefore
nondeterministic; they are excluded from telemetry determinism
guarantees, and the result cache never stores or serves a profiled
run.)
"""

from time import perf_counter


class SelfProfiler:
    """Per-stage wall-clock accounting of one core's simulation loop."""

    #: label -> OoOCore method wrapped (run() rebinds these each call,
    #: so wrapping the instance attribute is enough)
    STAGES = (
        ("fetch", "_fetch"),
        ("dispatch", "_dispatch"),
        ("select", "_select"),
        ("commit", "_commit"),
        ("events", "_process_events"),
    )

    def __init__(self):
        self.seconds = {label: 0.0 for label, _ in self.STAGES}
        self.calls = {label: 0 for label, _ in self.STAGES}
        self._t_start = None
        self.wall_seconds = 0.0

    def attach(self, core):
        """Wrap ``core``'s stage methods; call before ``core.run``."""
        for label, attr in self.STAGES:
            setattr(core, attr, self._wrap(label, getattr(core, attr)))
        self._t_start = perf_counter()
        return self

    def _wrap(self, label, fn):
        seconds = self.seconds
        calls = self.calls

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[label] += perf_counter() - t0
                calls[label] += 1

        return timed

    def stop(self):
        """Close the wall-clock window opened by :meth:`attach`."""
        if self._t_start is not None:
            self.wall_seconds = perf_counter() - self._t_start
            self._t_start = None
        return self

    def report(self):
        """JSON-safe breakdown: per-stage seconds/calls + the remainder.

        ``other_seconds`` is the run-loop residue — scheduling, watchdog
        checks, and everything not inside a wrapped stage method.
        """
        self.stop()
        staged = sum(self.seconds.values())
        return {
            "wall_seconds": self.wall_seconds,
            "other_seconds": max(self.wall_seconds - staged, 0.0),
            "stages": {
                label: {
                    "seconds": self.seconds[label],
                    "calls": self.calls[label],
                }
                for label, _ in self.STAGES
            },
        }
