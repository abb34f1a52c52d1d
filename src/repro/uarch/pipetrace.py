"""Pipeline timeline visualization (gem5-O3-pipeview style, in ASCII).

Records retired instructions flowing through a core and renders a
per-instruction cycle timeline::

    seq  pc      op      |f....d.i.ec              |
    seq  pc      op      |f....d..i.ec             |

with ``f`` fetch, ``d`` dispatch, ``i`` issue (select), ``c`` complete
(writeback) and ``r`` retire. Useful for debugging scheduling behaviour
and for demonstrating the VTE mechanisms instruction by instruction.

:class:`PipeTracer` is a subscriber of the telemetry event bus
(:class:`~repro.telemetry.events.EventBus`): the pipeline emits one
``retire`` event per committed instruction and the tracer snapshots its
stage cycles from the payload. Attaching a tracer to a core without a
bus installs one, so the same recording feeds the ASCII renderer here
and the Perfetto/JSONL exporters in :mod:`repro.telemetry`.
"""


class PipeTraceRecord:
    """Stage cycles of one dynamic instruction."""

    __slots__ = ("seq", "pc", "op", "fetch", "dispatch", "issue",
                 "complete", "commit", "faulty", "predicted")

    @classmethod
    def from_retire_event(cls, cycle, payload):
        """Build a record from a bus ``retire`` event payload."""
        record = cls()
        record.seq = payload["seq"]
        record.pc = payload["pc"]
        record.op = payload["op"]
        record.fetch = payload["fetch"]
        record.dispatch = payload["dispatch"]
        record.issue = payload["issue"]
        record.complete = payload["complete"]
        record.commit = cycle
        record.faulty = payload["faulty"]
        record.predicted = payload["predicted"]
        return record


class PipeTracer:
    """Subscribes to a core's event bus and records every retirement.

    Usage::

        core = build_core(spec)
        tracer = PipeTracer(core)
        core.run(200)
        print(tracer.render())

    At most ``max_records`` instructions are kept; further retirements
    are *counted* (``dropped``) and the :meth:`render` header reports
    them, so a truncated trace never masquerades as a complete one.
    """

    def __init__(self, core, max_records=10_000, bus=None):
        self.max_records = max_records
        self.dropped = 0
        self._records = []
        if bus is None:
            bus = core.ebus
            if bus is None:
                from repro.telemetry.events import EventBus

                bus = EventBus()
                core.ebus = bus
        self.bus = bus
        bus.subscribe("retire", self._on_retire)

    def _on_retire(self, cycle, _name, payload):
        if len(self._records) >= self.max_records:
            self.dropped += 1
            return
        self._records.append(PipeTraceRecord.from_retire_event(cycle, payload))

    def records(self):
        """Snapshot of the recorded trace records, in commit order."""
        return list(self._records)

    def render(self, first_seq=0, count=32, width=80):
        """Render a timeline for ``count`` instructions from ``first_seq``."""
        records = [
            r for r in self._records
            if first_seq <= r.seq < first_seq + count and r.fetch >= 0
        ]
        return render_records(records, width=width, dropped=self.dropped)


_STAGES = (
    ("fetch", "f"),
    ("dispatch", "d"),
    ("issue", "i"),
    ("complete", "c"),
    ("commit", "r"),
)


def render_records(records, width=80, dropped=0):
    """Render timeline rows for a list of :class:`PipeTraceRecord`."""
    if not records:
        if dropped:
            return f"(no instructions recorded; {dropped} records dropped)"
        return "(no instructions recorded)"
    t0 = min(r.fetch for r in records if r.fetch >= 0)
    t_end = max(
        max(getattr(r, name) for name, _ in _STAGES) for r in records
    )
    span = min(t_end - t0 + 1, width)
    header = (
        f"cycles {t0}..{t0 + span - 1} "
        f"(f=fetch d=dispatch i=issue c=complete r=retire, * = faulty)"
    )
    if dropped:
        header += f" [{dropped} records dropped past the cap]"
    lines = [header]
    for r in records:
        row = ["."] * span
        for name, letter in _STAGES:
            cycle = getattr(r, name)
            if cycle >= 0 and 0 <= cycle - t0 < span:
                row[cycle - t0] = letter
        marker = "*" if r.faulty else (":" if r.predicted else " ")
        lines.append(
            f"{r.seq:>5} {r.pc:#08x} {r.op:<7}{marker}|{''.join(row)}|"
        )
    return "\n".join(lines)
