"""Draw-level scheduling of one grid point: the leasable stopping rule.

:class:`PointScheduler` factors the sequential-Monte-Carlo control flow
out of the executor loop into an object that *issues* batches of draw
indices and *absorbs* their results — without caring who runs them. The
single-pool executor (:func:`repro.campaign.executor.measure_point`)
drives one scheduler synchronously; the fleet coordinator
(:mod:`repro.fleet.coordinator`) leases each scheduler's batches to
remote workers and feeds entries back as they stream in. Both get their
schedulers from :func:`repro.campaign.executor.open_campaign`, which
feeds a resumed point's journaled draws to :meth:`PointScheduler.replay`.

Because both paths share this one object, they make *identical* stopping
decisions: convergence is only ever evaluated at batch boundaries, draws
are pushed into the accumulator in index order (float summation order
matters for byte-identical reports), and a draw index is accepted at
most once (exactly-once accounting under lease reassignment — a
re-executed draw is deterministic, so the duplicate is simply dropped).
"""

from repro.campaign.stats import PointAccumulator


class PointScheduler:
    """Batch iterator + stopping rule for one grid point.

    Protocol::

        while (batch := scheduler.next_batch()) is not None:
            for index in scheduler.pending():   # lease these draws
                ... run the draw ...
                scheduler.record(index, values, counts)
        reason = scheduler.stopped              # "ci" | "max_seeds" | "failed"

    ``record`` buffers out-of-order arrivals and pushes the whole batch
    into the accumulator in index order once complete; ``next_batch``
    returns the in-flight batch until then, so callers may re-lease the
    still-:meth:`pending` indices after a worker death.
    """

    def __init__(self, spec, point):
        self.spec = spec
        self.point = point
        self.acc = PointAccumulator(z=spec.z)
        #: stopping reason once decided ("ci", "max_seeds", "failed")
        self.stopped = None
        #: the failure that stopped the point (dict or RunFailure-like)
        self.failure = None
        self._batch = None  # in-flight range of draw indices
        self._buffer = {}  # index -> (values, counts) awaiting batch close

    @property
    def done(self):
        return self.stopped is not None

    def next_batch(self):
        """The in-flight (or next) batch of draw indices; None when done.

        A new batch is only opened once the previous one is fully
        recorded — the stopping rule is evaluated exactly at batch
        boundaries, mirroring the pre-refactor executor loop.
        """
        if self.stopped is not None:
            return None
        if self._batch is not None:
            return self._batch
        spec, acc = self.spec, self.acc
        if acc.n >= spec.min_seeds and acc.converged(spec.targets):
            self.stopped = "ci"
            return None
        if acc.n >= spec.max_seeds:
            self.stopped = "max_seeds"
            return None
        self._batch = range(
            acc.n, min(acc.n + spec.batch_size, spec.max_seeds)
        )
        return self._batch

    def pending(self):
        """Unrecorded indices of the in-flight batch (lease these)."""
        if self._batch is None:
            return []
        return [i for i in self._batch if i not in self._buffer]

    def record(self, index, values, counts):
        """Absorb one completed draw; True if it was new and accepted.

        Indices outside the in-flight batch (already pushed, or from a
        stale revoked lease) are rejected — this is the exactly-once
        gate: every draw index enters the accumulator at most once no
        matter how many workers re-executed it.
        """
        if (
            self.stopped is not None
            or self._batch is None
            or index not in self._batch
            or index in self._buffer
        ):
            return False
        self._buffer[index] = (values, counts)
        if len(self._buffer) == len(self._batch):
            for i in self._batch:
                v, c = self._buffer.pop(i)
                self.acc.push(v, c)
            self._batch = None
        return True

    def replay(self, records):
        """Feed a point's journaled ``run`` records back in; returns self.

        Full batches close and test the stopping rule where the live run
        did. A partly journaled batch stays in flight with only its
        missing indices :meth:`pending`.
        """
        draws = {r["index"]: (r["metrics"], r["counts"]) for r in records}
        while self.next_batch() is not None:
            pending = self.pending()
            for i in pending:
                if i in draws:
                    self.record(i, *draws[i])
            if not draws.keys() >= set(pending):
                break
        return self

    def fail(self, failure):
        """Stop the point on a run failure.

        Draws of the in-flight batch that completed *before* the failing
        index stay (pushed in index order), matching the single-pool
        executor, which processes a batch sequentially and aborts at the
        first :class:`~repro.verify.bundle.RunFailure`.
        """
        if self._batch is not None:
            for i in self._batch:
                if i not in self._buffer:
                    break
                v, c = self._buffer.pop(i)
                self.acc.push(v, c)
        self._buffer.clear()
        self._batch = None
        self.stopped = "failed"
        self.failure = failure

    def completion_event(self):
        """The journal ``point`` event for this (stopped) point."""
        from repro.campaign.journal import point_event

        failure = self.failure
        if failure is not None and not isinstance(failure, dict):
            failure = failure_record(failure)
        return point_event(
            self.point.id, self.acc.n, self.stopped,
            self.acc.summary() if self.acc.n else None, failure,
        )


def failure_record(failure):
    """Journal/wire form of a :class:`~repro.verify.bundle.RunFailure`."""
    return {
        "kind": failure.kind,
        "spec": repr(failure.spec),
        "bundle": failure.bundle_path,
    }
