"""Sequential Monte Carlo executor with confidence-driven stopping.

For each grid point the executor runs *batches* of seed draws (each draw
is a paired scheme + fault-free simulation of the same seed) through the
batch engine, updates the point's :class:`~repro.campaign.stats.
PointAccumulator`, and stops as soon as every target metric's confidence
interval is tighter than its target half-width — or at ``max_seeds``.
Points with low seed-to-seed variance therefore cost a fraction of a
fixed-N design at the same statistical quality (pinned by
``tests/campaign/test_executor.py``).

Progress is journaled draw-by-draw (:mod:`repro.campaign.journal`), so
an interrupted campaign resumes exactly: completed points are skipped
outright, partial points replay their recorded draws into the
accumulator and continue from the next index, and the shared result
cache makes any re-executed in-flight run nearly free.

Every draw runs through one generator, :func:`run_draws`: the
single-pool executor drives it once per scheduler batch, and fleet
workers (:mod:`repro.fleet.worker`) drive it once per lease, so both
journal the same ``run`` events by construction.

Worker failures are bounded: a batch that raises (worker crash) or
exceeds the per-run timeout is retried up to ``retries`` times before
the campaign aborts with :class:`CampaignError`; the journal keeps every
draw that finished, so an abort is always resumable.
"""

import os

from repro.campaign.journal import (
    Journal,
    point_event,
    read_manifest,
    run_event,
    write_manifest,
)
from repro.campaign.plan import CampaignSpec, extract_metrics
from repro.campaign.scheduler import PointScheduler, failure_record
from repro.campaign.stats import PointAccumulator
from repro.harness.parallel import ResultCache, run_many


class CampaignError(RuntimeError):
    """A campaign could not proceed (exhausted retries, bad state...)."""


def make_run_fn(jobs=1, cache=True, cache_dir=None, timeout=None, retries=2,
                batch_lanes=None):
    """Build the ``specs -> results`` callable that :func:`run_draws` drives.

    Each call is one :func:`~repro.harness.parallel.run_many` batch with
    bounded retry: an exception (worker crash, ``timeout`` breach) is
    retried up to ``retries`` times, then raised as
    :class:`CampaignError`. Completed runs persist in the result cache
    across attempts, so retries only re-execute the failures.

    ``timeout`` is ``run_many``'s per-run budget. ``batch_lanes >= 2``
    routes draws sharing a warmup snapshot through the lockstep batch
    engine (bit-identical, several times faster per draw), with or
    without a ``timeout``.
    """
    if isinstance(cache, ResultCache):
        store = cache
    elif cache:
        store = ResultCache(cache_dir)
    else:
        store = None

    def run_fn(specs):
        last_error = None
        for _attempt in range(retries + 1):
            try:
                return run_many(specs, jobs=jobs, cache=store or False,
                                batch_lanes=batch_lanes, timeout=timeout)
            except Exception as exc:  # noqa: BLE001 — worker crash/timeout
                last_error = exc
        raise CampaignError(
            f"batch failed after {retries + 1} attempts: {last_error!r}"
        )

    return run_fn


def draw_metadata(run_spec, result):
    """``(telemetry_summary, snapshot_key)`` journaled with one draw.

    ``telemetry_summary`` is the scheme run's interval-metrics summary
    dict (``None`` unless the campaign set a telemetry interval);
    ``snapshot_key`` is the warmup snapshot key the run forked from
    (``None`` when the draw ran cold). :func:`run_draws` calls it for
    every draw it journals.
    """
    telem = getattr(result, "telemetry", None)
    summary = telem.summary() if telem is not None else None
    snapshot_key = None
    if getattr(run_spec, "snapshot_dir", None) is not None:
        from repro.snapshot import snapshot_eligible

        if snapshot_eligible(run_spec):
            snapshot_key = run_spec.warmup_key()
    return summary, snapshot_key


def run_draws(spec, point, indices, run_fn, step=None):
    """Execute draws ``indices`` of ``point``; yield each outcome in order.

    Builds every draw's (scheme, fault-free baseline) pair with
    :meth:`~repro.campaign.plan.CampaignSpec.pair_specs` and calls
    ``run_fn(specs) -> results`` once per ``step`` draws (default: all
    of them in one call). Each distinct baseline spec is sent only with
    the first chunk that needs it; later draws reuse that result.

    Yields ``(index, run_event, None)`` per completed draw, where
    ``run_event`` is the journal ``run`` event. For the first draw whose
    scheme run or baseline came back as a
    :class:`~repro.verify.bundle.RunFailure` it yields ``(index, None,
    failure)`` and stops.
    """
    indices = list(indices)
    step = step or max(1, len(indices))
    baselines = {}  # baseline spec key -> result, reused across chunks
    for at in range(0, len(indices), step):
        chunk = indices[at:at + step]
        pairs = [spec.pair_specs(point, i) for i in chunk]
        base_keys = [base_spec.key() for _run, base_spec in pairs]
        fresh = {
            key: base_spec for (_run, base_spec), key in zip(pairs, base_keys)
            if key not in baselines
        }
        results = run_fn(
            [run_spec for run_spec, _base in pairs] + list(fresh.values())
        )
        baselines.update(zip(fresh, results[len(pairs):]))
        for index, (run_spec, _base), key, result in zip(
            chunk, pairs, base_keys, results
        ):
            baseline = baselines[key]
            failed = next(
                (c for c in (result, baseline)
                 if getattr(c, "is_failure", False)),
                None,
            )
            if failed is not None:
                yield index, None, failed
                return
            values, counts = extract_metrics(result, baseline)
            telemetry, snapshot_key = draw_metadata(run_spec, result)
            yield index, run_event(
                point.id, index, spec.seed_for(point, index), values,
                counts, telemetry, snapshot_key,
            ), None


def measure_point(spec, point, run_fn, acc=None, on_run=None):
    """Measure one grid point until its stopping rule fires.

    ``acc`` may carry replayed draws (resume); sampling continues from
    index ``acc.n``. Each scheduler batch runs through one
    :func:`run_draws` call, and ``on_run(event)`` is called with every
    completed draw's journal ``run`` event, in index order — the journal
    hook.

    The batching and stopping decisions live in
    :class:`~repro.campaign.scheduler.PointScheduler` — the same object
    the fleet coordinator leases draws from, so a distributed campaign
    stops every point after exactly the draws a single-pool one runs.

    Returns ``(acc, reason, failure)``: ``reason`` is ``"ci"`` (targets
    met), ``"max_seeds"``, or ``"failed"`` when a verified run came back
    as a :class:`~repro.verify.bundle.RunFailure` — the failure object
    (with its repro-bundle path) rides along and draws already pushed
    stay in ``acc``; ``failure`` is ``None`` otherwise.
    """
    scheduler = PointScheduler(spec, point, acc)
    while True:
        indices = scheduler.next_batch()
        if indices is None:
            return scheduler.acc, scheduler.stopped, scheduler.failure
        for index, event, failure in run_draws(spec, point, indices, run_fn):
            if failure is not None:
                scheduler.fail(failure)
                return scheduler.acc, "failed", failure
            scheduler.record(index, event["metrics"], event["counts"])
            if on_run is not None:
                on_run(event)


def run_campaign(directory, spec=None, jobs=1, cache=True, cache_dir=None,
                 resume=False, timeout=None, retries=2, run_fn=None,
                 snapshots=True, snapshot_dir=None, batch_lanes=None):
    """Execute (or resume) the campaign rooted at ``directory``.

    With ``spec`` given and no manifest present, the campaign is planned
    implicitly (manifest written). A directory whose journal already has
    events requires ``resume=True`` — refusing by default keeps a verb
    typo from silently double-counting a finished study.

    ``run_fn`` overrides batch execution entirely (tests inject
    counters/fakes); by default :func:`make_run_fn` wires the batch
    engine with ``jobs``/``cache``/``timeout``/``retries``.

    ``snapshots`` (default on) forks eligible runs from the warmup
    snapshot cache at ``snapshot_dir`` — defaulting to the result cache's
    root (``cache_dir``, ``REPRO_CACHE_DIR``, or ``./.sim_cache``) so one
    prune covers both. The cache location is an execution detail: results
    are bit-identical with snapshots on, off, or pointed elsewhere, and a
    campaign resumes correctly across a snapshot-cache wipe.

    ``batch_lanes`` (default: ``REPRO_BATCH_LANES``, else off) enables
    the lockstep batch engine for draws sharing a warmup snapshot — see
    :func:`make_run_fn`; journals and reports are bit-identical with
    batching on or off.

    Returns the final report dict (also written to ``report.json`` /
    ``report.md``).
    """
    from repro.campaign.report import write_reports

    directory = str(directory)
    if spec is not None:
        spec.validate()
        write_manifest(directory, spec)
    manifest = read_manifest(directory)
    spec = CampaignSpec.from_dict(manifest["spec"])
    journal = Journal(directory)
    if resume:
        # a kill mid-append leaves a torn trailing record; truncate it
        # before appending or the next event would concatenate onto it
        journal.repair()
    state = journal.replay()
    if state.done:
        return write_reports(directory)
    if state.n_events and not resume:
        raise CampaignError(
            f"{directory} already has journaled progress; "
            "pass resume=True (CLI: `campaign resume`) to continue it"
        )
    if run_fn is None:
        run_fn = make_run_fn(jobs, cache, cache_dir, timeout, retries,
                             batch_lanes)
    # verified/storm runs drop their repro bundles inside the campaign
    spec.repro_dir = os.path.join(directory, "bundles")
    if snapshots:
        from repro.harness.parallel import default_cache_root

        # share the result cache's root when caching (one prune covers
        # both stores); an uncached campaign keeps its snapshots inside
        # its own directory so nothing leaks outside it
        default_root = (
            (cache_dir or default_cache_root()) if cache
            else os.path.join(directory, "snapshots")
        )
        spec.snapshot_dir = str(
            snapshot_dir or os.environ.get("REPRO_SNAPSHOT_DIR")
            or default_root
        )

    with journal:
        for point in spec.points():
            if point.id in state.completed:
                continue
            acc = PointAccumulator(z=spec.z)
            for record in state.runs.get(point.id, []):
                acc.push(record["metrics"], record["counts"])
            acc, reason, failure = measure_point(
                spec, point, run_fn, acc, journal.append
            )
            # a failed point is journaled as completed-but-failed
            # (resume skips it; the campaign continues past it) with
            # enough to find and replay the repro bundle
            journal.append(point_event(
                point.id, acc.n, reason,
                acc.summary() if acc.n else None,
                failure_record(failure) if failure is not None else None,
            ))
        journal.append({"event": "done"})
    return write_reports(directory)
