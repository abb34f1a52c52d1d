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

Worker failures are bounded: a batch that raises (worker crash) or
exceeds the per-run timeout is retried up to ``retries`` times before
the campaign aborts with :class:`CampaignError`; the journal keeps every
draw that finished, so an abort is always resumable.
"""

import math
import os
import time

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
from repro.harness.parallel import ResultCache, prewarm_snapshots, run_many


class CampaignError(RuntimeError):
    """A campaign could not proceed (exhausted retries, bad state...)."""


class CampaignTimeout(CampaignError):
    """A batch exceeded its per-run timeout budget."""


def _pool_run(specs, jobs, store, timeout):
    """Run ``specs`` on a pool, enforcing a wall-clock budget.

    The budget is ``timeout`` per run over the pool's effective depth
    (``ceil(n / jobs)`` waves), i.e. a per-run timeout enforced at batch
    granularity: one hung worker trips it within a bounded multiple of
    ``timeout``. On breach the pool is terminated (killing hung workers)
    and :class:`CampaignTimeout` is raised; finished results are already
    in the cache, so a retry only re-runs the stragglers.
    """
    import multiprocessing

    results = [store.load(spec) if store else None for spec in specs]
    todo = [i for i, r in enumerate(results) if r is None]
    if not todo:
        return results
    n_jobs = max(1, min(jobs or os.cpu_count() or 1, len(todo)))
    # warm missing snapshot prefixes before dispatch: each single-spec
    # apply_async below would otherwise re-warm the shared prefix in its
    # own worker (the prewarm itself is outside the timeout budget)
    prewarm_snapshots([specs[i] for i in todo], n_jobs)
    budget = timeout * math.ceil(len(todo) / n_jobs)
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context()
    pool = ctx.Pool(n_jobs)
    try:
        handles = [
            (i, pool.apply_async(run_many, ([specs[i]],))) for i in todo
        ]
        deadline = time.monotonic() + budget
        for i, handle in handles:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise multiprocessing.TimeoutError
            results[i] = handle.get(remaining)[0]
            if store and not getattr(results[i], "is_failure", False):
                store.store(specs[i], results[i])
    except multiprocessing.TimeoutError:
        pool.terminate()
        raise CampaignTimeout(
            f"batch of {len(todo)} runs missed its "
            f"{budget:.0f}s budget ({timeout}s/run)"
        ) from None
    finally:
        pool.close()
        pool.join()
    return results


def make_run_fn(jobs=1, cache=True, cache_dir=None, timeout=None, retries=2,
                batch_lanes=None):
    """Build the batch-execution callable used by :func:`run_campaign`.

    The returned function maps ``specs -> results`` with bounded retry:
    exceptions from workers (and timeout breaches) are retried up to
    ``retries`` times; completed runs persist in the result cache across
    attempts, so retries only re-execute the failures.

    ``batch_lanes >= 2`` routes draws sharing a warmup snapshot through
    the lockstep batch engine (bit-identical, several times faster per
    draw). The timeout path keeps per-run granularity and therefore runs
    scalar: its budget accounting and straggler-kill semantics are per
    simulation, which a many-lane engine call would coarsen.
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
                if timeout is None:
                    return run_many(specs, jobs=jobs, cache=store or False,
                                    batch_lanes=batch_lanes)
                return _pool_run(specs, jobs, store, timeout)
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
    (``None`` when the draw ran cold). Shared by the single-pool journal
    hook and fleet workers so both journal identical ``run`` events.
    """
    telem = getattr(result, "telemetry", None)
    summary = telem.summary() if telem is not None else None
    snapshot_key = None
    if getattr(run_spec, "snapshot_dir", None) is not None:
        from repro.snapshot import snapshot_eligible

        if snapshot_eligible(run_spec):
            snapshot_key = run_spec.warmup_key()
    return summary, snapshot_key


def measure_point(spec, point, run_fn, acc=None, on_run=None):
    """Measure one grid point until its stopping rule fires.

    ``acc`` may carry replayed draws (resume); sampling continues from
    index ``acc.n``. ``on_run(point, index, seed, values, counts,
    telemetry, snapshot_key=...)`` is called once per completed draw, in
    index order — the journal hook (see :func:`draw_metadata` for the
    last two arguments).

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
        pairs = [spec.pair_specs(point, i) for i in indices]
        flat = [run_spec for pair in pairs for run_spec in pair]
        results = run_fn(flat)
        for offset, index in enumerate(indices):
            result, baseline = results[2 * offset], results[2 * offset + 1]
            failed = next(
                (c for c in (result, baseline)
                 if getattr(c, "is_failure", False)),
                None,
            )
            if failed is not None:
                scheduler.fail(failed)
                return scheduler.acc, "failed", failed
            values, counts = extract_metrics(result, baseline)
            scheduler.record(index, values, counts)
            if on_run is not None:
                summary, snapshot_key = draw_metadata(pairs[offset][0], result)
                on_run(point, index, spec.seed_for(point, index),
                       values, counts, summary, snapshot_key=snapshot_key)


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

    def on_run(point, index, seed, values, counts, telemetry=None,
               snapshot_key=None):
        journal.append(run_event(
            point.id, index, seed, values, counts, telemetry, snapshot_key
        ))

    with journal:
        for point in spec.points():
            if point.id in state.completed:
                continue
            acc = PointAccumulator(z=spec.z)
            for record in state.runs.get(point.id, []):
                acc.push(record["metrics"], record["counts"])
            acc, reason, failure = measure_point(
                spec, point, run_fn, acc, on_run
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
