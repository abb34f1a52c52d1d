"""Sequential Monte Carlo executor with confidence-driven stopping.

For each grid point the executor runs *batches* of seed draws (each draw
is a paired scheme + fault-free simulation of the same seed) through the
batch engine, updates the point's :class:`~repro.campaign.stats.
PointAccumulator`, and stops as soon as every target metric's confidence
interval is tighter than its target half-width — or at ``max_seeds``.
Points with low seed-to-seed variance therefore cost a fraction of a
fixed-N design at the same statistical quality (pinned by
``tests/campaign/test_executor.py``).

Progress is journaled draw-by-draw (:mod:`repro.campaign.journal`).
The single-pool executor and the fleet coordinator open a directory
with :func:`open_campaign` and close it with :func:`finish_campaign`,
so either resumes what the other left: completed points are skipped,
and partial points continue with exactly the draws an uninterrupted
run would have run next.

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
    JOURNAL_NAME,
    Journal,
    fold_directory,
    list_shards,
    merge_journals,
    read_manifest,
    run_event,
    write_manifest,
)
from repro.campaign.plan import CampaignSpec, extract_metrics
from repro.campaign.scheduler import PointScheduler
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

    ``timeout`` is ``run_many``'s per-run budget. ``batch_lanes >= 1``
    runs every eligible draw and baseline as a lane of the lockstep
    batch engine, at most that many per kernel call (bit-identical,
    several times faster per draw), with or without a ``timeout``.
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
    ``snapshot_key`` is the warmup snapshot key a scalar run of the draw
    forks from (``None`` when it runs cold). A kernel lane journals the
    same key although it warms up in the kernel and reads no snapshot,
    so journals do not depend on the tier. :func:`run_draws` calls it
    for every draw it journals.
    """
    from repro.snapshot.fork import fork_key

    telem = getattr(result, "telemetry", None)
    summary = telem.summary() if telem is not None else None
    return summary, fork_key(run_spec, run_spec.snapshot_dir)


def run_draws(spec, point, indices, run_fn, baselines, step=None):
    """Execute draws ``indices`` of ``point``; yield each outcome in order.

    Builds every draw's (scheme, fault-free baseline) pair with
    :meth:`~repro.campaign.plan.CampaignSpec.pair_specs` and calls
    ``run_fn(specs) -> results`` once per ``step`` draws (default: all
    of them in one call). ``baselines`` maps baseline spec keys to
    results: a baseline missing from it is sent only with the first
    chunk that needs it and stored there, so callers that pass one dict
    to every call for a point simulate its baseline once.

    Yields ``(index, run_event, None)`` per completed draw, where
    ``run_event`` is the journal ``run`` event. For the first draw whose
    scheme run or baseline came back as a
    :class:`~repro.verify.bundle.RunFailure` it yields ``(index, None,
    failure)`` and stops.
    """
    indices = list(indices)
    step = step or max(1, len(indices))
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


def open_campaign(directory, spec=None, resume=False, cache=True,
                  cache_dir=None, snapshots=True, snapshot_dir=None):
    """Open the campaign at ``directory`` for :func:`run_campaign` or a fleet.

    With ``spec`` given the manifest is written (or checked to describe
    the same spec). ``resume`` repairs the torn tail of ``journal.jsonl``
    and of every shard journal; without it, journaled progress raises
    :class:`CampaignError`, so a verb typo cannot double-count a study.
    ``snapshots`` forks eligible runs from the warmup snapshot cache at
    ``snapshot_dir``, else ``$REPRO_SNAPSHOT_DIR``, else the result
    cache's root so one prune covers both (``<directory>/snapshots``
    when ``cache`` is off).

    Returns ``(spec, state, schedulers)``: the manifest's spec with
    ``repro_dir`` and ``snapshot_dir`` set, the folded directory, and a
    :class:`~repro.campaign.scheduler.PointScheduler` per open point, in
    grid order, with its journaled draws replayed.
    """
    directory = str(directory)
    if spec is not None:
        spec.validate()
        write_manifest(directory, spec)
    spec = CampaignSpec.from_dict(read_manifest(directory)["spec"])
    if resume:
        # a kill mid-append leaves a torn trailing record; truncate it
        # before appending or the next event would concatenate onto it
        journal = os.path.join(directory, JOURNAL_NAME)
        for path in [journal] + list_shards(directory):
            Journal(*os.path.split(path)).repair()
    state = fold_directory(directory)
    if state.n_events and not resume:
        raise CampaignError(
            f"{directory} already has journaled progress; pass resume "
            "(`campaign resume`, `fleet run --resume`) to continue it"
        )
    # verified/storm runs drop their repro bundles inside the campaign
    spec.repro_dir = os.path.join(directory, "bundles")
    if snapshots:
        from repro.harness.parallel import default_cache_root

        default_root = (
            (cache_dir or default_cache_root()) if cache
            else os.path.join(directory, "snapshots")
        )
        spec.snapshot_dir = str(
            snapshot_dir or os.environ.get("REPRO_SNAPSHOT_DIR")
            or default_root
        )
    schedulers = [
        PointScheduler(spec, point).replay(state.runs.get(point.id, []))
        for point in spec.points() if point.id not in state.completed
    ]
    return spec, state, schedulers


def measure_point(scheduler, run_fn, on_run=None):
    """Run ``scheduler``'s point until its stopping rule fires.

    Each batch's :meth:`~repro.campaign.scheduler.PointScheduler.pending`
    draws go through one :func:`run_draws` call, so a batch partly
    replayed on resume runs only its missing draws. ``on_run(event)``
    gets every completed draw's journal ``run`` event, in index order.

    Returns ``scheduler``: ``stopped`` is ``"ci"`` (targets met),
    ``"max_seeds"``, or ``"failed"`` when a verified run came back as a
    :class:`~repro.verify.bundle.RunFailure`, kept in ``failure``.
    """
    baselines = {}  # kept across batches: the baseline runs once
    while scheduler.next_batch() is not None:
        for index, event, failure in run_draws(
            scheduler.spec, scheduler.point, scheduler.pending(), run_fn,
            baselines,
        ):
            if failure is not None:
                scheduler.fail(failure)
                return scheduler
            scheduler.record(index, event["metrics"], event["counts"])
            if on_run is not None:
                on_run(event)
    return scheduler


def finish_campaign(directory):
    """Merge ``directory``'s journals and write its reports; the report.

    Both drivers end here, so a pool that adopted shard draws also ends
    with one canonical ``journal.jsonl``.
    """
    from repro.campaign.report import write_reports

    merge_journals(directory)
    return write_reports(directory)


def run_campaign(directory, spec=None, jobs=1, cache=True, cache_dir=None,
                 resume=False, timeout=None, retries=2, run_fn=None,
                 snapshots=True, snapshot_dir=None, batch_lanes=None):
    """Execute (or resume) the campaign rooted at ``directory``.

    :func:`open_campaign` plans it from ``spec`` if no manifest exists,
    refuses journaled progress without ``resume=True``, and picks the
    snapshot store. Results are bit-identical with snapshots on, off,
    or pointed elsewhere. A resume also adopts fleet shard draws, so it
    can finish a killed fleet campaign.

    ``run_fn`` overrides batch execution entirely (tests inject
    counters/fakes); by default :func:`make_run_fn` wires the batch
    engine with ``jobs``/``cache``/``timeout``/``retries``.

    ``batch_lanes`` (default: ``REPRO_BATCH_LANES``, else off) enables
    the lockstep batch engine — see :func:`make_run_fn`; journals and
    reports are bit-identical with batching on or off.

    Returns the final report dict (also written to ``report.json`` /
    ``report.md``).
    """
    _, state, schedulers = open_campaign(
        directory, spec, resume, cache, cache_dir, snapshots, snapshot_dir
    )
    if not state.done:
        if run_fn is None:
            run_fn = make_run_fn(jobs, cache, cache_dir, timeout, retries,
                                 batch_lanes)
        with Journal(directory) as journal:
            for scheduler in schedulers:
                # a failed point is journaled as completed-but-failed
                # (resume skips it; the campaign continues past it) with
                # enough to find and replay the repro bundle
                measure_point(scheduler, run_fn, journal.append)
                journal.append(scheduler.completion_event())
            journal.append({"event": "done"})
    return finish_campaign(directory)
