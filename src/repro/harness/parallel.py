"""Batch experiment engine: parallel fan-out plus an on-disk result cache.

The experiment drivers (tables, figures, calibration, shmoo) all reduce to
"run this grid of :class:`~repro.harness.runner.RunSpec` points".
:func:`run_many` is the single entry point for that pattern:

* **Caching** — every completed :class:`~repro.harness.runner.SimResult`
  is pickled under a content address derived from ``RunSpec.key()``, so
  re-running an experiment (or a different experiment sharing points, e.g.
  Figure 4 after Table 1) is free. The cache is invalidated wholesale
  whenever the simulator's source changes: results live in a subdirectory
  named after :func:`model_version`, a digest of every ``repro`` source
  file. The first store a process constructs on a root prunes that
  root's stale model versions.

* **Parallelism** — cache misses are farmed to a ``multiprocessing`` pool.
  Runs are pure functions of their spec (the simulator threads explicit
  seeds everywhere), so fan-out cannot change results; a determinism test
  pins ``run_many(jobs=N) == serial``.

Both are safe because runs are deterministic and self-contained: a spec
fully determines its result (see ``RunSpec.canonical``).
"""

import hashlib
import math
import os
import pickle
import sys
import time

from repro.harness.diskcache import BlobStore
from repro.harness.runner import run_one

#: cache-format version; bump to orphan every existing cache entry.
_CACHE_FORMAT = 1

#: the most lanes per kernel call that the paper's drivers
#: (:mod:`repro.harness.experiments`, ``run_seeds``) ask of
#: :func:`run_many`. A table or figure spec has a warmup key of its own,
#: so each of their eligible windows is a one-lane call; fault-mode
#: ``run_seeds`` draws share one and fill a call of up to this many.
DRIVER_LANES = 16

#: file types under ``repro`` that the model executes
_MODEL_SOURCE_SUFFIXES = (".py", ".c")

_version_cache = None


def model_version():
    """Digest of the simulator sources: the cache-invalidation stamp.

    Hashes the path and contents of every model source under the
    installed ``repro`` package, in sorted path order: each ``.py`` file
    and the batch kernel's ``.c`` source. Any change to the model
    (pipeline, fault injector, energy model, workload generator, batch
    kernel) therefore retires all previously cached results and
    snapshots.
    """
    global _version_cache
    if _version_cache is not None:
        return _version_cache
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256(b"repro-cache-format:%d" % _CACHE_FORMAT)
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(_MODEL_SOURCE_SUFFIXES):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            digest.update(rel.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    _version_cache = digest.hexdigest()[:16]
    return _version_cache


def default_cache_root():
    """Default cache root: ``$REPRO_CACHE_DIR`` or ``./.sim_cache``."""
    return os.environ.get("REPRO_CACHE_DIR") or os.path.join(
        os.getcwd(), ".sim_cache"
    )


class ResultCache(BlobStore):
    """Content-addressed store of pickled :class:`SimResult` objects.

    Layout: ``<root>/<model_version>/<spec_key>.pkl`` (the store/prune
    mechanics live in :class:`~repro.harness.diskcache.BlobStore`, shared
    with the snapshot cache). Loads and stores are best-effort — a
    corrupt or unreadable entry is treated as a miss and overwritten,
    never raised to the caller. Profiled runs
    (``TelemetryConfig(profile=True)``) are never cached: their result
    carries wall-clock seconds, which a hit would replay.
    """

    suffix = ".pkl"

    def __init__(self, root=None):
        if root is None:
            root = default_cache_root()
        super().__init__(root, model_version())
        self.hits = 0
        self.misses = 0

    def load(self, spec):
        """The cached result for ``spec``, or ``None`` on a miss.

        Any unreadable entry — truncated write, corrupted bytes, a
        pickle from renamed classes — is logged, unlinked, and treated
        as a miss: a bad cache file must cost one recompute, never a
        crashed batch. A profiled spec always misses.
        """
        if _profiled(spec):
            self.misses += 1
            return None
        key = spec.key()
        payload = self.read_bytes(key)
        if payload is None:
            self.misses += 1
            return None
        try:
            result = pickle.loads(payload)
        except Exception as exc:  # noqa: BLE001 — any corrupt entry
            self.misses += 1
            print(
                f"[cache] discarding unreadable entry "
                f"{key + self.suffix}: {exc!r}",
                file=sys.stderr,
            )
            self.remove(key)
            return None
        self.hits += 1
        return result

    def store(self, spec, result):
        """Persist ``result`` under ``spec``'s content address.

        A profiled spec is skipped: its timings belong to this run only.
        """
        if _profiled(spec):
            return
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        self.write_bytes(spec.key(), payload)


def _profiled(spec):
    telemetry = getattr(spec, "telemetry", None)
    return telemetry is not None and telemetry.profile


def _worker(spec):
    # module-level so it pickles under every multiprocessing start method
    if (
        getattr(spec, "verify", False)
        or getattr(spec, "storm", None) is not None
        or getattr(spec, "corruption", None)
    ):
        # verification failures come back as RunFailure result objects
        # (with a repro bundle) instead of killing the whole batch
        from repro.verify.driver import run_checked

        return run_checked(spec)
    return run_one(spec)


def _resolve_jobs(jobs, n_pending):
    if jobs in (None, 0):
        jobs = os.cpu_count() or 1
    return max(1, min(jobs, n_pending))


def _task(item):
    # module-level so it pickles under every multiprocessing start method;
    # items are ("batch", [specs...]) or ("one", spec); returns a list
    kind, payload = item
    if kind == "batch":
        from repro.snapshot.batch import run_batch

        return run_batch(payload, payload[0].snapshot_dir)
    return [_worker(payload)]


def _plan_tasks(todo, batch_lanes):
    """Partition ``todo`` into pool tasks: the one tier decision.

    With lanes on, each lane group of
    :func:`~repro.snapshot.batch.batch_groups` (up to ``batch_lanes``
    eligible specs sharing one warmup key) becomes a ``("batch",
    group)`` task if the kernel loads. It is loaded here, in the parent,
    before any pool forks, so the compiler runs at most once per process
    tree. Every other spec, and every spec when lanes are off or no
    kernel loads, is a ``("one", spec)`` task. Returns ``(tasks,
    index_lists, scalar)``: ``index_lists[t]`` maps task ``t``'s results
    back to positions in ``todo``, and ``scalar`` lists the ``"one"``
    specs.
    """
    from repro.snapshot.batch import batch_groups
    from repro.uarch import batchkernel

    groups, scalar = [], todo
    if batch_lanes:
        groups, scalar = batch_groups(todo, batch_lanes)
    if groups and batchkernel.load_kernel() is None:
        groups, scalar = [], todo
    index_of = {id(spec): i for i, spec in enumerate(todo)}
    tasks = [("batch", group) for group in groups]
    tasks += [("one", spec) for spec in scalar]
    index_lists = [[index_of[id(spec)] for spec in group]
                   for group in groups + [[spec] for spec in scalar]]
    return tasks, index_lists, scalar


def _pool(n_jobs):
    """A ``multiprocessing`` pool of ``n_jobs`` workers.

    Fork (when available) shares the warm program caches with the
    workers; spawn still works because every task function is importable.
    """
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context()
    return ctx.Pool(n_jobs)


def _run_todo(todo, tasks, index_lists, n_jobs, timeout=None):
    """Run :func:`_plan_tasks`' tasks; yield ``(i, result)`` per ``todo[i]``.

    Results come back task by task, as each finishes. With ``timeout``
    the tasks always run on a pool, even at ``n_jobs == 1``, because an
    in-process run cannot be killed. The pool then gets ``timeout`` per
    run over its depth, ``ceil(len(todo) / n_jobs)`` waves with every
    kernel lane counted as a run. A breach terminates the pool, killing
    hung workers, and raises :class:`TimeoutError`.
    """
    if timeout is None and min(n_jobs, len(tasks)) == 1:
        for item, indices in zip(tasks, index_lists):
            yield from zip(indices, _task(item))
        return
    import multiprocessing

    with _pool(min(n_jobs, len(tasks))) as pool:
        # chunk size 1: each task's result arrives on its own, and only
        # this iterator has .next(timeout)
        outs = pool.imap(_task, tasks)
        if timeout is not None:
            budget = timeout * math.ceil(len(todo) / n_jobs)
            deadline = time.monotonic() + budget
        for item, indices in zip(tasks, index_lists):
            try:
                out = outs.next(
                    None if timeout is None
                    else max(0.0, deadline - time.monotonic())
                )
            except multiprocessing.TimeoutError:
                pool.terminate()
                raise TimeoutError(
                    f"{len(todo)} runs missed their {budget:.0f}s "
                    f"budget ({timeout}s/run)"
                ) from None
            yield from zip(indices, out)


def _ensure_snapshot_worker(spec):
    # module-level so it pickles under every multiprocessing start method
    from repro.snapshot import ensure_snapshot

    ensure_snapshot(spec, spec.snapshot_dir)


def prewarm_snapshots(specs, n_jobs=1):
    """Warm each unique warmup prefix of ``specs`` once, storing snapshots.

    Without this pre-pass, parallel cache misses sharing one warmup
    prefix would each re-simulate the warmup from cycle 0 — the snapshot
    store only dedupes after the first write lands. Missing prefixes of
    the specs that fork (:func:`~repro.snapshot.fork.fork_key`) are
    warmed once (in parallel when the batch itself is parallel) so the
    fan-out that follows forks every draw from a warmed snapshot.

    :func:`run_many` calls it before every fan-out that can run two
    tasks at once, outside any ``timeout`` budget, with the specs that
    will run scalar (kernel lanes warm up in the kernel); campaign
    pools, timed campaigns and fleet workers all reach it through there.
    A serial fan-out skips it: nothing races there, and a miss in
    :func:`~repro.snapshot.fork.warmed_core` warms, stores and measures
    on the same core, saving one restore per prefix.
    """
    from repro.snapshot import SnapshotCache
    from repro.snapshot.fork import fork_key

    groups = {}  # (dir, warmup_key) -> first spec that forks from it
    for spec in specs:
        key = fork_key(spec, spec.snapshot_dir)
        if key is not None:
            groups.setdefault((str(spec.snapshot_dir), key), spec)
    todo = [
        spec for (directory, key), spec in groups.items()
        if not SnapshotCache(directory).has(key)
    ]
    if not todo:
        return
    n_jobs = max(1, int(n_jobs))
    if min(n_jobs, len(todo)) > 1:
        with _pool(min(n_jobs, len(todo))) as pool:
            pool.map(_ensure_snapshot_worker, todo)
    else:
        for spec in todo:
            _ensure_snapshot_worker(spec)


def run_many(specs, jobs=1, cache=False, cache_dir=None, batch_lanes=None,
             timeout=None):
    """Run a batch of specs; results in the same order as ``specs``.

    ``jobs``: worker processes for the cache misses. ``1`` (the default)
    runs serially in-process; ``None``/``0`` uses every core. ``cache``:
    when true, consult and populate the on-disk :class:`ResultCache`
    (rooted at ``cache_dir``, the ``REPRO_CACHE_DIR`` environment
    variable, or ``./.sim_cache``). An existing :class:`ResultCache` may
    be passed directly as ``cache``.

    ``batch_lanes``: at most that many lanes per kernel call (default:
    ``REPRO_BATCH_LANES``; 0 or unset is off). Every cache-missing,
    batch-eligible spec then runs as a lane of the lockstep batch engine
    (:mod:`repro.snapshot.batch`), grouped with the specs sharing its
    warmup key: campaign draws, their fault-free baselines and single
    runs alike, with or without a snapshot dir. Results are
    bit-identical to the scalar path; ineligible specs run scalar as
    before. A kernel lane warms up in the kernel, so a parallel fan-out
    prewarms snapshots only for the specs that run scalar.

    ``timeout``: seconds per run (default: none). The cache misses then
    always run on a pool, with a budget of ``timeout`` × ``ceil(misses /
    jobs)`` seconds that covers kernel lanes too and starts after the
    snapshot prewarm of a parallel fan-out. A breach terminates the
    pool, killing hung workers, and raises :class:`TimeoutError`.

    Identical specs in one batch are simulated once and share the result.
    Each fresh result is cached as it arrives, so a retry after a failure
    or a breach re-runs only the stragglers.
    """
    from repro.snapshot.batch import resolve_batch_lanes

    specs = list(specs)
    batch_lanes = resolve_batch_lanes(batch_lanes)
    if isinstance(cache, ResultCache):
        store = cache
    elif cache:
        store = ResultCache(cache_dir)
    else:
        store = None

    keys = [spec.key() for spec in specs]
    results = [None] * len(specs)
    pending = {}  # spec key -> first index (dedup within the batch)
    for i, (spec, key) in enumerate(zip(specs, keys)):
        if key in pending or results[i] is not None:
            continue
        cached = store.load(spec) if store is not None else None
        if cached is not None:
            for j in range(i, len(specs)):
                if keys[j] == key:
                    results[j] = cached
        else:
            pending[key] = i

    if pending:
        todo_keys = list(pending)
        todo = [specs[i] for i in pending.values()]
        n_jobs = _resolve_jobs(jobs, len(todo))
        tasks, index_lists, scalar = _plan_tasks(todo, batch_lanes)
        if n_jobs > 1:
            prewarm_snapshots(scalar, n_jobs)
        for t, result in _run_todo(todo, tasks, index_lists, n_jobs,
                                   timeout):
            # failures are never cached: a transient capture must not
            # poison future batches with a pre-failed result
            if store is not None and not getattr(result, "is_failure", False):
                store.store(todo[t], result)
            for j in range(len(specs)):
                if keys[j] == todo_keys[t]:
                    results[j] = result
    return results


def collect_series(results):
    """Interval-metrics series of a batch, pooled into one mean timeline.

    Results ride their telemetry through the pool and the cache (a
    :class:`~repro.harness.runner.SimResult` carries its
    ``TelemetryResult`` as plain data), so pooling after ``run_many`` is
    pure aggregation: every result whose spec enabled metrics
    contributes its series to a :meth:`~repro.telemetry.metrics.
    MetricsSeries.merge` (windows aligned by index, averaged pointwise).
    Returns ``None`` when no result carries a series.
    """
    from repro.telemetry.metrics import MetricsSeries

    series = [
        result.telemetry.metrics
        for result in results
        if result is not None
        and getattr(result, "telemetry", None) is not None
        and result.telemetry.metrics is not None
    ]
    return MetricsSeries.merge(series)
