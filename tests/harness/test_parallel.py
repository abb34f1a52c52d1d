"""Batch engine: determinism, parallel/serial equivalence, result cache."""

import multiprocessing
import os
import pickle
import time

import pytest

from repro.core.schemes import SchemeKind
from repro.faults.timing import VDD_LOW_FAULT, VDD_NOMINAL
from repro.harness.parallel import (
    ResultCache,
    model_version,
    run_many,
)
from repro.harness.runner import RunSpec, run_one
from repro.uarch.config import CoreConfig

_FAST = dict(n_instructions=600, warmup=300)


def _specs():
    return [
        RunSpec("bzip2", SchemeKind.ABS, VDD_LOW_FAULT, seed=2, **_FAST),
        RunSpec("astar", SchemeKind.RAZOR, VDD_LOW_FAULT, seed=1, **_FAST),
        RunSpec("bzip2", SchemeKind.FAULT_FREE, VDD_NOMINAL, seed=2, **_FAST),
    ]


def _fingerprint(result):
    return (
        result.stats.as_dict(),
        result.energy.total,
        result.energy.edp,
        dict(result.cache_stats),
    )


# ----------------------------------------------------------------------
# spec keys
# ----------------------------------------------------------------------
def test_key_is_deterministic():
    a, b = _specs()[0], _specs()[0]
    assert a is not b
    assert a.key() == b.key()
    assert len(a.key()) == 64  # sha256 hex


def test_key_distinguishes_every_field():
    base = RunSpec("bzip2", SchemeKind.ABS, VDD_LOW_FAULT, seed=2, **_FAST)
    variants = [
        RunSpec("astar", SchemeKind.ABS, VDD_LOW_FAULT, seed=2, **_FAST),
        RunSpec("bzip2", SchemeKind.CDS, VDD_LOW_FAULT, seed=2, **_FAST),
        RunSpec("bzip2", SchemeKind.ABS, VDD_NOMINAL, seed=2, **_FAST),
        RunSpec("bzip2", SchemeKind.ABS, VDD_LOW_FAULT, seed=3, **_FAST),
        RunSpec("bzip2", SchemeKind.ABS, VDD_LOW_FAULT, seed=2,
                n_instructions=700, warmup=300),
        RunSpec("bzip2", SchemeKind.ABS, VDD_LOW_FAULT, seed=2,
                predictor="mre", **_FAST),
        RunSpec("bzip2", SchemeKind.ABS, VDD_LOW_FAULT, seed=2,
                overclock=1.04, **_FAST),
        RunSpec("bzip2", SchemeKind.ABS, VDD_LOW_FAULT, seed=2,
                config=CoreConfig.core2(), **_FAST),
    ]
    keys = {spec.key() for spec in variants}
    assert base.key() not in keys
    assert len(keys) == len(variants)


def test_key_config_sensitivity():
    a = RunSpec("bzip2", config=CoreConfig.core1(), **_FAST)
    b = RunSpec("bzip2", config=CoreConfig.core1(), **_FAST)
    c = RunSpec("bzip2", config=CoreConfig.core1(rob_size=64), **_FAST)
    assert a.key() == b.key()
    assert a.key() != c.key()


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_same_spec_twice_is_bit_identical():
    spec = _specs()[0]
    a = run_one(spec)
    b = run_one(spec)
    assert _fingerprint(a) == _fingerprint(b)
    assert pickle.dumps(_fingerprint(a)) == pickle.dumps(_fingerprint(b))


def test_run_many_matches_serial_run_one():
    specs = _specs()
    serial = [run_one(spec) for spec in specs]
    batched = run_many(_specs(), jobs=1)
    assert [_fingerprint(r) for r in batched] == [
        _fingerprint(r) for r in serial
    ]


def test_run_many_parallel_matches_serial():
    specs = _specs()
    serial = [run_one(spec) for spec in specs]
    parallel = run_many(_specs(), jobs=4)
    assert [_fingerprint(r) for r in parallel] == [
        _fingerprint(r) for r in serial
    ]


def test_run_many_dedupes_identical_specs():
    spec = _specs()[0]
    twice = run_many([spec, _specs()[0]], jobs=1)
    assert _fingerprint(twice[0]) == _fingerprint(twice[1])


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="only forked workers inherit the parent's kernel",
)
def test_kernel_compiles_once_before_the_pool_forks(compiler_log):
    """With an empty kernel cache, a parallel run with lanes runs the
    compiler once, in the parent, not once in each forked worker."""
    specs = [RunSpec("astar", SchemeKind.ABS, VDD_LOW_FAULT, seed=seed,
                     **_FAST) for seed in (1, 2)]
    results = run_many(specs, jobs=2, batch_lanes=1)
    assert len(compiler_log.read_text().split()) == 1
    assert [_fingerprint(r) for r in results] == [
        _fingerprint(run_one(spec)) for spec in specs
    ]


# ----------------------------------------------------------------------
# per-run timeout
# ----------------------------------------------------------------------
@pytest.fixture
def fast_and_hung(monkeypatch):
    """Two specs; the second sleeps a minute in any (forked) pool worker."""
    from repro.harness import parallel

    worker = parallel._worker

    def hang_seed_2(spec):
        if spec.seed == 2:
            time.sleep(60)
        return worker(spec)

    monkeypatch.setattr(parallel, "_worker", hang_seed_2)
    return [RunSpec("astar", SchemeKind.ABS, VDD_LOW_FAULT, seed=seed, **_FAST)
            for seed in (1, 2)]


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the hang is patched in before the pool forks",
)


@needs_fork
def test_timeout_kills_a_hung_run_and_keeps_finished_ones(tmp_path,
                                                          fast_and_hung):
    fast, hung = fast_and_hung
    store = ResultCache(tmp_path)
    start = time.monotonic()
    # jobs=1 still runs on a pool: only a pool worker can be killed
    with pytest.raises(TimeoutError):
        run_many([fast, hung], jobs=1, cache=store, timeout=2)
    assert time.monotonic() - start < 10
    assert multiprocessing.active_children() == []
    assert store.load(fast) is not None


@needs_fork
def test_make_run_fn_retries_a_timeout_then_gives_up(tmp_path,
                                                     fast_and_hung):
    from repro.campaign.executor import CampaignError, make_run_fn

    run_fn = make_run_fn(jobs=1, cache_dir=tmp_path, timeout=2, retries=1)
    with pytest.raises(CampaignError, match="2 attempts"):
        run_fn(fast_and_hung)


# ----------------------------------------------------------------------
# on-disk cache
# ----------------------------------------------------------------------
def test_cache_round_trip(tmp_path):
    spec = _specs()[0]
    first = run_many([spec], jobs=1, cache=True, cache_dir=tmp_path)[0]
    entries = list((tmp_path / model_version()).glob("*.pkl"))
    assert len(entries) == 1
    assert entries[0].name == spec.key() + ".pkl"
    second = run_many([spec], jobs=1, cache=True, cache_dir=tmp_path)[0]
    assert _fingerprint(first) == _fingerprint(second)


def test_cache_hit_skips_simulation(tmp_path, monkeypatch):
    spec = _specs()[0]
    run_many([spec], jobs=1, cache=True, cache_dir=tmp_path)

    def boom(_):
        raise AssertionError("cache miss: simulation re-ran")

    monkeypatch.setattr("repro.harness.parallel.run_one", boom)
    cache = ResultCache(tmp_path)
    result = run_many([spec], jobs=1, cache=cache)[0]
    assert cache.hits == 1
    assert result.stats.committed >= spec.n_instructions


def test_cache_is_versioned_by_model(tmp_path):
    spec = _specs()[0]
    run_many([spec], jobs=1, cache=True, cache_dir=tmp_path)
    stale = tmp_path / "0123456789abcdef"
    stale.mkdir()
    (stale / "junk.pkl").write_bytes(b"junk")
    cache = ResultCache(tmp_path)
    assert cache.version == model_version()
    cache.prune_stale()
    assert not stale.exists()
    assert (tmp_path / model_version() / (spec.key() + ".pkl")).exists()


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    spec = _specs()[0]
    path = tmp_path / model_version() / (spec.key() + ".pkl")
    os.makedirs(path.parent, exist_ok=True)
    path.write_bytes(b"not a pickle")
    result = run_many([spec], jobs=1, cache=True, cache_dir=tmp_path)[0]
    assert result.stats.committed >= spec.n_instructions
    with open(path, "rb") as fh:  # overwritten with the good result
        assert _fingerprint(pickle.load(fh)) == _fingerprint(result)


def test_corrupt_cache_entry_is_logged_and_unlinked(tmp_path, capsys):
    spec = _specs()[0]
    path = tmp_path / model_version() / (spec.key() + ".pkl")
    os.makedirs(path.parent, exist_ok=True)
    path.write_bytes(b"\x80\x05garbage")
    cache = ResultCache(tmp_path)
    assert cache.load(spec) is None
    assert cache.misses == 1
    assert "discarding unreadable entry" in capsys.readouterr().err
    assert not path.exists()  # bad bytes don't linger for the next batch


def test_truncated_cache_entry_is_a_miss(tmp_path):
    spec = _specs()[0]
    result = run_one(spec)
    cache = ResultCache(tmp_path)
    cache.store(spec, result)
    path = tmp_path / model_version() / (spec.key() + ".pkl")
    payload = path.read_bytes()
    path.write_bytes(payload[: len(payload) // 2])  # torn write
    assert ResultCache(tmp_path).load(spec) is None
    # the whole batch recomputes and heals the entry rather than crashing
    healed = run_many([spec], jobs=1, cache=True, cache_dir=tmp_path)[0]
    assert _fingerprint(healed) == _fingerprint(result)


def test_unpicklable_class_reference_is_a_miss(tmp_path):
    # a stale entry pickled against renamed classes raises on load;
    # it must cost one recompute, never a crashed batch
    spec = _specs()[0]
    path = tmp_path / model_version() / (spec.key() + ".pkl")
    os.makedirs(path.parent, exist_ok=True)
    payload = pickle.dumps(ResultCache).replace(
        b"ResultCache", b"GhostResult"
    )
    path.write_bytes(payload)
    assert ResultCache(tmp_path).load(spec) is None


def test_cached_result_survives_pickle_round_trip(tmp_path):
    spec = _specs()[1]
    result = run_many([spec], jobs=1, cache=True, cache_dir=tmp_path)[0]
    clone = pickle.loads(pickle.dumps(result))
    assert _fingerprint(clone) == _fingerprint(result)
    assert clone.spec.key() == spec.key()


def test_model_version_is_stable():
    assert model_version() == model_version()
    assert len(model_version()) == 16


def test_model_version_covers_kernel_source(tmp_path, monkeypatch):
    """Editing the batch kernel's C source must retire cached results."""
    import shutil

    import repro
    from repro.harness import parallel

    pkg = tmp_path / "repro"
    shutil.copytree(
        os.path.dirname(repro.__file__), pkg,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    monkeypatch.setattr(repro, "__file__", str(pkg / "__init__.py"))

    def version():
        monkeypatch.setattr(parallel, "_version_cache", None)
        return model_version()

    before = version()
    kernel = pkg / "uarch" / "batchkernel.c"
    kernel.write_text(kernel.read_text() + "/* semantic fix */\n")
    after = version()
    assert after != before
    (pkg / "notes.txt").write_text("not a model source\n")
    assert version() == after


# ----------------------------------------------------------------------
# sweeps ride the engine
# ----------------------------------------------------------------------
def test_sweep_prefetch_matches_lazy_results(tmp_path):
    from repro.harness.experiments import SchedulingSweep

    lazy = SchedulingSweep(VDD_LOW_FAULT, benchmarks=["astar"], **_FAST)
    eager = SchedulingSweep(
        VDD_LOW_FAULT, benchmarks=["astar"], cache=True,
        cache_dir=tmp_path, **_FAST,
    )
    eager.prefetch((SchemeKind.FAULT_FREE, SchemeKind.ABS))
    for scheme in (SchemeKind.FAULT_FREE, SchemeKind.ABS):
        assert _fingerprint(eager.result("astar", scheme)) == _fingerprint(
            lazy.result("astar", scheme)
        )


@pytest.mark.parametrize("jobs", [0, None])
def test_jobs_zero_or_none_uses_all_cores(jobs):
    results = run_many(_specs()[:1], jobs=jobs)
    assert results[0].stats.committed >= _FAST["n_instructions"]


def test_experiment_driver_results_equal_across_jobs():
    from repro.harness.experiments import calibration, shmoo

    serial = calibration(benchmarks=["astar"], **_FAST)
    fanned = calibration(benchmarks=["astar"], jobs=2, **_FAST)
    assert fanned.data == serial.data
    assert fanned.render() == serial.render()

    serial = shmoo(benchmarks=["astar"], vdds=(1.04,),
                   overclocks=(1.0, 1.04), **_FAST)
    fanned = shmoo(benchmarks=["astar"], vdds=(1.04,),
                   overclocks=(1.0, 1.04), jobs=2, **_FAST)
    assert fanned.data == serial.data


# ----------------------------------------------------------------------
# concurrent-process safety of the shared cache directory
# ----------------------------------------------------------------------
def test_store_retries_when_version_dir_pruned_concurrently(
    tmp_path, monkeypatch
):
    import shutil

    spec = _specs()[0]
    result = run_one(spec)
    cache = ResultCache(tmp_path)
    real_replace = os.replace
    raced = {"n": 0}

    def racing_replace(src, dst):
        # first attempt: a concurrent prune deletes the version dir
        # between our makedirs and the rename
        if raced["n"] == 0 and dst.endswith(".pkl"):
            raced["n"] += 1
            shutil.rmtree(os.path.dirname(dst))
            raise FileNotFoundError(dst)
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", racing_replace)
    cache.store(spec, result)
    assert raced["n"] == 1
    loaded = ResultCache(tmp_path).load(spec)
    assert loaded is not None
    assert _fingerprint(loaded) == _fingerprint(result)


def test_store_tmp_names_unique_within_process(tmp_path):
    spec = _specs()[0]
    result = run_one(spec)
    cache = ResultCache(tmp_path)
    before = ResultCache._tmp_counter
    cache.store(spec, result)
    cache.store(spec, result)
    assert ResultCache._tmp_counter >= before + 2
    # no stray tmp files linger after successful stores
    leftovers = [
        name for name in os.listdir(tmp_path / model_version())
        if ".tmp." in name
    ]
    assert leftovers == []


def test_concurrent_prunes_tolerate_each_other(tmp_path):
    spec = _specs()[0]
    run_many([spec], jobs=1, cache=True, cache_dir=tmp_path)
    for fake in ("aaaa000011112222", "bbbb000011112222"):
        stale = tmp_path / fake
        stale.mkdir()
        (stale / "junk.pkl").write_bytes(b"junk")
    a, b = ResultCache(tmp_path), ResultCache(tmp_path)
    a.prune_stale()
    b.prune_stale()  # second prune sees nothing stale; must not raise
    remaining = sorted(os.listdir(tmp_path))
    assert remaining == [model_version()]
    assert ResultCache(tmp_path).load(spec) is not None


def test_prune_sweeps_orphaned_trash_dirs(tmp_path):
    cache = ResultCache(tmp_path)
    orphan = tmp_path / ".trash-deadbeef-12345"
    orphan.mkdir()
    (orphan / "junk.pkl").write_bytes(b"junk")
    cache.prune_stale()
    assert not orphan.exists()


def test_first_store_on_a_root_prunes_stale_versions(tmp_path):
    stale = tmp_path / "0123456789abcdef"
    stale.mkdir()
    (stale / "old.pkl").write_bytes(b"old")
    (tmp_path / "notes").mkdir()
    spec = _specs()[0]
    run_many([spec], jobs=1, cache=True, cache_dir=tmp_path)
    assert sorted(os.listdir(tmp_path)) == [model_version(), "notes"]
    assert ResultCache(tmp_path).load(spec) is not None


def test_prune_missing_root_is_noop(tmp_path):
    ResultCache(tmp_path / "never-created").prune_stale()


def test_two_campaign_style_writers_share_a_cache_dir(tmp_path):
    # two ResultCache instances (stand-ins for two campaign processes)
    # interleave stores, loads, and prunes without corruption
    specs = _specs()
    writer_a, writer_b = ResultCache(tmp_path), ResultCache(tmp_path)
    results = [run_one(spec) for spec in specs]
    writer_a.store(specs[0], results[0])
    writer_b.store(specs[1], results[1])
    writer_a.prune_stale()
    writer_b.store(specs[2], results[2])
    writer_b.store(specs[0], results[0])  # overwrite in place
    for spec, result in zip(specs, results):
        for reader in (writer_a, writer_b):
            assert _fingerprint(reader.load(spec)) == _fingerprint(result)
