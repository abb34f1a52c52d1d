"""End-to-end telemetry: determinism, caching, storm transients, profiling."""

import pytest

from repro.harness.parallel import ResultCache, collect_series, run_many
from repro.harness.runner import RunSpec, run_one
from repro.telemetry import TelemetryConfig
from repro.telemetry.events import events_to_jsonl

_FAST = dict(n_instructions=1000, warmup=300)
_TELEM = dict(metrics=True, interval=200, events=True)


def _spec(seed=2, **telemetry):
    knobs = dict(_TELEM, **telemetry) if telemetry else dict(_TELEM)
    return RunSpec("bzip2", "CDS", 0.97, seed=seed, **_FAST,
                   telemetry=TelemetryConfig(**knobs))


def _fingerprint(telem):
    return (telem.metrics.to_json(), events_to_jsonl(telem.events),
            telem.events_emitted, telem.events_dropped)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_identical_specs_yield_byte_identical_telemetry():
    a = run_one(_spec()).telemetry
    b = run_one(_spec()).telemetry
    assert _fingerprint(a) == _fingerprint(b)


def test_parallel_fanout_matches_serial():
    specs = [_spec(seed=s) for s in (1, 2, 3)]
    serial = [run_one(spec).telemetry for spec in specs]
    fanned = run_many([_spec(seed=s) for s in (1, 2, 3)], jobs=2)
    for expect, result in zip(serial, fanned):
        assert _fingerprint(expect) == _fingerprint(result.telemetry)


def test_cache_hit_returns_identical_telemetry(tmp_path):
    first = run_many([_spec()], cache=True, cache_dir=tmp_path)[0]
    again = run_many([_spec()], cache=True, cache_dir=tmp_path)[0]
    assert _fingerprint(first.telemetry) == _fingerprint(again.telemetry)


def test_profiled_run_is_never_cached(tmp_path):
    first = run_many([_spec(profile=True)], cache=True, cache_dir=tmp_path)
    assert first[0].telemetry.profile["wall_seconds"] > 0
    # wall-clock seconds must not be replayed to a later run
    assert ResultCache(tmp_path).load(_spec(profile=True)) is None


def test_spec_key_distinguishes_telemetry_config():
    bare = RunSpec("bzip2", "CDS", 0.97, seed=2, **_FAST)
    keys = {
        bare.key(),
        _spec().key(),
        _spec(interval=100).key(),
        _spec(events=False).key(),
        _spec(profile=True).key(),
    }
    assert len(keys) == 5  # each config is its own cache entry


def test_telemetry_survives_pickle():
    import pickle

    telem = run_one(_spec()).telemetry
    clone = pickle.loads(pickle.dumps(telem))
    assert _fingerprint(clone) == _fingerprint(telem)
    assert clone.event_counts == telem.event_counts


# ----------------------------------------------------------------------
# opt-in boundaries
# ----------------------------------------------------------------------
def test_disabled_telemetry_collects_nothing():
    result = run_one(RunSpec("bzip2", "CDS", 0.97, seed=2, **_FAST))
    assert result.telemetry is None


def test_all_off_config_collects_nothing():
    spec = RunSpec("bzip2", "CDS", 0.97, seed=2, **_FAST,
                   telemetry=TelemetryConfig(metrics=False, events=False))
    assert run_one(spec).telemetry is None


def test_telemetry_does_not_perturb_simulation():
    bare = run_one(RunSpec("bzip2", "CDS", 0.97, seed=2, **_FAST))
    traced = run_one(_spec(profile=True))
    assert bare.stats.as_dict() == traced.stats.as_dict()


def test_event_ring_drops_oldest_but_counts_all():
    telem = run_one(_spec(event_capacity=64)).telemetry
    assert len(telem.events) == 64
    assert telem.events_dropped == telem.events_emitted - 64
    assert telem.events_dropped > 0
    # the ring keeps the newest tail
    cycles = [cycle for cycle, _, _ in telem.events]
    assert cycles == sorted(cycles)


def test_dropped_events_surface_in_stats_and_summary():
    # silent trace truncation made loud: the tally rides both the
    # exported SimStats dict and the journaled telemetry summary
    result = run_one(_spec(event_capacity=64))
    telem = result.telemetry
    assert telem.events_dropped > 0
    assert result.stats.as_dict()["dropped_events"] == telem.events_dropped
    assert telem.summary()["dropped_events"] == telem.events_dropped


def test_summary_without_event_tracing_omits_dropped_key():
    telem = run_one(_spec(events=False)).telemetry
    summary = telem.summary()
    assert "dropped_events" not in summary  # no ring ran, nothing to drop
    assert summary["windows"] > 0


def test_untraced_run_exports_zero_dropped_events():
    result = run_one(RunSpec("bzip2", "CDS", 0.97, seed=2, **_FAST))
    assert result.stats.as_dict()["dropped_events"] == 0


# ----------------------------------------------------------------------
# batch pooling
# ----------------------------------------------------------------------
def test_collect_series_pools_across_results():
    results = run_many([_spec(seed=s) for s in (1, 2)])
    merged = collect_series(results)
    assert merged.n_merged == 2
    assert len(merged) >= 2
    bare = run_one(RunSpec("bzip2", "CDS", 0.97, seed=9, **_FAST))
    assert collect_series([bare]) is None


# ----------------------------------------------------------------------
# storm transients (the paper's recovery story, now visible)
# ----------------------------------------------------------------------
def test_interval_metrics_show_storm_ipc_dip_and_recovery():
    from repro.faults.storm import default_storm

    spec = RunSpec(
        "bzip2", "CDS", 0.97, n_instructions=4000, warmup=500, seed=1,
        storm=default_storm(),
        telemetry=TelemetryConfig(metrics=True, interval=200),
    )
    ipc = run_one(spec).telemetry.metrics.column("ipc")
    assert len(ipc) >= 10
    threshold = 0.6 * max(ipc)
    dips = [i for i, v in enumerate(ipc) if v < threshold]
    # the burst windows visibly crater throughput...
    assert dips
    # ...and the machine recovers after the first burst passes
    assert any(v >= threshold for v in ipc[dips[0] + 1:])


# ----------------------------------------------------------------------
# self-profiling
# ----------------------------------------------------------------------
def test_profiler_reports_stage_accounting():
    telem = run_one(_spec(profile=True)).telemetry
    profile = telem.profile
    assert profile["wall_seconds"] > 0
    stages = profile["stages"]
    assert set(stages) == {"fetch", "dispatch", "select", "commit", "events"}
    for entry in stages.values():
        assert entry["calls"] > 0
        assert entry["seconds"] >= 0
    accounted = sum(entry["seconds"] for entry in stages.values())
    assert accounted <= profile["wall_seconds"]
    assert profile["other_seconds"] == pytest.approx(
        profile["wall_seconds"] - accounted
    )


def test_unprofiled_run_has_no_profile():
    assert run_one(_spec()).telemetry.profile is None
