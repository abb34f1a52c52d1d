"""Snapshot cache mechanics: recovery, sharing, pruning, prewarm."""

import os
import pickle

from repro.core.schemes import SchemeKind
from repro.harness.parallel import ResultCache, model_version, run_many
from repro.harness.runner import RunSpec, run_one
from repro.snapshot import (
    SnapshotCache,
    SnapshotError,
    capture_core,
    ensure_snapshot,
    restore_core,
    warmed_core,
)


def _spec(**kw):
    kwargs = dict(
        benchmark="gcc", scheme=SchemeKind.ABS, vdd=0.97,
        n_instructions=2000, warmup=1000, seed=5,
    )
    kwargs.update(kw)
    return RunSpec(**kwargs)


def _wipe_mem_layer():
    # force the disk path: the in-process layer would otherwise mask
    # on-disk corruption
    from repro.snapshot import cache as cache_mod

    cache_mod._MEM.clear()


class TestCorruptRecovery:
    def test_truncated_blob_recovers_cold(self, tmp_path, capsys):
        spec = _spec()
        key = ensure_snapshot(spec, str(tmp_path))
        cache = SnapshotCache(str(tmp_path))
        path = cache.path_for(key)
        with open(path, "wb") as fh:
            fh.write(b"\x00garbage")
        _wipe_mem_layer()

        forked = run_one_with_dir(spec, tmp_path)
        cold = run_one(_spec())
        assert forked.stats.as_dict() == cold.stats.as_dict()
        assert "[snapshot] discarding corrupt snapshot" in (
            capsys.readouterr().err
        )
        # the bad entry was replaced by a fresh, loadable one
        _wipe_mem_layer()
        assert isinstance(
            restore_core(SnapshotCache(str(tmp_path)).get_blob(key)).cycle,
            int,
        )

    def test_wrong_type_blob_rejected(self, tmp_path):
        cache = SnapshotCache(str(tmp_path))
        blob = pickle.dumps({"not": "a core"})
        try:
            restore_core(blob)
        except SnapshotError as exc:
            assert "not OoOCore" in str(exc)
        else:
            raise AssertionError("restore_core accepted a dict")


def run_one_with_dir(spec, tmp_path):
    spec = _spec(
        benchmark=spec.benchmark, scheme=spec.scheme, vdd=spec.vdd,
        n_instructions=spec.n_instructions, warmup=spec.warmup,
        seed=spec.seed,
    )
    spec.snapshot_dir = str(tmp_path)
    return run_one(spec)


class TestSharedStore:
    def test_snapshots_and_results_share_version_dir(self, tmp_path):
        root = str(tmp_path)
        spec = _spec()
        ensure_snapshot(spec, root)
        store = ResultCache(root)
        store.store(spec, run_one(_spec()))
        version_dir = os.path.join(root, model_version())
        names = sorted(os.listdir(version_dir))
        assert any(n.endswith(".snap") for n in names)
        assert any(n.endswith(".pkl") for n in names)

    def test_prune_stale_retires_both_kinds(self, tmp_path):
        root = str(tmp_path)
        spec = _spec()
        ensure_snapshot(spec, root)
        stale = os.path.join(root, "0123456789abcdef")
        os.makedirs(stale)
        with open(os.path.join(stale, "x.snap"), "wb") as fh:
            fh.write(b"old")
        with open(os.path.join(stale, "y.pkl"), "wb") as fh:
            fh.write(b"old")
        SnapshotCache(root).prune_stale()
        assert not os.path.exists(stale)
        assert os.path.exists(os.path.join(root, model_version()))


class TestPrewarm:
    def test_run_many_warms_each_prefix_once(self, tmp_path, monkeypatch):
        """A batch sharing one warmup prefix simulates that warmup once."""
        import repro.harness.runner as runner_mod

        warm_calls = []
        real_warm = runner_mod.warm_core

        def counting_warm(spec):
            warm_calls.append(spec.warmup_key())
            return real_warm(spec)

        monkeypatch.setattr(runner_mod, "warm_core", counting_warm)
        # fork.py binds warm_core at import time; patch it there too
        import repro.snapshot.fork as fork_mod

        monkeypatch.setattr(fork_mod, "warm_core", counting_warm)

        specs = [_spec(measurement_seed=m) for m in (1, 2, 3)]
        for spec in specs:
            spec.snapshot_dir = str(tmp_path)
        results = run_many(specs)
        assert len(warm_calls) == 1
        assert len({r.stats.committed for r in results}) == 1

    def test_serial_run_many_restores_only_after_the_first_warmup(
        self, tmp_path, monkeypatch
    ):
        """A serial fan-out measures its first draw on the warmed core.

        Without a prewarm pass the first spec warms, stores and measures
        on one core; only the other two restore the stored snapshot.
        """
        import repro.snapshot.fork as fork_mod

        restores = []

        def counting_restore(blob):
            restores.append(len(blob))
            return restore_core(blob)

        monkeypatch.setattr(fork_mod, "restore_core", counting_restore)
        specs = [_spec(measurement_seed=m) for m in (1, 2, 3)]
        for spec in specs:
            spec.snapshot_dir = str(tmp_path)
        run_many(specs, jobs=1)
        assert len(restores) == 2

    def test_cold_batch_without_snapshot_dir_still_works(self):
        specs = [_spec(), _spec(seed=6)]
        results = run_many(specs)
        assert all(r.stats.committed >= 2000 for r in results)
