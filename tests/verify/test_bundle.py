"""Repro bundles: capture, delta-debug minimization, identical replay."""

import json
import os

import pytest

from repro.core.schemes import SchemeKind
from repro.harness.parallel import ResultCache, run_many
from repro.harness.runner import RunSpec
from repro.uarch.config import CoreConfig
from repro.verify.bundle import (
    RunFailure,
    capture_failure,
    minimize_failure,
    replay_bundle,
)
from repro.verify.driver import run_checked
from repro.verify.lockstep import DivergenceError


def _failing_spec(tmp_path, seq=120, **kw):
    spec_kw = dict(
        n_instructions=400, warmup=0, seed=5, verify=True,
        corruption={"kind": "value_xor", "seq": seq},
    )
    spec_kw.update(kw)
    spec = RunSpec("streaming", SchemeKind.ABS, 0.97, **spec_kw)
    spec.repro_dir = str(tmp_path)
    return spec


def _draw_spec(tmp_path, **kw):
    """astar/ABS/0.97 V, 600 + 200 instructions, corrupted at seq 420."""
    spec = RunSpec("astar", SchemeKind.ABS, 0.97, n_instructions=600,
                   warmup=200, seed=5, verify=True,
                   corruption={"kind": "value_xor", "seq": 420}, **kw)
    spec.repro_dir = str(tmp_path)
    return spec


class TestSpecSerialization:
    def test_round_trip_preserves_identity(self):
        from repro.faults.storm import default_storm

        spec = RunSpec(
            "streaming", SchemeKind.FFS, 0.97, n_instructions=400,
            warmup=100, seed=5, verify=True, storm=default_storm(),
            corruption={"kind": "drop", "seq": 50},
        )
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone.key() == spec.key()

    def test_plain_spec_round_trips_too(self):
        spec = RunSpec("astar", SchemeKind.EP, 1.10, n_instructions=300,
                       warmup=0, seed=2)
        assert RunSpec.from_dict(spec.to_dict()).key() == spec.key()


class TestCaptureAndReplay:
    def test_failure_is_captured_minimized_and_replayable(self, tmp_path):
        spec = _failing_spec(tmp_path)
        failure = run_checked(spec)
        assert isinstance(failure, RunFailure)
        assert failure.is_failure
        assert failure.kind == "divergence"
        assert failure.detail["field"] == "value"
        assert os.path.exists(failure.bundle_path)

        bundle = json.loads(open(failure.bundle_path).read())
        assert bundle["format"] == 1
        minimized = bundle["minimized"]["spec"]
        # delta-debug shrank the window down to the corrupted commit
        # (commit-width overshoot lets the window end a few short of it)
        assert 110 <= minimized["n_instructions"] <= 130
        assert bundle["trials"], "minimization probes must be journaled"

        report = replay_bundle(failure.bundle_path)
        assert report["reproduced"] is True
        assert report["identical"] is True

    def test_full_replay_reproduces_the_original_spec(self, tmp_path):
        failure = run_checked(_failing_spec(tmp_path))
        report = replay_bundle(failure.bundle_path, minimized=False)
        assert report["reproduced"] is True
        assert report["identical"] is True
        assert report["spec"]["n_instructions"] == 400

    def test_minimization_drops_unneeded_warmup(self, tmp_path):
        spec = _failing_spec(tmp_path, warmup=200)
        failure = run_checked(spec)
        bundle = json.loads(open(failure.bundle_path).read())
        assert bundle["minimized"]["spec"]["warmup"] == 0

    def test_custom_config_is_minimized_and_replays(self, tmp_path):
        """The bundle carries the core config, so minimization probes and
        replays run on the machine that failed."""
        spec = _draw_spec(tmp_path, config=CoreConfig.core2())
        failure = run_checked(spec)
        bundle = json.loads(open(failure.bundle_path).read())
        assert bundle["trials"]
        assert bundle["spec"]["config"] == CoreConfig.core2().to_dict()
        assert bundle["minimized"]["spec"]["config"]["width"] == 2
        for minimized in (True, False):
            report = replay_bundle(failure.bundle_path, minimized=minimized)
            assert report["identical"] is True
        assert report["observed"]["detail"]["cycle"] == failure.detail["cycle"]

    @pytest.mark.parametrize("measurement_seed", [11, 12, 13])
    def test_campaign_draw_replays_identically(self, tmp_path,
                                               measurement_seed):
        """A storm draw's measurement seed rides in the bundle: the full
        replay re-runs the draw's own fault realization."""
        from repro.faults.storm import default_storm

        spec = _draw_spec(tmp_path, storm=default_storm(),
                          measurement_seed=measurement_seed)
        failure = run_checked(spec)
        bundle = json.loads(open(failure.bundle_path).read())
        assert bundle["spec"] == spec.to_dict()
        assert bundle["spec"]["measurement_seed"] == measurement_seed
        for minimized in (True, False):
            report = replay_bundle(failure.bundle_path, minimized=minimized)
            assert report["reproduced"] is True
            assert report["identical"] is True
        assert report["observed"]["detail"]["cycle"] == failure.detail["cycle"]

    def test_bundle_without_the_newer_spec_keys_replays(self, tmp_path):
        """A bundle whose spec blocks predate measurement_seed, telemetry
        and the core/TEP configs still loads (they default) and replays
        identically, minimized and full."""
        source = os.path.join(os.path.dirname(__file__), "legacy_bundle.json")
        bundle = json.loads(open(source).read())
        for section in (bundle["spec"], bundle["minimized"]["spec"]):
            assert not {"measurement_seed", "telemetry", "config",
                        "tep_config"} & set(section)
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(bundle))
        for minimized in (True, False):
            report = replay_bundle(str(path), minimized=minimized)
            assert report["reproduced"] is True
            assert report["identical"] is True

    def test_capture_never_masks_the_failure(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setattr(
            "repro.verify.bundle.write_bundle",
            lambda *a, **kw: (_ for _ in ()).throw(OSError("disk full")),
        )
        exc = DivergenceError("synthetic", field="value", commit_index=3)
        spec = _failing_spec(tmp_path, config=CoreConfig.core2())
        failure = capture_failure(spec, exc, repro_dir=str(tmp_path))
        assert failure.is_failure
        assert failure.bundle_path is None
        assert "bundle capture failed" in capsys.readouterr().err

    def test_minimize_certifies_the_signature_it_returns(self, tmp_path):
        spec = _failing_spec(tmp_path)
        min_spec, sig, trials = minimize_failure(
            spec, "divergence", detail={"commit_index": 120},
        )
        assert sig is not None and sig[0] == "divergence"
        assert min_spec.n_instructions <= spec.n_instructions
        assert any(t["reproduced"] for t in trials)


class TestBatchIntegration:
    def test_run_many_returns_failures_in_place(self, tmp_path):
        bad = _failing_spec(tmp_path)
        good = RunSpec("streaming", SchemeKind.ABS, 0.97,
                       n_instructions=400, warmup=0, seed=5, verify=True)
        results = run_many([bad, good])
        assert getattr(results[0], "is_failure", False)
        assert not getattr(results[1], "is_failure", False)
        assert results[1].verification["commits"] >= 400

    def test_failures_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _failing_spec(tmp_path)
        result = run_many([spec], cache=cache)[0]
        assert result.is_failure
        assert cache.load(spec) is None


class TestVerifyCli:
    def test_lockstep_verb_reports_clean_grid(self, capsys):
        from repro.harness.cli import main

        rc = main([
            "verify", "lockstep", "--benchmarks", "streaming",
            "--schemes", "ABS", "--vdds", "0.97",
            "--instructions", "600", "--warmup", "100",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1/1 runs clean" in out

    def test_storm_verb_overrides_knobs(self, capsys, tmp_path):
        from repro.harness.cli import main

        rc = main([
            "verify", "storm", "--benchmarks", "streaming",
            "--schemes", "FFS", "--vdds", "0.97",
            "--instructions", "600", "--warmup", "100",
            "--burst-rate", "0.2", "--bundle-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "storm_faults=" in out

    def test_replay_bundle_verb_round_trips(self, tmp_path, capsys):
        from repro.harness.cli import main

        failure = run_checked(_failing_spec(tmp_path))
        rc = main(["verify", "replay-bundle", failure.bundle_path])
        assert rc == 0
        assert "byte-identically" in capsys.readouterr().out

    def test_replay_bundle_verb_rejects_missing_file(self, tmp_path, capsys):
        from repro.harness.cli import main

        rc = main([
            "verify", "replay-bundle", str(tmp_path / "nope.json")
        ])
        assert rc == 2
        assert "cannot replay" in capsys.readouterr().err

    def test_unknown_scheme_is_rejected(self, capsys):
        from repro.harness.cli import main

        rc = main([
            "verify", "lockstep", "--benchmarks", "streaming",
            "--schemes", "WARP",
        ])
        assert rc != 0
