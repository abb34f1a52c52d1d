"""Executor: resumable state, confidence-driven stopping, bounded retry.

Two acceptance properties are pinned here:

* **Resumability** — a campaign killed after N of M points and resumed
  produces a byte-identical ``report.json`` to an uninterrupted run,
  and the resume executes only the remaining points (asserted via
  journal and batch-call counts).
* **Confidence-driven stopping** — at the same target half-width the
  sequential executor issues measurably fewer runs than a fixed-N
  design, and every reported metric carries (mean, CI, n).
"""

import json
import os

import pytest

from repro.campaign.executor import (
    CampaignError,
    make_run_fn,
    run_campaign,
)
from repro.campaign.journal import Journal
from repro.campaign.plan import CampaignSpec
from repro.harness.parallel import run_many

_FAST = dict(n_instructions=500, warmup=250)


def _spec(**kw):
    defaults = dict(
        name="exec-test", benchmarks=["astar"],
        schemes=["EP", "ABS", "CDS"], vdds=[0.97],
        seeds=[1, 2],  # fixed-N: 2 draws per point, deterministic
        **_FAST,
    )
    defaults.update(kw)
    return CampaignSpec(**defaults)


class _CountingRunFn:
    """run_many pass-through that counts batch calls and specs."""

    def __init__(self, explode_on_call=None):
        self.calls = 0
        self.specs_run = 0
        self.explode_on_call = explode_on_call

    def __call__(self, specs):
        self.calls += 1
        if self.explode_on_call is not None and (
            self.calls >= self.explode_on_call
        ):
            raise KeyboardInterrupt  # simulated kill -9 / ^C
        self.specs_run += len(specs)
        return run_many(specs, jobs=1)


class TestResumability:
    def test_interrupted_resume_is_byte_identical(self, tmp_path):
        straight_dir = tmp_path / "straight"
        resumed_dir = tmp_path / "resumed"

        # uninterrupted reference run: 3 points x 2 seeds
        straight = _CountingRunFn()
        run_campaign(straight_dir, spec=_spec(), run_fn=straight)
        assert straight.calls == 3  # one batch per point

        # same campaign, killed after the first point completes
        interrupted = _CountingRunFn(explode_on_call=2)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(resumed_dir, spec=_spec(), run_fn=interrupted)
        state = Journal(resumed_dir).replay()
        assert len(state.completed) == 1
        assert state.total_runs == 2  # only point 1's draws journaled

        # resume executes ONLY the two remaining points
        resume = _CountingRunFn()
        run_campaign(resumed_dir, resume=True, run_fn=resume)
        assert resume.calls == 2
        assert resume.specs_run == 2 * 2 * 2  # 2 points x 2 seeds x pair

        # journal totals now match the uninterrupted run exactly
        state = Journal(resumed_dir).replay()
        assert state.total_runs == 6
        assert len(state.completed) == 3
        assert state.done

        # final reports are byte-identical
        straight_bytes = (straight_dir / "report.json").read_bytes()
        resumed_bytes = (resumed_dir / "report.json").read_bytes()
        assert straight_bytes == resumed_bytes

    def test_completed_points_not_rerun_on_resume(self, tmp_path):
        run_campaign(tmp_path, spec=_spec(), run_fn=_CountingRunFn())
        # resuming a finished campaign executes nothing
        untouched = _CountingRunFn()
        report = run_campaign(tmp_path, resume=True, run_fn=untouched)
        assert untouched.calls == 0
        assert report["complete"]

    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        interrupted = _CountingRunFn(explode_on_call=2)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(tmp_path, spec=_spec(), run_fn=interrupted)
        with pytest.raises(CampaignError, match="resume"):
            run_campaign(tmp_path, spec=_spec(), run_fn=_CountingRunFn())

    def test_partial_point_continues_from_recorded_draws(self, tmp_path):
        # batch_size=1 so a point is interruptible mid-point
        spec = _spec(seeds=None, min_seeds=2, max_seeds=2, batch_size=1,
                     schemes=["EP"], targets={})
        interrupted = _CountingRunFn(explode_on_call=2)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(tmp_path, spec=spec, run_fn=interrupted)
        assert Journal(tmp_path).replay().total_runs == 1
        resume = _CountingRunFn()
        run_campaign(tmp_path, resume=True, run_fn=resume)
        # exactly one more draw (one pair), not a repeat of the first
        assert resume.specs_run == 2
        state = Journal(tmp_path).replay()
        records = state.runs["astar/EP/0.97"]
        assert [r["index"] for r in records] == [0, 1]
        assert records[0]["seed"] != records[1]["seed"]


# ----------------------------------------------------------------------
# confidence-driven stopping (fake simulator: controlled variance)
# ----------------------------------------------------------------------
class _FakeStats:
    def __init__(self, faults, replays, committed):
        self.faults_total = faults
        self.replays = replays
        self.committed = committed


class _FakeResult:
    def __init__(self, cycles, edp, ipc, faults, replays, committed):
        self.cycles = cycles
        self.edp = edp
        self.ipc = ipc
        self.stats = _FakeStats(faults, replays, committed)
        self.fault_rate = faults / committed


def _noise(seed):
    """Deterministic pseudo-noise in [0, 1) from a seed."""
    return ((seed * 2654435761) % 2**32) / 2**32


class _FakeSim:
    """Batch runner with small seed-to-seed variance; counts draws."""

    def __init__(self):
        self.pairs_run = 0

    def __call__(self, specs):
        results = []
        for spec in specs:
            from repro.core.schemes import SchemeKind

            base_cycles = 1000.0
            if spec.scheme is SchemeKind.FAULT_FREE:
                results.append(_FakeResult(
                    base_cycles, 1.0, 1.0, 0, 0, spec.n_instructions,
                ))
            else:
                self.pairs_run += 1
                # draw-to-draw variance rides the measurement seed in
                # fault draw mode and the whole-run seed in program mode
                draw_seed = (
                    spec.measurement_seed
                    if spec.measurement_seed is not None else spec.seed
                )
                jitter = 0.01 * (_noise(draw_seed) - 0.5)  # sd ~ 0.003
                cycles = base_cycles * (1.10 + jitter)
                results.append(_FakeResult(
                    cycles, 1.2, 0.9,
                    faults=10, replays=4,
                    committed=spec.n_instructions,
                ))
        return results


class TestConfidenceStopping:
    def _measure(self, tmp_path, tag, **spec_kw):
        sim = _FakeSim()
        spec = CampaignSpec(
            name=tag, benchmarks=["astar"], schemes=["ABS"], vdds=[0.97],
            n_instructions=2000, warmup=0, **spec_kw,
        )
        report = run_campaign(tmp_path / tag, spec=spec, run_fn=sim)
        return sim, report

    def test_sequential_beats_fixed_n_at_same_halfwidth(self, tmp_path):
        target = {"perf_overhead": 0.01}
        fixed_n = 16
        sequential, seq_report = self._measure(
            tmp_path, "seq", min_seeds=3, max_seeds=fixed_n, batch_size=2,
            targets=target,
        )
        fixed, fix_report = self._measure(
            tmp_path, "fixed", min_seeds=fixed_n, max_seeds=fixed_n,
            batch_size=fixed_n, targets=target,
        )
        assert fixed.pairs_run == fixed_n
        # the sequential design stopped well short of the fixed budget...
        assert sequential.pairs_run < fixed_n
        assert seq_report["points"][0]["stopped"] == "ci"
        # ...yet met the same target half-width
        seq_metric = seq_report["points"][0]["metrics"]["perf_overhead"]
        assert seq_metric["halfwidth"] <= target["perf_overhead"]

    def test_max_seeds_caps_hopeless_points(self, tmp_path):
        sim, report = self._measure(
            tmp_path, "capped", min_seeds=2, max_seeds=4, batch_size=2,
            targets={"perf_overhead": 1e-9},  # unreachable
        )
        assert sim.pairs_run == 4
        assert report["points"][0]["stopped"] == "max_seeds"

    def test_every_reported_metric_carries_mean_ci_n(self, tmp_path):
        _, report = self._measure(
            tmp_path, "triples", min_seeds=3, max_seeds=6, batch_size=3,
            targets={"perf_overhead": 0.01},
        )
        json_bytes = json.dumps(report)  # JSON-serializable end to end
        assert json_bytes
        for point in report["points"]:
            for metric, entry in point["metrics"].items():
                assert entry["n"] >= 3
                assert isinstance(entry["mean"], float)
                assert entry["halfwidth"] is not None


# ----------------------------------------------------------------------
# bounded retry
# ----------------------------------------------------------------------
class _FlakyRunFn:
    """Fails the first ``failures`` calls, then delegates to run_many."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def __call__(self, specs):
        self.calls += 1
        if self.calls <= self.failures:
            raise OSError("worker crashed")
        return run_many(specs, jobs=1)


# ----------------------------------------------------------------------
# verification failure path: one failed point cannot take down a campaign
# ----------------------------------------------------------------------
class _FailingRunFn:
    """Delegates to run_many, but fails one benchmark's scheme runs."""

    def __init__(self, failing_benchmark):
        self.failing_benchmark = failing_benchmark

    def __call__(self, specs):
        from repro.core.schemes import SchemeKind
        from repro.verify.bundle import RunFailure

        results = run_many(specs, jobs=1)
        for i, spec in enumerate(specs):
            if (
                spec.benchmark == self.failing_benchmark
                and spec.scheme is not SchemeKind.FAULT_FREE
            ):
                results[i] = RunFailure(
                    spec, "divergence", {"field": "value"},
                    bundle_path="/tmp/fake-bundle.json",
                )
        return results


class TestVerificationFailurePath:
    def _run(self, tmp_path):
        spec = _spec(
            benchmarks=["astar", "bzip2"], schemes=["ABS"], seeds=[1],
        )
        return run_campaign(
            tmp_path, spec=spec, run_fn=_FailingRunFn("astar")
        )

    def test_campaign_completes_past_a_failed_point(self, tmp_path):
        report = self._run(tmp_path)
        assert report["complete"]
        by_bench = {p["benchmark"]: p for p in report["points"]}
        assert by_bench["astar"]["stopped"] == "failed"
        assert by_bench["astar"]["metrics"] is None
        assert by_bench["bzip2"]["metrics"] is not None

    def test_failure_event_carries_the_bundle_path(self, tmp_path):
        self._run(tmp_path)
        state = Journal(tmp_path).replay()
        completion = state.completed["astar/ABS/0.97"]
        assert completion["failure"]["kind"] == "divergence"
        assert completion["failure"]["bundle"] == "/tmp/fake-bundle.json"

    def test_failed_cell_renders_as_failed(self, tmp_path):
        from repro.campaign.report import render_markdown

        report = self._run(tmp_path)
        markdown = render_markdown(report)
        assert "FAILED" in markdown

    def test_pooled_aggregates_skip_failed_points(self, tmp_path):
        report = self._run(tmp_path)
        # only bzip2 contributes to the ABS pool; no crash on the
        # metrics-less astar entry
        assert "ABS" in report["by_scheme"]

    def test_failed_point_is_not_rerun_on_resume(self, tmp_path):
        self._run(tmp_path)
        untouched = _CountingRunFn()
        report = run_campaign(tmp_path, resume=True, run_fn=untouched)
        assert untouched.calls == 0
        assert report["complete"]


class TestBoundedRetry:
    def test_retries_recover_from_transient_failures(self, tmp_path):
        flaky = _FlakyRunFn(failures=2)

        def run_fn(specs):
            last = None
            for _ in range(3):
                try:
                    return flaky(specs)
                except Exception as exc:  # noqa: BLE001
                    last = exc
            raise CampaignError(str(last))

        spec = _spec(schemes=["EP"])
        report = run_campaign(tmp_path, spec=spec, run_fn=run_fn)
        assert report["complete"]
        assert flaky.calls == 3

    def test_make_run_fn_bounds_retries(self, monkeypatch):
        attempts = []

        def boom(specs, jobs=1, cache=False, batch_lanes=None, timeout=None):
            attempts.append(1)
            raise OSError("worker crashed")

        monkeypatch.setattr("repro.campaign.executor.run_many", boom)
        run_fn = make_run_fn(jobs=1, cache=False, retries=2)
        with pytest.raises(CampaignError, match="3 attempts"):
            run_fn([object()])
        assert len(attempts) == 3

    def test_make_run_fn_executes_real_specs(self, tmp_path):
        spec = _spec(schemes=["EP"], seeds=[1])
        point = spec.points()[0]
        run_fn = make_run_fn(jobs=1, cache=True, cache_dir=tmp_path)
        results = run_fn(list(spec.pair_specs(point, 0)))
        assert results[0].stats.committed >= _FAST["n_instructions"]
        # second call served from the shared cache (same results)
        again = run_fn(list(spec.pair_specs(point, 0)))
        assert again[0].stats.as_dict() == results[0].stats.as_dict()


class TestBaselineMemo:
    def test_uncached_point_simulates_its_baseline_once(
        self, tmp_path, monkeypatch
    ):
        """Two batches of one point share a single fault-free baseline.

        Without a result cache the baseline used to run again for every
        scheduler batch; the journal must not notice the difference.
        """
        from repro.campaign import executor

        spec = dict(name="memo", benchmarks=["astar"], schemes=["EP", "ABS"],
                    vdds=[0.97], n_instructions=800, warmup=400,
                    min_seeds=4, max_seeds=4, batch_size=2)
        run_campaign(tmp_path / "cached", spec=CampaignSpec(**spec),
                     cache_dir=tmp_path / "cache", snapshots=False)
        baselines = []

        def spy(specs, **kwargs):
            baselines.extend(s.key() for s in specs
                             if s.scheme.name == "FAULT_FREE")
            return run_many(specs, **kwargs)

        monkeypatch.setattr(executor, "run_many", spy)
        run_campaign(tmp_path / "uncached", spec=CampaignSpec(**spec),
                     cache=False, snapshots=False)
        # one per point (each point's warmup seed keys its own baseline)
        assert len(baselines) == len(set(baselines)) == 2
        for name in ("journal.jsonl", "report.json"):
            assert (tmp_path / "uncached" / name).read_bytes() == (
                tmp_path / "cached" / name
            ).read_bytes(), name
