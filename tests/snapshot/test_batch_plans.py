"""One plan per stream: the plans a batch run builds, and the one it keeps.

Specs of one stream key fetch the identical instruction stream whatever
their scheme, supply and clock, so they share a kernel call and one
batch plan, and a process keeps its last plan for the next call on the
same stream. A call builds one core (the plan's), one injector per
clock, one seedless tape per clock and supply, and one small engine per
warmup key. These tests count those, check that a kept plan is never
written and that two plans are never alive at once, and pin how far a
batch of seeded lanes draws its seedless tapes.
"""

import hashlib

import numpy as np
import pytest

from repro.core.schemes import SchemeKind
from repro.harness.parallel import run_many
from repro.harness.runner import RunSpec, run_one

#: a figure's schemes: the fault-free baseline, EP and the proposed three
FIGURE_SCHEMES = (SchemeKind.FAULT_FREE, SchemeKind.EP, SchemeKind.ABS,
                  SchemeKind.FFS, SchemeKind.CDS)


def _digest(result):
    return (result.stats.as_dict(), list(result.stats.fu_ops),
            dict(result.cache_stats), repr(result.energy.__dict__))


@pytest.fixture
def kernel():
    from repro.uarch.batchkernel import load_kernel

    if load_kernel() is None:
        pytest.skip("no compiled batch kernel")


@pytest.fixture
def plans(monkeypatch):
    """One entry per ``build_plan`` call: whether a kept plan was alive."""
    from repro.snapshot import batch
    from repro.uarch import batchcore

    calls = []
    build_plan = batchcore.build_plan

    def counted(core, n_commits):
        calls.append(bool(batch._plans))
        return build_plan(core, n_commits)

    monkeypatch.setattr(batchcore, "build_plan", counted)
    return calls


@pytest.fixture
def cores(monkeypatch):
    """One entry per ``build_core`` call: the spec's scheme."""
    from repro.harness import runner

    calls = []
    build_core = runner.build_core

    def counted(spec):
        calls.append(spec.scheme)
        return build_core(spec)

    monkeypatch.setattr(runner, "build_core", counted)
    return calls


@pytest.fixture
def engines(monkeypatch):
    """One entry per ``BatchEngine``: how many lanes it forked into."""
    from repro.uarch import batchcore

    lanes = []

    class Counted(batchcore.BatchEngine):
        def fork(self, n, tails):
            lanes.append(n)
            return super().fork(n, tails)

    monkeypatch.setattr(batchcore, "BatchEngine", Counted)
    return lanes


@pytest.fixture
def reports(monkeypatch):
    """The :class:`BatchReport` of every ``run_batch`` call."""
    from repro.snapshot import batch

    run_batch, out = batch.run_batch, []

    def spy(specs, snapshot_dir, report=None, force_evict=None):
        out.append(batch.BatchReport())
        return run_batch(specs, snapshot_dir, out[-1], force_evict)

    monkeypatch.setattr(batch, "run_batch", spy)
    return out


def _plan_digest(plan):
    """A hash of every array and number of ``plan`` and its stream."""
    digest = hashlib.sha256()
    for owner in (plan, plan.stream):
        names = sorted(getattr(owner, "__slots__", ()) or vars(owner))
        for name in names:
            value = getattr(owner, name)
            if isinstance(value, np.ndarray):
                digest.update(f"{name}{value.dtype}{value.shape}".encode())
                digest.update(np.ascontiguousarray(value).tobytes())
            elif isinstance(value, (bool, int, float)):
                digest.update(f"{name}={value!r}".encode())
    return digest.hexdigest()


def test_a_figure_grid_builds_one_plan_per_benchmark(kernel, plans,
                                                     reports):
    """Ten windows on two streams: two kernel calls, two plans."""
    specs = [RunSpec(benchmark, scheme, 0.97, 400, 300, seed=2)
             for benchmark in ("gcc", "mcf") for scheme in FIGURE_SCHEMES]
    lanes = run_many(specs, jobs=1, batch_lanes=16)
    assert len(plans) == 2
    assert [r.n_lanes for r in reports] == [5, 5]
    assert all(r.vector_lanes == 5 and r.fallback_reason is None
               for r in reports)
    assert ([_digest(r) for r in lanes]
            == [_digest(r) for r in run_many(specs, batch_lanes=0)])


def test_headline_runs_one_call_per_benchmark(kernel, plans, cores,
                                              drawn, engines, reports):
    """The headline fills both supplies with one ``run_many``: a call per
    benchmark holds its five schemes at 1.04 and at 0.97 V, builds one
    core and one plan, draws one seedless tape per supply (FAULT_FREE
    lanes draw none) and runs one one-lane engine per warmup key."""
    from repro.harness import experiments

    experiments.headline(n_instructions=600, warmup=300,
                         benchmarks=["gcc", "mcf"], jobs=1)
    assert [r.n_lanes for r in reports] == [10, 10]
    assert all(r.vector_lanes == 10 and r.fallback_reason is None
               for r in reports)
    assert len(plans) == 2 and len(cores) == 2
    assert [seeds for _, seeds in drawn] == [[None]] * 4
    assert engines == [1] * 20


def test_table1_runs_one_call_per_benchmark(kernel, plans, reports):
    """Table 1's two sweeps and its nominal-supply baseline are seven
    lanes of one stream: one call, one plan."""
    from repro.harness import experiments

    experiments.table1(n_instructions=600, warmup=300, benchmarks=["gcc"])
    assert [r.n_lanes for r in reports] == [7]
    assert reports[0].vector_lanes == 7
    assert len(plans) == 1


def test_a_campaign_point_builds_one_plan_for_its_calls(kernel, plans,
                                                        cores, reports,
                                                        tmp_path):
    """A fault-mode point's two draw batches and its baseline are three
    kernel calls on one stream, which plan once and build one core: a
    later call builds its lanes' injector alone."""
    from repro.campaign.executor import run_campaign
    from repro.campaign.plan import CampaignSpec

    spec = CampaignSpec(
        name="plans", benchmarks=["gcc"], schemes=["ABS"], vdds=[0.97],
        n_instructions=400, warmup=300, min_seeds=8, max_seeds=8,
        batch_size=4,
    )
    run_campaign(str(tmp_path / "campaign"), spec=spec, cache=False,
                 snapshots=False, batch_lanes=4)
    assert [r.n_lanes for r in reports] == [4, 1, 4]
    assert sum(r.vector_lanes for r in reports) == 9
    assert plans == [False]
    assert len(cores) == 1


def test_a_kept_plan_is_never_written(kernel):
    """Calls that reuse the kept plan leave every array of it unchanged,
    and a call on another stream drops it before planning its own."""
    import gc
    import weakref

    from repro.snapshot import batch

    def lanes(scheme, vdd, mseeds, benchmark="bzip2"):
        return [RunSpec(benchmark, scheme, vdd, 500, 400, seed=3,
                        measurement_seed=m) for m in mseeds]

    batch.run_batch(lanes(SchemeKind.EP, 0.97, [1, 2]), None)
    (plan,) = batch._plans.values()
    before = _plan_digest(plan)
    for group in (lanes(SchemeKind.CDS, 0.97, [3, None]),
                  lanes(SchemeKind.RAZOR, 1.04, [None])
                  + lanes(SchemeKind.FFS, 0.97, [4, 5])):
        report = batch.BatchReport()
        results = batch.run_batch(group, None, report)
        assert report.vector_lanes == len(group), report
        assert [_digest(r) for r in results] == [
            _digest(run_one(spec)) for spec in group]
        (kept,) = batch._plans.values()
        assert kept is plan
    assert _plan_digest(plan) == before
    # a call on another stream drops the kept plan before planning
    old = weakref.ref(plan)
    del plan, kept
    batch.run_batch(lanes(SchemeKind.EP, 0.97, [1], benchmark="gcc"), None)
    gc.collect()
    assert old() is None
    assert len(batch._plans) == 1


def _seeded(mseeds=(1, 2, 3)):
    return [RunSpec("gcc", SchemeKind.EP, 0.97, 600, 900, seed=4,
                    measurement_seed=m) for m in mseeds]


@pytest.fixture
def drawn(monkeypatch):
    """``(positions, seeds)`` of every tape draw of a batch."""
    from repro.snapshot import batch

    build_tapes, out = batch.build_tapes, []

    def spy(injector, program, pcs, measurement_seeds, vdd):
        out.append((len(pcs), list(measurement_seeds)))
        return build_tapes(injector, program, pcs, measurement_seeds, vdd)

    monkeypatch.setattr(batch, "build_tapes", spy)
    return out


def test_seeded_lanes_draw_the_seedless_tape_only_through_the_warmup(
        kernel, drawn):
    """When every lane of a warmup key reseeds, the key's seedless tape
    stops where a warmup can stop fetching, not at the plan's end."""
    from repro.snapshot import batch

    specs = _seeded()
    report = batch.BatchReport()
    results = batch.run_batch(specs, None, report)
    assert report.vector_lanes == 3 and report.fallback_reason is None
    (plan,) = batch._plans.values()
    seedless = [n for n, seeds in drawn if seeds == [None]]
    assert seedless == [batch.warmup_reach(plan, 900)]
    assert seedless[0] < plan.NS
    assert [_digest(r) for r in results] == [
        _digest(run_one(spec)) for spec in specs]


def test_a_warmup_past_its_seedless_tape_falls_back(kernel, drawn,
                                                    monkeypatch):
    """A seedless tape shorter than the warmup fetched never reads as
    "no fault": the call runs scalar under ``SHORT_TAPE``."""
    from repro.snapshot import batch

    monkeypatch.setattr(batch, "warmup_reach", lambda plan, warmup: 1)
    specs = _seeded()
    report = batch.BatchReport()
    results = batch.run_batch(specs, None, report)
    assert report.fallback_reason == batch.SHORT_TAPE
    assert (report.vector_lanes, report.scalar_lanes) == (0, 3)
    assert [n for n, seeds in drawn if seeds == [None]] == [1]
    assert [_digest(r) for r in results] == [
        _digest(run_one(spec)) for spec in specs]
