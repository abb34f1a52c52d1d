"""Vector-vs-scalar equivalence: the batch engine must be invisible.

The lockstep batch engine (``repro.snapshot.batch`` +
``repro.uarch.batchcore``) exists purely as a throughput optimization:
for every lane, its SimStats digest, cache counters, and energy numbers
must equal the scalar snapshot-fork run bit for bit, and a campaign
journal written with batching on must be byte-identical to one written
with it off. The grid here crosses schemes × supply × storm on/off ×
lane counts N∈{1,4,16}, on both execution paths: the compiled kernel,
and no kernel at all, where every batch must fall back to the scalar
path lane by lane and say so in its report. A hypothesis test pins that
forcing lane evictions at arbitrary points (the mid-window divergence
path) cannot change any result, on both paths too. A generated test
draws benchmark, scheme, supply, seeds (or one seedless lane), lane
count, core and TEP geometry, window lengths and a forked or cold
donor, and compares every kernel lane with a cold scalar run of its
spec.
"""

import contextlib
from unittest import mock

import pytest

from repro.core.schemes import SchemeKind
from repro.faults.storm import StormConfig
from repro.harness.parallel import run_many
from repro.harness.runner import RunSpec
from repro.uarch.batchstream import have_numpy
from repro.workloads.profiles import profile_names

pytestmark = pytest.mark.skipif(
    not have_numpy(), reason="batch engine requires numpy"
)

POINT = dict(benchmark="gcc", n_instructions=600, warmup=300, seed=5)
SCHEMES = (SchemeKind.ABS, SchemeKind.EP)
VDDS = (0.97, 1.04)
LANE_COUNTS = (1, 4, 16)


def _digest(result):
    return {
        "stats": result.stats.as_dict(),
        "cache": dict(result.cache_stats),
        "energy": repr(result.energy.__dict__),
    }


def _specs(scheme, vdd, n, snap_dir, storm=None, first_mseed=1):
    out = []
    for i in range(n):
        spec = RunSpec(
            scheme=scheme, vdd=vdd, storm=storm,
            measurement_seed=first_mseed + i, **POINT,
        )
        spec.snapshot_dir = str(snap_dir)
        out.append(spec)
    return out


@pytest.fixture(scope="module")
def snap_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("snapshots")


@pytest.fixture(scope="module")
def scalar_ref(snap_dir):
    """Memoized scalar-path reference digests, keyed per lane spec."""
    memo = {}

    def ref(scheme, vdd, n):
        key = (scheme, vdd, n)
        if key not in memo:
            results = run_many(
                _specs(scheme, vdd, n, snap_dir), batch_lanes=0
            )
            memo[key] = [_digest(r) for r in results]
        return memo[key]

    return ref


ENGINE_PATHS = ("kernel", "nokernel")


@contextlib.contextmanager
def _engine(path):
    """Run the body with the compiled kernel, or with kernel loading off."""
    if path == "kernel":
        yield path
        return
    from repro.uarch import batchkernel

    with mock.patch.object(batchkernel, "load_kernel", lambda: None):
        yield path


@pytest.fixture(params=ENGINE_PATHS)
def engine_path(request):
    with _engine(request.param) as path:
        yield path


def _check_report(report, engine_path, n_lanes):
    """The report must say which path the batch really took."""
    if engine_path == "nokernel":
        assert "kernel" in report.fallback_reason
        assert report.vector_lanes == 0
        assert report.scalar_lanes == n_lanes
    else:
        assert report.fallback_reason is None
        assert report.vector_lanes + report.scalar_lanes == n_lanes


@pytest.mark.parametrize("n", LANE_COUNTS)
@pytest.mark.parametrize("vdd", VDDS)
@pytest.mark.parametrize(
    "scheme", SCHEMES, ids=[s.name for s in SCHEMES]
)
def test_batch_matches_scalar(scheme, vdd, n, snap_dir, scalar_ref,
                              engine_path):
    from repro.snapshot.batch import BatchReport, run_batch

    specs = _specs(scheme, vdd, n, snap_dir)
    batched = run_many(specs, batch_lanes=n)
    assert [_digest(r) for r in batched] == scalar_ref(scheme, vdd, n)
    report = BatchReport()
    direct = run_batch(specs, str(snap_dir), report)
    assert [_digest(r) for r in direct] == scalar_ref(scheme, vdd, n)
    _check_report(report, engine_path, n)


def test_no_kernel_batch_skips_fork_and_plan(snap_dir, scalar_ref):
    """Without a kernel, the batch goes scalar before any batch setup."""
    from repro.snapshot import batch
    from repro.uarch import batchcore

    def forbidden(*args, **kwargs):
        raise AssertionError("batch setup ran with no kernel")

    report = batch.BatchReport()
    with _engine("nokernel"), \
            mock.patch.object(batch, "warmed_core", forbidden), \
            mock.patch.object(batchcore, "build_plan", forbidden):
        results = batch.run_batch(
            _specs(SchemeKind.EP, 0.97, 4, snap_dir), str(snap_dir), report
        )
    _check_report(report, "nokernel", 4)
    assert ([_digest(r) for r in results]
            == scalar_ref(SchemeKind.EP, 0.97, 4))


@pytest.fixture(scope="module")
def kernel():
    from repro.uarch.batchkernel import load_kernel

    if load_kernel() is None:
        pytest.skip("no compiled batch kernel")


def test_fallback_lane_measures_on_the_donor(monkeypatch):
    """A whole-batch fallback after the donor is warmed warms once.

    CDS is outside the kernel's model, so ``build_plan`` raises
    ``BatchFallback`` on the donor. The lane then measures on that
    donor: one warmup for the batch, and the result equals ``run_one``.
    Without a kernel the lane is a plain ``run_one``, one warmup too.
    """
    from repro.harness.runner import run_one
    from repro.snapshot import batch, fork

    spec = RunSpec(scheme=SchemeKind.CDS, vdd=0.97, **POINT)
    warm_core, warmups = fork.warm_core, []

    def counting(spec, core=None):
        warmups.append(spec)
        return warm_core(spec, core)

    report = batch.BatchReport()
    with monkeypatch.context() as patch:
        patch.setattr(fork, "warm_core", counting)
        lanes = batch.run_batch([spec], None, report)
    assert report.fallback_reason is not None
    assert report.scalar_lanes == 1
    assert len(warmups) == 1
    assert _digest(lanes[0]) == _digest(run_one(spec))


def test_lane_export_equals_scalar_export(kernel, snap_dir):
    """A kernel lane's JSON export is byte-equal to its scalar twin's.

    The scalar core keys ``stage_faults`` in first-fault order and a
    lane in stage order; the export writes the ``as_dict`` form only.
    """
    import json

    from repro.harness.export import sim_result_to_dict
    from repro.harness.runner import run_one
    from repro.snapshot.batch import BatchReport, run_batch

    for benchmark in ("gcc", "astar", "mcf", "bzip2", "sjeng", "tonto"):
        for scheme in SCHEMES:
            spec = RunSpec(benchmark, scheme, 0.97, 1000, 3000, 3,
                           measurement_seed=7)
            spec.snapshot_dir = str(snap_dir)
            report = BatchReport()
            (lane,) = run_batch([spec], str(snap_dir), report)
            assert report.vector_lanes == 1, report
            assert (json.dumps(sim_result_to_dict(lane))
                    == json.dumps(sim_result_to_dict(run_one(spec)))), (
                benchmark, scheme)


@pytest.mark.parametrize("vdd", VDDS)
@pytest.mark.parametrize(
    "scheme", SCHEMES, ids=[s.name for s in SCHEMES]
)
def test_storm_specs_route_scalar_identically(scheme, vdd, snap_dir):
    """Storm draws are batch-ineligible; routing must not disturb them."""
    from repro.snapshot.batch import batch_eligible

    storm = StormConfig(burst_rate=0.001)
    specs = _specs(scheme, vdd, 4, snap_dir, storm=storm)
    assert not any(batch_eligible(s) for s in specs)
    batched = run_many(_specs(scheme, vdd, 4, snap_dir, storm=storm),
                       batch_lanes=4)
    scalar = run_many(_specs(scheme, vdd, 4, snap_dir, storm=storm),
                      batch_lanes=0)
    assert ([_digest(r) for r in batched]
            == [_digest(r) for r in scalar])


def _tiny_campaign_spec(benchmark="gcc"):
    from repro.campaign.plan import CampaignSpec

    return CampaignSpec(
        name="batch-equivalence", benchmarks=[benchmark],
        schemes=["ABS"], vdds=[0.97],
        n_instructions=POINT["n_instructions"], warmup=POINT["warmup"],
        min_seeds=4, max_seeds=4, batch_size=4,
    )


def test_campaign_journal_bytes_identical(tmp_path, snap_dir):
    """A batched campaign's journal and report are byte-equal to scalar.

    tonto issues FPU ops, which a pipelined complex unit takes one per
    cycle; gcc issues none.
    """
    from repro.campaign.executor import run_campaign

    for benchmark in ("gcc", "tonto"):
        outputs = {}
        for label, lanes, timeout in (
            ("scalar", 0, None), ("batch", 4, None), ("timed", 4, 600),
        ):
            directory = tmp_path / benchmark / label
            run_campaign(
                str(directory), spec=_tiny_campaign_spec(benchmark),
                cache=False, snapshot_dir=str(snap_dir), batch_lanes=lanes,
                timeout=timeout,
            )
            outputs[label] = {
                name: (directory / name).read_bytes()
                for name in ("journal.jsonl", "report.json")
            }
        assert outputs["batch"] == outputs["scalar"], benchmark
        assert outputs["timed"] == outputs["scalar"], benchmark


@pytest.mark.parametrize("snapshots", (True, False), ids=("fork", "cold"))
@pytest.mark.parametrize("draw_mode", ("fault", "program"))
def test_campaign_runs_every_simulation_as_a_lane(draw_mode, snapshots,
                                                  tmp_path, snap_dir,
                                                  monkeypatch, kernel):
    """Draws and baselines are lanes, forked or cold, in either draw mode.

    In program mode every draw and its baseline has a warmup of its own
    and no measurement seed, so each runs as a one-lane batch. The
    journal and report stay byte-equal to a scalar campaign.
    """
    from repro.campaign.executor import run_campaign
    from repro.campaign.plan import CampaignSpec
    from repro.snapshot import batch

    def spec():
        return CampaignSpec(
            name="lanes", benchmarks=["gcc", "tonto"], schemes=["ABS", "EP"],
            vdds=[0.97], n_instructions=800, warmup=400, min_seeds=4,
            max_seeds=4, batch_size=4, draw_mode=draw_mode,
        )

    run_batch, reports = batch.run_batch, []

    def spy(specs, snapshot_dir, report=None, force_evict=None):
        reports.append(batch.BatchReport())
        return run_batch(specs, snapshot_dir, reports[-1], force_evict)

    monkeypatch.setattr(batch, "run_batch", spy)
    outputs = {}
    for lanes in (0, 4):
        directory = tmp_path / str(lanes)
        run_campaign(str(directory), spec=spec(), cache=False,
                     snapshots=snapshots, snapshot_dir=str(snap_dir),
                     batch_lanes=lanes)
        outputs[lanes] = [(directory / name).read_bytes()
                          for name in ("journal.jsonl", "report.json")]
    assert outputs[4] == outputs[0]
    grid = spec()
    simulations = {
        run.key()
        for point in grid.points() for index in range(4)
        for run in grid.pair_specs(point, index)
    }
    assert sum(r.vector_lanes for r in reports) == len(simulations)
    assert sum(r.n_lanes for r in reports) == len(simulations)


def test_timed_campaign_runs_kernel_lanes_once_per_spec(tmp_path, snap_dir,
                                                        monkeypatch):
    """A ``timeout`` campaign plans lane groups and dedupes its baseline.

    Both are decided in the parent, before the pool: a batch task must be
    planned, and the draws' shared fault-free spec must be simulated (and
    stored) once for the scheduler batch, not once per draw.
    """
    from repro.campaign.executor import run_campaign
    from repro.harness import parallel

    plan_tasks, store = parallel._plan_tasks, parallel.ResultCache.store
    planned, stored = [], []

    def spy_plan(todo, batch_lanes):
        tasks, index_lists = plan_tasks(todo, batch_lanes)
        planned.extend(kind for kind, _payload in tasks)
        return tasks, index_lists

    def spy_store(self, spec, result):
        stored.append(spec.scheme)
        return store(self, spec, result)

    monkeypatch.setattr(parallel, "_plan_tasks", spy_plan)
    monkeypatch.setattr(parallel.ResultCache, "store", spy_store)
    run_campaign(
        str(tmp_path / "timed"), spec=_tiny_campaign_spec(),
        cache_dir=str(tmp_path / "cache"), snapshot_dir=str(snap_dir),
        batch_lanes=4, timeout=600,
    )
    assert "batch" in planned
    assert stored.count(SchemeKind.FAULT_FREE) == 1


try:
    from hypothesis import HealthCheck, example, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with [dev]
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        evictions=st.dictionaries(
            st.integers(min_value=0, max_value=3),
            # a 600-instruction window never commits in under ~100
            # virtual cycles, so every forced point lands mid-window
            st.integers(min_value=1, max_value=100),
            min_size=1, max_size=4,
        )
    )
    def test_forced_evictions_preserve_results(evictions, snap_dir,
                                               scalar_ref):
        """Evicting any lane at any cycle must not change any lane."""
        from repro.snapshot.batch import BatchReport, run_batch

        for path in ENGINE_PATHS:
            report = BatchReport()
            with _engine(path):
                results = run_batch(
                    _specs(SchemeKind.ABS, 0.97, 4, snap_dir),
                    str(snap_dir), report, force_evict=evictions,
                )
            assert report.scalar_lanes >= len(evictions)
            _check_report(report, path, 4)
            assert ([_digest(r) for r in results]
                    == scalar_ref(SchemeKind.ABS, 0.97, 4))

    GENERATED_SCHEMES = (
        SchemeKind.FAULT_FREE, SchemeKind.RAZOR, SchemeKind.EP,
        SchemeKind.ABS, SchemeKind.FFS,
    )

    @st.composite
    def _geometries(draw):
        """A core and TEP geometry inside the kernel's model."""
        from repro.core.tep import TEPConfig
        from repro.uarch.config import CoreConfig

        iq_size = draw(st.integers(min_value=8, max_value=64))
        config = CoreConfig(
            width=draw(st.integers(min_value=2, max_value=8)),
            iq_size=iq_size,
            rob_size=draw(st.integers(min_value=iq_size, max_value=160)),
            lsq_size=draw(st.integers(min_value=8, max_value=48)),
        )
        tep_config = TEPConfig(
            n_entries=draw(st.sampled_from((16, 64, 256, 1024, 4096))),
            tag_bits=draw(st.integers(min_value=2, max_value=16)),
            counter_bits=draw(st.integers(min_value=1, max_value=3)),
        )
        return config, tep_config

    @settings(
        derandomize=True, max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        benchmark=st.sampled_from(profile_names()),
        scheme=st.sampled_from(GENERATED_SCHEMES),
        vdd=st.sampled_from((0.97, 1.0, 1.04)),
        seed=st.integers(min_value=1, max_value=1000),
        # a lane without a measurement seed continues the warmup stream
        mseeds=st.one_of(
            st.just([None]),
            st.lists(
                st.integers(min_value=1, max_value=10 ** 6),
                min_size=1, max_size=6, unique=True,
            ),
        ),
        geometry=_geometries(),
        warmup=st.integers(min_value=0, max_value=1500),
        window=st.integers(min_value=200, max_value=2000),
        store=st.booleans(),
    )
    # sjeng keys fu_ops in a non-sorted first-issue order; povray issues
    # FPU ops, which must not hold the complex unit for their latency
    @example(benchmark="sjeng", scheme=SchemeKind.EP, vdd=1.04, seed=1,
             mseeds=[1, 2, 3, 4], geometry=(None, None), warmup=3000,
             window=6000, store=True)
    @example(benchmark="povray", scheme=SchemeKind.FAULT_FREE, vdd=0.97,
             seed=1, mseeds=[1, 2], geometry=(None, None), warmup=300,
             window=600, store=True)
    @example(benchmark="gcc", scheme=SchemeKind.ABS, vdd=0.97, seed=3,
             mseeds=[None], geometry=(None, None), warmup=0, window=600,
             store=False)
    def test_generated_kernel_lanes_match_cold_scalar_runs(
        benchmark, scheme, vdd, seed, mseeds, geometry, warmup, window,
        store, kernel, snap_dir,
    ):
        """Every kernel lane equals a cold scalar run of its spec.

        The donor is forked from ``snap_dir`` or, with ``store`` off,
        warmed cold. ``list(stats.fu_ops)`` is compared on its own
        because ``as_dict()`` sorts ``fu_ops``, while the energy sum
        follows the dict's order.
        """
        from repro.harness.runner import run_one
        from repro.snapshot.batch import BatchReport, run_batch

        config, tep_config = geometry

        def spec(mseed):
            return RunSpec(
                benchmark, scheme, vdd, window, warmup, seed,
                config=config, tep_config=tep_config,
                measurement_seed=mseed,
            )

        directory = str(snap_dir) if store else None
        lanes = [spec(m) for m in mseeds]
        for lane in lanes:
            lane.snapshot_dir = directory
        report = BatchReport()
        batched = run_batch(lanes, directory, report)
        assert report.fallback_reason is None
        for lane, (mseed, result) in enumerate(zip(mseeds, batched)):
            cold = run_one(spec(mseed))
            assert _digest(result) == _digest(cold), (lane, report)
            assert list(result.stats.fu_ops) == list(cold.stats.fu_ops)
