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
draws every warmup field of a spec, every ``CoreConfig`` and
``TEPConfig`` field, seeds (or one seedless lane) and lane count, and
compares every lane with a cold scalar run of its spec; a spec with a
field outside the kernel's model must be turned away by
``batch_eligible`` and still equal its scalar run through ``run_many``.
"""

import contextlib
from unittest import mock

import pytest

from repro.core.schemes import SchemeKind
from repro.core.tep import TEPConfig
from repro.faults.storm import StormConfig
from repro.harness.parallel import run_many
from repro.harness.runner import RunSpec
from repro.uarch.batchkernel import MAX_IQ, MAX_WIDTH
from repro.uarch.config import CoreConfig
from repro.workloads.profiles import profile_names

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
    """Without a kernel, the batch goes scalar before any batch setup:
    no cold core is built for a plan, and no plan is drawn."""
    from repro.snapshot import batch
    from repro.uarch import batchcore

    def forbidden(*args, **kwargs):
        raise AssertionError("batch setup ran with no kernel")

    report = batch.BatchReport()
    with _engine("nokernel"), \
            mock.patch.object(batch, "cold_core", forbidden), \
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


#: bzip2 at CT = 2 lands criticality marks in the window, and CDS then
#: issues in another order than ABS
CDS_POINT = dict(benchmark="bzip2", vdd=0.97, n_instructions=800,
                 warmup=1200, seed=3,
                 config=CoreConfig(criticality_threshold=2))


def test_cds_lanes_land_critical_marks(kernel):
    """CDS runs as kernel lanes that count dependents and mark the TEP.

    Every lane equals ``run_one``, lands marks, and at least one lane
    takes another number of cycles than ABS with the same seed: a kernel
    that drops the dependent count or the CDS select key fails here.
    """
    from repro.harness.runner import run_one
    from repro.snapshot.batch import BatchReport, run_batch

    def specs(scheme):
        return [RunSpec(scheme=scheme, measurement_seed=m, **CDS_POINT)
                for m in (1, 2, 3)]

    cds = specs(SchemeKind.CDS)
    report = BatchReport()
    lanes = run_batch(cds, None, report)
    assert report.vector_lanes == 3 and report.fallback_reason is None
    for lane, spec in zip(lanes, cds):
        assert _digest(lane) == _digest(run_one(spec))
        assert lane.stats.critical_marks_landed > 0
    abs_cycles = [run_one(spec).stats.cycles for spec in specs(SchemeKind.ABS)]
    assert [lane.stats.cycles for lane in lanes] != abs_cycles


def test_evicted_warmup_runs_every_lane_scalar(kernel, snap_dir, scalar_ref,
                                               monkeypatch):
    """A warmup the kernel cannot finish sends the whole batch scalar.

    The plan here ends halfway through the warmup, so the warmup lane
    runs past the prepared stream and is evicted before any lane starts
    its window. Every lane then measures on the scalar core under
    ``WARMUP_EVICTED`` and equals its scalar run.
    """
    from repro.snapshot.batch import BatchReport, run_batch
    from repro.uarch import batchcore

    build_plan = batchcore.build_plan
    monkeypatch.setattr(
        batchcore, "build_plan",
        lambda core, n_commits: build_plan(core, POINT["warmup"] // 2, 0),
    )
    report = BatchReport()
    results = run_batch(_specs(SchemeKind.EP, 0.97, 4, snap_dir),
                        str(snap_dir), report)
    assert report.fallback_reason == (
        f"{batchcore.WARMUP_EVICTED}: ran past the prepared stream")
    assert (report.vector_lanes, report.scalar_lanes) == (0, 4)
    assert report.evictions == {}
    assert ([_digest(r) for r in results]
            == scalar_ref(SchemeKind.EP, 0.97, 4))


def test_replay_without_bubbles_in_the_warmup_runs_as_lanes(kernel):
    """A warmup whose replays cost no recovery bubble runs on the kernel.

    With ``recovery_bubbles=0`` a Razor replay of the warmup costs no
    stall; the lanes start from a cold core and every lane, seeded or
    not, runs as a kernel lane equal to its scalar run.
    """
    from repro.harness.runner import run_one
    from repro.snapshot.batch import BatchReport, run_batch

    config = CoreConfig(recovery_bubbles=0)
    for benchmark, seed, mseeds in (("astar", 1, [None]), ("gcc", 2, [1, 2])):
        group = [RunSpec(benchmark, SchemeKind.RAZOR, 0.97, 600, 300, seed,
                         config=config, measurement_seed=m) for m in mseeds]
        report = BatchReport()
        lanes = run_batch(group, None, report)
        assert report.vector_lanes == len(group), report
        for spec, lane in zip(group, lanes):
            assert _digest(lane) == _digest(run_one(spec))


def test_kernel_campaign_never_warms_scalar(tmp_path, monkeypatch, kernel):
    """Kernel lanes warm up in the kernel, with a snapshot store or not.

    A campaign whose draws and baselines all run as lanes calls neither
    ``warm_core`` nor ``capture_core`` and writes no snapshot into its
    store. Its journal and report equal a scalar campaign's with the
    same store setting, whose draws do fork from snapshots.
    """
    from repro.campaign.executor import run_campaign
    from repro.campaign.plan import CampaignSpec
    from repro.harness import runner
    from repro.snapshot import fork

    spec = dict(
        name="kernel-warmup", benchmarks=["gcc", "tonto"],
        schemes=["ABS", "EP"], vdds=[0.97], n_instructions=800,
        warmup=400, min_seeds=4, max_seeds=4, batch_size=4,
    )
    outputs, calls, snaps = {}, {}, {}
    for lanes in (0, 4):
        calls[lanes] = []

        def counted(name, fn, log=calls[lanes]):
            def wrapper(*args, **kwargs):
                log.append(name)
                return fn(*args, **kwargs)
            return wrapper

        store = tmp_path / f"store-{lanes}"
        with monkeypatch.context() as patch:
            for module, name in ((runner, "warm_core"), (fork, "warm_core"),
                                 (fork, "capture_core")):
                patch.setattr(module, name,
                              counted(name, getattr(module, name)))
            directory = tmp_path / str(lanes)
            run_campaign(str(directory), spec=CampaignSpec(**spec),
                         cache=False, snapshots=True,
                         snapshot_dir=str(store), batch_lanes=lanes)
        outputs[lanes] = [(directory / name).read_bytes()
                          for name in ("journal.jsonl", "report.json")]
        snaps[lanes] = sorted(store.rglob("*.snap"))
    assert calls[4] == [] and snaps[4] == []
    assert calls[0] and snaps[0]
    assert outputs[4] == outputs[0]


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
            name="lanes", benchmarks=["gcc", "tonto"],
            schemes=["ABS", "EP", "CDS"],
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
        tasks, index_lists, scalar = plan_tasks(todo, batch_lanes)
        planned.extend(kind for kind, _payload in tasks)
        return tasks, index_lists, scalar

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

    #: per record, one strategy per field, drawing values inside the
    #: kernel's model; a record class stands for "the default (None) or
    #: every field of that record drawn". ``RunSpec``'s measurement fields
    #: are not lane fields: ``measurement_seed`` is drawn per lane, and a
    #: storm, telemetry, ``verify`` or ``corruption`` makes a spec
    #: batch-ineligible.
    LANE_FIELDS = {
        RunSpec: {
            "benchmark": st.sampled_from(profile_names()),
            "scheme": st.sampled_from((
                SchemeKind.FAULT_FREE, SchemeKind.RAZOR, SchemeKind.EP,
                SchemeKind.ABS, SchemeKind.FFS, SchemeKind.CDS,
            )),
            "vdd": st.sampled_from((0.97, 1.0, 1.04)),
            "n_instructions": st.integers(min_value=200, max_value=2000),
            "warmup": st.integers(min_value=0, max_value=1500),
            "seed": st.integers(min_value=1, max_value=1000),
            "config": CoreConfig,
            "tep_config": TEPConfig,
            "predictor": st.just("tep"),
            "overclock": st.sampled_from((1.0, 1.04, 1.08, 1.15)),
        },
        CoreConfig: {
            "width": st.integers(min_value=1, max_value=MAX_WIDTH),
            "iq_size": st.integers(min_value=8, max_value=MAX_IQ),
            "rob_size": st.integers(min_value=16, max_value=160),
            "lsq_size": st.integers(min_value=8, max_value=48),
            # build_core refuses fewer registers than the program uses
            "n_arch_regs": st.integers(min_value=32, max_value=40),
            "n_phys_regs": st.integers(min_value=41, max_value=128),
            "n_simple_alu": st.just(2),
            "n_complex_alu": st.just(1),
            "n_mem_ports": st.just(1),
            "frontend_depth": st.integers(min_value=1, max_value=10),
            "redirect_penalty": st.integers(min_value=0, max_value=6),
            "replay_recovery": st.integers(min_value=0, max_value=8),
            "recovery_bubbles": st.integers(min_value=0, max_value=4),
            "replay_mode": st.just("selective"),
            "bp_history_bits": st.integers(min_value=1, max_value=12),
            "bp_table_bits": st.integers(min_value=4, max_value=14),
            # a CDS core refuses 0, and no other scheme reads the field
            "criticality_threshold": st.integers(min_value=1, max_value=16),
            "mem_dependence": st.just("conservative"),
            "model_wrong_path": st.booleans(),
        },
        TEPConfig: {
            "n_entries": st.sampled_from((16, 64, 256, 1024, 4096)),
            "tag_bits": st.integers(min_value=2, max_value=16),
            "counter_bits": st.integers(min_value=1, max_value=3),
            "history_bits": st.just(0),
        },
    }

    #: (record, field) -> values outside the kernel's model, which make a
    #: spec batch-ineligible
    OUTSIDE = {
        (RunSpec, "predictor"): st.sampled_from(("mre", "tvp")),
        (CoreConfig, "width"): st.integers(min_value=MAX_WIDTH + 1,
                                           max_value=12),
        (CoreConfig, "iq_size"): st.integers(min_value=MAX_IQ + 1,
                                             max_value=96),
        (CoreConfig, "n_simple_alu"): st.sampled_from((1, 3)),
        (CoreConfig, "n_complex_alu"): st.just(2),
        (CoreConfig, "n_mem_ports"): st.just(2),
        (CoreConfig, "replay_mode"): st.just("flush"),
        (CoreConfig, "mem_dependence"): st.just("store_sets"),
        (TEPConfig, "history_bits"): st.integers(min_value=1, max_value=4),
    }
    #: the OUTSIDE fields only a scheme with a timing predictor reads, and
    #: the schemes drawn with them
    PREDICTOR_FIELDS = {(RunSpec, "predictor"), (TEPConfig, "history_bits")}
    PREDICTOR_SCHEMES = st.sampled_from(
        (SchemeKind.EP, SchemeKind.ABS, SchemeKind.FFS, SchemeKind.CDS)
    )

    def _lane_fields(record):
        """The fields of ``record`` that a kernel lane's spec varies."""
        if record is RunSpec:
            return [name for name, _ in RunSpec.WARMUP_FIELDS]
        return list(record.FIELDS)

    def test_lane_strategies_cover_every_field():
        for record, strategies in LANE_FIELDS.items():
            assert sorted(strategies) == sorted(_lane_fields(record)), record
        for record, name in OUTSIDE:
            assert name in LANE_FIELDS[record], (record, name)

    @st.composite
    def _lane_runs(draw):
        """``(RunSpec keyword arguments, the OUTSIDE field or None)``:
        every warmup field drawn from its strategy, and at most one field
        outside the kernel's model."""
        outside = draw(st.none() | st.sampled_from(list(OUTSIDE)))

        def fields(record):
            values = {}
            for name, strategy in LANE_FIELDS[record].items():
                if (record, name) == outside:
                    values[name] = draw(OUTSIDE[outside])
                elif (name == "scheme" and record is RunSpec
                      and outside in PREDICTOR_FIELDS):
                    values[name] = draw(PREDICTOR_SCHEMES)
                elif isinstance(strategy, type):
                    nested = outside is not None and outside[0] is strategy
                    values[name] = (
                        strategy(**fields(strategy))
                        if nested or draw(st.booleans()) else None
                    )
                else:
                    values[name] = draw(strategy)
            return values

        return fields(RunSpec), outside

    def _run(config=None, outside=None, **fields):
        """An example's ``(RunSpec arguments, OUTSIDE field)``: gcc/ABS/
        0.97 V, 1200 + 800 instructions, default records, unless
        ``fields`` say otherwise; ``config`` overrides fields of the
        default core, and ``outside`` names the field drawn outside the
        kernel's model."""
        run = dict(
            benchmark="gcc", scheme=SchemeKind.ABS, vdd=0.97,
            n_instructions=800, warmup=1200, seed=3, config=None,
            tep_config=None, predictor="tep", overclock=1.0,
        )
        if config is not None:
            run["config"] = CoreConfig(**config)
        run.update(fields)
        return run, outside

    @settings(
        derandomize=True, max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        run=_lane_runs(),
        # a lane without a measurement seed continues the warmup stream
        mseeds=st.one_of(
            st.just([None]),
            st.lists(
                st.integers(min_value=1, max_value=10 ** 6),
                min_size=1, max_size=6, unique=True,
            ),
        ),
        store=st.booleans(),
    )
    # sjeng keys fu_ops in a non-sorted first-issue order; povray issues
    # FPU ops, which must not hold the complex unit for their latency
    @example(run=_run(benchmark="sjeng", scheme=SchemeKind.EP, vdd=1.04,
                      seed=1, warmup=3000, n_instructions=6000),
             mseeds=[1, 2, 3, 4], store=True)
    @example(run=_run(benchmark="povray", scheme=SchemeKind.FAULT_FREE,
                      seed=1, warmup=300, n_instructions=600),
             mseeds=[1, 2], store=True)
    @example(run=_run(warmup=0, n_instructions=600), mseeds=[None],
             store=False)
    # warmups that end with the pipeline busy: pending EP stalls and a
    # full conveyor (seed 1), a blocking branch and conveyor residents
    # (seed 5)
    @example(run=_run(benchmark="sjeng", scheme=SchemeKind.EP, seed=1,
                      warmup=700, n_instructions=900),
             mseeds=[1, 2, 3], store=False)
    @example(run=_run(benchmark="sjeng", scheme=SchemeKind.EP, seed=5,
                      warmup=700, n_instructions=900),
             mseeds=[None], store=True)
    # the values of the field probe: each equalled scalar on the kernel
    @example(run=_run(benchmark="astar", scheme=SchemeKind.FFS, vdd=1.04,
                      overclock=1.08), mseeds=[1, 2, 3], store=False)
    @example(run=_run(benchmark="mcf", scheme=SchemeKind.EP,
                      overclock=1.15), mseeds=[1, 2, 3], store=False)
    @example(run=_run(config=dict(frontend_depth=9)), mseeds=[1, 2, 3],
             store=False)
    @example(run=_run(benchmark="bzip2", scheme=SchemeKind.RAZOR,
                      config=dict(redirect_penalty=5)),
             mseeds=[1, 2, 3], store=False)
    @example(run=_run(benchmark="sjeng", scheme=SchemeKind.RAZOR,
                      config=dict(replay_recovery=6)),
             mseeds=[1, 2, 3], store=False)
    @example(run=_run(benchmark="tonto", config=dict(recovery_bubbles=1)),
             mseeds=[1, 2, 3], store=False)
    @example(run=_run(scheme=SchemeKind.FFS,
                      config=dict(bp_history_bits=6, bp_table_bits=8)),
             mseeds=[1, 2, 3], store=False)
    @example(run=_run(benchmark="mcf", config=dict(n_phys_regs=48)),
             mseeds=[1, 2, 3], store=False)
    @example(run=_run(benchmark="astar", scheme=SchemeKind.EP,
                      config=dict(model_wrong_path=False)),
             mseeds=[1, 2, 3], store=False)
    # a one-instruction window that starts at cycle 25,094, past the
    # 20,400 cycles of its budget if that counted from cycle 0
    @example(run=_run(benchmark="mcf", seed=1, warmup=8000,
                      n_instructions=1), mseeds=[1, 2], store=False)
    # outside the model: batch-ineligible, so run_many runs them scalar
    @example(run=_run(predictor="mre", outside=(RunSpec, "predictor")),
             mseeds=[1, 2], store=False)
    # CDS lanes that land criticality marks: at mseed 1 bzip2 lands 28
    # and takes 620 cycles, against ABS's 631
    @example(run=_run(benchmark="bzip2", scheme=SchemeKind.CDS,
                      config=dict(criticality_threshold=2)),
             mseeds=[1, 2, 3], store=False)
    @example(run=_run(benchmark="mcf", scheme=SchemeKind.CDS, vdd=1.04,
                      config=dict(criticality_threshold=4)),
             mseeds=[None], store=True)
    def test_generated_kernel_lanes_match_cold_scalar_runs(
        run, mseeds, store, kernel, snap_dir,
    ):
        """Every lane equals a cold scalar run of its spec.

        A spec is batch-eligible exactly when no field was drawn outside
        the kernel's model. An eligible spec runs every lane on the
        kernel; an ineligible one runs through ``run_many`` with lanes
        on, which runs it scalar. ``store`` hands the runs a snapshot
        store. ``list(stats.fu_ops)`` is compared on its own because
        ``as_dict()`` sorts ``fu_ops``, while the energy sum follows the
        dict's order.
        """
        from repro.harness.runner import run_one
        from repro.snapshot.batch import BatchReport, batch_eligible, run_batch

        fields, outside = run

        def spec(mseed):
            return RunSpec(**fields, measurement_seed=mseed)

        directory = str(snap_dir) if store else None
        lanes = [spec(m) for m in mseeds]
        for lane in lanes:
            lane.snapshot_dir = directory
        assert batch_eligible(lanes[0]) == (outside is None), outside
        if outside is None:
            report = BatchReport()
            batched = run_batch(lanes, directory, report)
            assert report.fallback_reason is None, report
        else:
            batched = run_many(lanes, batch_lanes=16)
        for lane, (mseed, result) in enumerate(zip(mseeds, batched)):
            cold = run_one(spec(mseed))
            assert _digest(result) == _digest(cold), (lane, outside)
            assert list(result.stats.fu_ops) == list(cold.stats.fu_ops)
