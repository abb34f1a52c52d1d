"""Single-run and paired-run simulation drivers.

``run_one`` assembles the full stack — synthetic program, memory hierarchy,
fault substrate, predictor, scheme, pipeline, energy model — for one
(benchmark, scheme, VDD) point and returns a :class:`SimResult`.

Runs are deterministic given the :class:`RunSpec`. A short warmup phase
(caches + TEP training) precedes measurement, mirroring the paper's use of
SimPoint phases from steady-state execution.
"""

from operator import attrgetter

from repro.core.predictors import make_predictor
from repro.core.schemes import SchemeKind, make_scheme, scheme_kind
from repro.core.tep import TEPConfig, TimingErrorPredictor
from repro.faults.injector import FaultInjector
from repro.faults.sensors import VoltageSensor
from repro.faults.storm import StormConfig
from repro.faults.timing import (
    StageTimingModel,
    VDD_NOMINAL,
    VoltageScaling,
)
from repro.faults.variation import ProcessVariationModel
from repro.mem.hierarchy import MemoryHierarchy
from repro.power.energy_model import EnergyModel
from repro.record import Record
from repro.telemetry.config import TelemetryConfig
from repro.uarch.config import CoreConfig
from repro.uarch.pipeline import OoOCore
from repro.uarch.stats import SimStats
from repro.workloads.generator import build_program, estimate_pc_freq
from repro.workloads.profiles import get_profile
from repro.workloads.trace import TraceGenerator


def _same(value):
    return value


def _nested(value):
    """Canonical form of an optional :class:`~repro.record.Record`."""
    return None if value is None else value.canonical()


def _sorted_items(value):
    return tuple(sorted(value.items())) if value else None


class RunSpec(Record):
    """Everything needed to reproduce one simulation run.

    Each constructor field is declared once, with its canonical encoder,
    in :attr:`WARMUP_FIELDS` or :attr:`MEASUREMENT_FIELDS`. The cache keys
    (:meth:`key`, :meth:`warmup_key`), :meth:`to_dict` and
    :meth:`from_dict` all derive from those two tables, so a repro
    bundle, a JSON export and a dashboard fork carry exactly the fields
    that key a cached result. ``scheme`` is held as its
    :class:`SchemeKind` whatever spelling it was given in, and dict forms
    of the nested configs are rebuilt into their classes.
    """

    #: ``(field, canonical encoder)`` of everything the simulation state
    #: depends on up to the warmup boundary: program identity and dynamic
    #: window (``n_instructions`` shapes the injector's PC-frequency
    #: estimate, so it belongs here), machine configuration, predictor
    #: design, and the warmup-phase RNG roots. Floats are carried as
    #: ``repr`` strings.
    WARMUP_FIELDS = (
        ("benchmark", _same),
        ("scheme", attrgetter("value")),
        ("vdd", repr),
        ("n_instructions", _same),
        ("warmup", _same),
        ("seed", _same),
        ("config", _nested),
        ("tep_config", _nested),
        ("predictor", _same),
        ("overclock", repr),
    )
    #: ``(field, canonical encoder)`` of everything that first takes
    #: effect at the warmup→measurement boundary: storm wrapping and
    #: fault-stream reseeding happen there, telemetry attaches there, and
    #: verification changes no machine state.
    MEASUREMENT_FIELDS = (
        ("measurement_seed", _same),
        ("storm", _nested),
        ("verify", bool),
        ("corruption", _sorted_items),
        ("telemetry", _nested),
    )
    FIELDS = tuple(name for name, _ in WARMUP_FIELDS + MEASUREMENT_FIELDS)

    def __init__(self, benchmark, scheme=SchemeKind.FAULT_FREE,
                 vdd=VDD_NOMINAL, n_instructions=20000, warmup=4000, seed=1,
                 config=None, tep_config=None, predictor="tep",
                 overclock=1.0, storm=None, verify=False, corruption=None,
                 telemetry=None, measurement_seed=None):
        self.benchmark = benchmark
        self.scheme = scheme_kind(scheme)
        self.vdd = vdd
        self.n_instructions = n_instructions
        self.warmup = warmup
        self.seed = seed
        self.config = CoreConfig.load(config)
        self.tep_config = TEPConfig.load(tep_config)
        #: which timing-violation predictor design drives the scheme:
        #: "tep" (the paper's), "mre" (Xin/Joseph) or "tvp" (Roy et al.)
        self.predictor = predictor
        #: cycle-time shrink factor (>1 = run faster than the nominal
        #: frequency; violations appear once the guardband is consumed)
        self.overclock = overclock
        #: optional :class:`~repro.faults.storm.StormConfig` — fault-storm
        #: stress mode (wild faults, sensor dropouts, TEP chaos)
        self.storm = StormConfig.load(storm)
        #: run under the lockstep golden-model checker (repro.verify)
        self.verify = verify
        #: optional dict form of a test-only
        #: :class:`~repro.verify.chaos.CorruptionHook` (implies verify)
        self.corruption = corruption
        #: optional :class:`~repro.telemetry.config.TelemetryConfig` —
        #: interval metrics, event tracing, and self-profiling recorded
        #: over the measured window
        self.telemetry = TelemetryConfig.load(telemetry)
        #: when set, the measurement window draws its fault-side RNG
        #: streams (injector, storm wrappers) from this seed instead of
        #: continuing the warmup streams. The warmup then depends only on
        #: :meth:`warmup_canonical`, so one warmed snapshot is shared by
        #: every draw differing only in measurement seed / storm /
        #: telemetry. ``None`` (default) keeps the legacy single-stream
        #: behavior bit-for-bit.
        self.measurement_seed = measurement_seed
        #: directory for repro bundles on failure — an execution detail,
        #: deliberately NOT part of :meth:`canonical` or :meth:`to_dict`
        self.repro_dir = None
        #: warmup snapshot cache directory (see :mod:`repro.snapshot`) —
        #: an execution detail like ``repro_dir``: forking from a cached
        #: snapshot is bit-identical to a cold run, so the cache location
        #: must never influence :meth:`canonical`
        self.snapshot_dir = None

    def _encode(self, fields):
        return tuple([encode(getattr(self, name)) for name, encode in fields])

    def warmup_canonical(self):
        """The prefix of :meth:`canonical` that determines the warmup.

        Two specs with equal warmup prefixes reach bit-identical
        post-warmup machine state — this is the snapshot-cache key
        (:meth:`warmup_key`).
        """
        return self._encode(self.WARMUP_FIELDS)

    def measurement_canonical(self):
        """The suffix of :meth:`canonical`: measurement-window-only fields.

        Specs differing only in this suffix share one warmup snapshot.
        """
        return self._encode(self.MEASUREMENT_FIELDS)

    def canonical(self):
        """A nested tuple of primitives that fully determines this run.

        Two specs with equal canonical forms produce bit-identical
        simulations; the form feeds :meth:`key` and is stable across
        processes (no ``id()``, no hash randomization, no float repr
        ambiguity). It is the exact concatenation of
        :meth:`warmup_canonical` and :meth:`measurement_canonical`; a
        partition test pins that every spec field lands in exactly one
        half.
        """
        return self.warmup_canonical() + self.measurement_canonical()

    def key(self):
        """Deterministic content hash of the spec (hex digest).

        Used by :mod:`repro.harness.parallel` to address the on-disk
        result cache; identical across processes and interpreter runs.
        """
        import hashlib

        return hashlib.sha256(repr(self.canonical()).encode()).hexdigest()

    def warmup_key(self):
        """Content hash of the warmup prefix: the snapshot-cache address.

        Every spec sharing this key reaches bit-identical post-warmup
        state, so one warmed snapshot serves all of them (see
        :mod:`repro.snapshot`).
        """
        import hashlib

        return hashlib.sha256(
            repr(self.warmup_canonical()).encode()
        ).hexdigest()

    def __repr__(self):
        return (
            f"RunSpec({self.benchmark}, {self.scheme.name}, vdd={self.vdd}, "
            f"n={self.n_instructions})"
        )


class SimResult:
    """Outcome of one run: statistics, energy, and derived metrics.

    ``telemetry`` carries the run's :class:`~repro.telemetry.
    TelemetryResult` when its spec asked for any (metrics series, event
    recording, self-profile); it is plain picklable data and rides the
    result through multiprocessing fan-out and the on-disk cache.
    """

    def __init__(self, spec, stats, energy, cache_stats, telemetry=None):
        self.spec = spec
        self.stats = stats
        self.energy = energy
        self.cache_stats = cache_stats
        self.telemetry = telemetry

    @property
    def ipc(self):
        """Committed instructions per cycle."""
        return self.stats.ipc

    @property
    def cycles(self):
        """Measured cycles."""
        return self.stats.cycles

    @property
    def edp(self):
        """Energy-delay product."""
        return self.energy.edp

    @property
    def fault_rate(self):
        """Faulting instructions per committed instruction."""
        return self.stats.fault_rate

    def perf_overhead(self, baseline):
        """Relative cycle overhead vs a fault-free baseline result."""
        return self.cycles / baseline.cycles - 1.0

    def ed_overhead(self, baseline):
        """Relative energy-delay overhead vs a fault-free baseline result."""
        return self.edp / baseline.edp - 1.0

    def __repr__(self):
        return (
            f"SimResult({self.spec.benchmark}, {self.spec.scheme.name}, "
            f"ipc={self.ipc:.3f}, fr={self.fault_rate:.4f})"
        )


#: Memoized pure build products. Programs are deterministic in
#: (profile, seed) and carry no per-run state (fault assignments live on
#: the injector, not the statics), so rebuilding one for every point of a
#: sweep is pure waste. Bounded by wholesale clearing: sweeps revisit a
#: handful of keys, so eviction order is irrelevant.
_BUILD_CACHE_LIMIT = 128
_PROGRAM_CACHE = {}
_PC_FREQ_CACHE = {}


def _cached_program(profile, seed):
    key = (profile.name, seed)
    program = _PROGRAM_CACHE.get(key)
    if program is None:
        if len(_PROGRAM_CACHE) >= _BUILD_CACHE_LIMIT:
            _PROGRAM_CACHE.clear()
        program = build_program(profile, seed=seed)
        _PROGRAM_CACHE[key] = program
    return program


def _build_injector(profile, program, spec, timing_model):
    injector = FaultInjector(timing_model, seed=spec.seed + 301)
    # estimate frequencies over the same CFG walk (same seed) and exactly
    # the measured window, so the dynamic fault-rate targets refer to PCs
    # that are actually exercised during measurement
    key = (
        profile.name, spec.seed,
        max(spec.n_instructions, 3000), spec.warmup,
    )
    pc_freq = _PC_FREQ_CACHE.get(key)
    if pc_freq is None:
        if len(_PC_FREQ_CACHE) >= _BUILD_CACHE_LIMIT:
            _PC_FREQ_CACHE.clear()
        pc_freq = estimate_pc_freq(
            program,
            seed=spec.seed + 101,
            n_instructions=max(spec.n_instructions, 3000),
            skip=spec.warmup,
        )
        _PC_FREQ_CACHE[key] = pc_freq
    injector.assign(
        program.static_insts, pc_freq, profile.fr_low, profile.fr_high
    )
    return injector


def build_core(spec):
    """Assemble (but do not run) the full simulation stack for ``spec``."""
    profile = get_profile(spec.benchmark)
    program = _cached_program(profile, spec.seed)
    config = spec.config or CoreConfig.core1()
    if program.highest_register >= config.n_arch_regs:
        raise ValueError(
            f"{spec.benchmark}'s program uses register "
            f"r{program.highest_register}, but the core has "
            f"n_arch_regs={config.n_arch_regs}"
        )
    trace = TraceGenerator(program, seed=spec.seed + 101)
    hierarchy = MemoryHierarchy()
    scheme = make_scheme(spec.scheme)
    injector = None
    stressed = spec.vdd < VDD_NOMINAL or spec.overclock > 1.0
    if scheme.kind is not SchemeKind.FAULT_FREE and stressed:
        scaling = VoltageScaling()
        variation = ProcessVariationModel(seed=spec.seed + 201)
        timing_model = StageTimingModel(scaling, variation)
        injector = _build_injector(profile, program, spec, timing_model)
        injector.frequency_factor = spec.overclock
    tep = None
    if scheme.uses_tep:
        if spec.predictor == "tep":
            tep = TimingErrorPredictor(spec.tep_config)
        else:
            tep = make_predictor(spec.predictor)
    sensor = VoltageSensor(spec.vdd, overclocked=spec.overclock > 1.0)
    # storm wrapping happens at the warmup→measurement boundary
    # (begin_measurement), not here: the storm is a measured-window
    # stressor, so a storm draw can fork from a storm-free warmup
    # snapshot and the warmup stays a pure function of warmup_canonical()
    core = OoOCore(
        config, trace, hierarchy, scheme,
        injector=injector, tep=tep, sensor=sensor, vdd=spec.vdd,
    )
    core.program = program  # kept for cache priming and diagnostics
    return core


#: Regions larger than this are treated as streaming and never primed.
_PRIME_LIMIT = 2 * 1024 * 1024


def prime_caches(program, hierarchy, line_bytes=64):
    """Pre-touch bounded memory regions so short runs start at steady state.

    The paper measures 1M-instruction SimPoint phases from the middle of
    execution, where resident working sets are already cached; a 20k-
    instruction run would otherwise spend itself on cold misses. Streaming
    regions (beyond the limit) are intentionally left cold — they miss in
    steady state too.
    """
    # the address walk depends only on the program; memoize it on the
    # program object (same line-fill sequence as access_data, minus the
    # latency bookkeeping — all counters are reset below anyway)
    addrs = getattr(program, "_prime_addrs", None)
    if addrs is None or getattr(program, "_prime_line_bytes", 0) != line_bytes:
        addrs = []
        for static in program.static_insts:
            if not static.is_mem or not static.mem_region:
                continue
            if static.mem_region > _PRIME_LIMIT:
                continue
            base = static.mem_base
            for offset in range(0, static.mem_region, line_bytes):
                addrs.append(base + offset)
        program._prime_addrs = addrs
        program._prime_line_bytes = line_bytes
    l1d_access = hierarchy.l1d.access
    l2_access = hierarchy.l2.access
    for addr in addrs:
        if not l1d_access(addr):
            l2_access(addr)
    hierarchy.reset_stats()


def cold_core(spec):
    """``spec``'s core where every warmup starts: caches primed, cycle 0.

    Kernel lanes plan from it and run the warmup in the kernel
    (:func:`repro.snapshot.batch.run_batch`).
    """
    core = build_core(spec)
    prime_caches(core.program, core.hierarchy)
    return core


def warm_core(spec, core=None):
    """Build and warm a core through ``spec``'s warmup prefix (cold path).

    The returned core sits exactly at the warmup boundary: caches primed,
    ``spec.warmup`` instructions retired, no measurement-window effects
    (storm, telemetry, fault-stream reseed) applied yet. Its state is a
    pure function of ``spec.warmup_canonical()`` — this is what the
    snapshot cache captures. A given ``core`` is ``spec``'s fresh
    :func:`build_core` with an observer attached (the verified driver,
    ``repro-timing run``).
    """
    if core is None:
        core = build_core(spec)
    prime_caches(core.program, core.hierarchy)
    if spec.warmup:
        core.run(spec.warmup)
    return core


def begin_measurement(core, spec):
    """Transition a warmed core to the measured window; return collector.

    Called only by :func:`measure`, so the boundary semantics cannot
    drift between the paths that warm a core:

    * measurement counters reset (stats, cache stats, LSQ counters);
    * with ``spec.measurement_seed`` set, the injector's per-instance
      stream restarts from it (warmup consumed the ``spec.seed`` stream);
    * storm wrapping is applied *here* — the storm stresses the measured
      window only, and its generators derive from the measurement seed
      when one is set — and the core re-latches its per-fetch gates;
    * telemetry attaches last, covering exactly the measured window.
    """
    core.stats = SimStats()
    core.hierarchy.reset_stats()
    core.lsq.cam_searches = 0
    core.lsq.forwards = 0
    mseed = getattr(spec, "measurement_seed", None)
    if mseed is not None and core.injector is not None:
        core.injector.reseed(mseed + 301)
    storm = getattr(spec, "storm", None)
    if storm is not None:
        from repro.faults.storm import ChaoticTEP, FlakySensor, StormInjector

        sseed = mseed if mseed is not None else spec.seed
        core.injector = StormInjector(core.injector, storm,
                                      seed=sseed + 401)
        if storm.sensor_flap > 0.0:
            core.sensor = FlakySensor(core.sensor, storm.sensor_flap,
                                      seed=sseed + 402)
        if core.tep is not None and (storm.tep_drop > 0.0
                                     or storm.tep_fabricate > 0.0):
            core.tep = ChaoticTEP(core.tep, storm.tep_drop,
                                  storm.tep_fabricate, seed=sseed + 403)
        core.rebind_mechanisms()
    collector = None
    if getattr(spec, "telemetry", None) is not None:
        from repro.telemetry import attach_telemetry

        collector = attach_telemetry(core, spec.telemetry)
    return collector


def measured_result(spec, stats, cache_stats, telemetry=None):
    """Package one measured window's counters as a :class:`SimResult`.

    The only code that evaluates energy and builds a result: scalar runs
    reach it through :func:`measure`, and batch-kernel lanes hand it the
    :class:`~repro.uarch.stats.SimStats` the engine filled, so every tier
    turns equal counters into equal results.
    """
    energy = EnergyModel().evaluate(
        stats, cache_stats, spec.vdd, make_scheme(spec.scheme).uses_tep
    )
    return SimResult(spec, stats, energy, cache_stats, telemetry=telemetry)


def measure(core, spec):
    """Measure a warmed core and package the :class:`SimResult`.

    Every scalar measured window runs here, whoever warmed the core: the
    cold and snapshot-fork paths of :func:`run_one`, the verified driver
    and ``repro-timing run``. It crosses the warmup boundary
    (:func:`begin_measurement`), runs ``spec.n_instructions`` and hands
    the counters to :func:`measured_result`.
    """
    collector = begin_measurement(core, spec)
    stats = core.run(spec.n_instructions)
    stats.storm_faults = getattr(core.injector, "storm_faults", 0)
    telemetry = collector.finalize(core) if collector is not None else None
    return measured_result(spec, stats, core.hierarchy.stats(), telemetry)


def run_one(spec):
    """Run one simulation point and return its :class:`SimResult`.

    Specs with ``verify`` (or a ``corruption`` hook) run under the
    lockstep golden-model checker and raise
    :class:`~repro.verify.lockstep.DivergenceError` on any architectural
    divergence — see :func:`repro.verify.driver.run_verified`.

    Otherwise :func:`~repro.snapshot.fork.warmed_core` forks the warmup
    from ``spec.snapshot_dir`` or warms it cold — bit-identical either
    way, and pinned so by the fork-vs-cold digest tests.
    """
    if getattr(spec, "verify", False) or getattr(spec, "corruption", None):
        from repro.verify.driver import run_verified

        return run_verified(spec)
    from repro.snapshot import warmed_core

    return measure(warmed_core(spec, spec.snapshot_dir), spec)


def run_pair(benchmark, scheme, vdd, n_instructions=20000, warmup=4000,
             seed=1, config=None):
    """Run a scheme and its fault-free baseline; return (result, baseline).

    The baseline executes the identical trace with faults disabled at the
    same supply, which is how the paper's overhead tuples are normalized.
    """
    base_spec = RunSpec(
        benchmark, SchemeKind.FAULT_FREE, vdd, n_instructions, warmup,
        seed, config,
    )
    spec = RunSpec(benchmark, scheme, vdd, n_instructions, warmup, seed, config)
    return run_one(spec), run_one(base_spec)
