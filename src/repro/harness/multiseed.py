"""Multi-seed measurement with confidence intervals.

Since the campaign engine landed (:mod:`repro.campaign`) this module is
a thin preset over it: ``run_seeds`` measures one (benchmark, scheme,
vdd) grid point over a fixed set of seeds — explicit, or drawn from the
campaign's derived seed stream — through
:func:`repro.campaign.executor.measure_point`, and re-shapes the
accumulator into the historical :class:`MultiSeedResult` API. The
interval math lives in :mod:`repro.campaign.stats`; nothing is
duplicated here. For open-ended sampling with confidence-driven
stopping (and crash-safe journaling), use a campaign directly.
"""

# NOTE: repro.campaign imports are deferred to call time — this module
# is pulled in by ``repro.harness.__init__``, which the campaign engine
# itself imports (plan -> harness.runner), so a module-level import here
# would be circular.


class SeedStatistic:
    """Mean/stddev/CI of one metric over seeds."""

    def __init__(self, values):
        from repro.campaign.stats import mean_std

        self.values = list(values)
        self.n = len(self.values)
        self.mean, self.std = mean_std(self.values)

    @property
    def ci95(self):
        """Half-width of the normal-approximation 95% interval."""
        from repro.campaign.stats import normal_halfwidth

        if self.n < 2:
            return 0.0
        return normal_halfwidth(self.std, self.n)

    def __repr__(self):
        return (
            f"SeedStatistic(mean={self.mean:.4f} "
            f"+/- {self.ci95:.4f}, n={self.n})"
        )


class MultiSeedResult:
    """Per-metric statistics of one simulation point across seeds."""

    def __init__(self, benchmark, scheme, vdd, perf_overhead, ed_overhead,
                 ipc, fault_rate):
        self.benchmark = benchmark
        self.scheme = scheme
        self.vdd = vdd
        self.perf_overhead = perf_overhead
        self.ed_overhead = ed_overhead
        self.ipc = ipc
        self.fault_rate = fault_rate

    def __repr__(self):
        return (
            f"MultiSeedResult({self.benchmark}/{self.scheme.name}: "
            f"perf {self.perf_overhead.mean:.2%} "
            f"+/- {self.perf_overhead.ci95:.2%})"
        )


def run_seeds(benchmark, scheme, vdd, seeds=(1, 2, 3), n_instructions=6000,
              warmup=3000, jobs=1, cache=False, cache_dir=None,
              **spec_kwargs):
    """Measure a point over several seeds with paired baselines.

    Each seed's overheads are computed against the fault-free baseline
    of the *same* seed (the same program and trace), so seed-to-seed
    program variation cancels out of the overhead metrics. ``seeds`` may
    be an explicit sequence, or an integer N to draw N seeds from the
    campaign engine's derived seed stream (reproducible from the master
    seed, ``spec_kwargs['master_seed']``, default 1). All runs go
    through the batch engine: ``jobs`` fans them out, ``cache`` reuses
    earlier points, and every eligible run is a kernel lane
    (:data:`~repro.harness.parallel.DRIVER_LANES`).
    """
    from repro.campaign.executor import make_run_fn, measure_point
    from repro.campaign.plan import CampaignSpec
    from repro.campaign.scheduler import PointScheduler
    from repro.harness.parallel import DRIVER_LANES

    seed_list = None if isinstance(seeds, int) else list(seeds)
    n_seeds = seeds if isinstance(seeds, int) else len(seed_list)
    spec = CampaignSpec(
        name=f"multiseed-{benchmark}",
        benchmarks=[benchmark],
        schemes=[scheme],
        vdds=[vdd],
        n_instructions=n_instructions,
        warmup=warmup,
        seeds=seed_list,
        min_seeds=n_seeds,
        max_seeds=n_seeds,
        batch_size=n_seeds,
        targets={},  # fixed-N: exactly n_seeds draws, no early stop
        **spec_kwargs,
    )
    point = spec.points()[0]
    run_fn = make_run_fn(jobs=jobs, cache=cache, cache_dir=cache_dir,
                         batch_lanes=DRIVER_LANES)
    scheduler = measure_point(PointScheduler(spec, point), run_fn)
    acc, failure = scheduler.acc, scheduler.failure
    if failure is not None:
        # no journal to park a failed point in here: stay loud
        raise RuntimeError(
            f"verified run failed during multiseed sweep: {failure!r}"
        )
    return MultiSeedResult(
        benchmark, point.scheme, vdd,
        SeedStatistic(acc.values["perf_overhead"]),
        SeedStatistic(acc.values["ed_overhead"]),
        SeedStatistic(acc.values["ipc"]),
        SeedStatistic(acc.values["fault_rate"]),
    )
