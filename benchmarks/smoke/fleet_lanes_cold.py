"""fleet-smoke: baselines and snapshot-less draws run as kernel lanes.

Reruns ``pool_out``'s spec into ``lanes_cold`` with lanes on; without a
cache each ``run_many`` call simulates its distinct specs once, and
every one must be a vector lane of some ``run_batch`` call, warmed up in
the kernel: no scalar warmup runs. The job then ``cmp``s
``lanes_cold`` against ``pool_out``. From the checkout root::

    REPRO_BATCH_LANES=2 python benchmarks/smoke/fleet_lanes_cold.py
"""

from repro.campaign import executor
from repro.harness import runner
from repro.harness.cli import main as cli_main
from repro.snapshot import batch, fork


def main():
    run_batch, run_many = batch.run_batch, executor.run_many
    warm_core = runner.warm_core
    vector, simulations, warmups = [], [], []

    def counted_warmup(spec, core=None):
        warmups.append(spec)
        return warm_core(spec, core)

    # fork binds warm_core at import: count the calls there too
    runner.warm_core = fork.warm_core = counted_warmup

    def counted_batch(specs, snapshot_dir, report=None, force_evict=None):
        report = report if report is not None else batch.BatchReport()
        results = run_batch(specs, snapshot_dir, report, force_evict)
        vector.append(report.vector_lanes)
        return results

    def counted_many(specs, **kwargs):
        simulations.append(len({spec.key() for spec in specs}))
        return run_many(specs, **kwargs)

    batch.run_batch = counted_batch
    executor.run_many = counted_many
    assert cli_main([
        "campaign", "run", "--dir", "lanes_cold",
        "--benchmarks", "astar", "--schemes", "EP", "ABS",
        "--vdds", "0.97", "--instructions", "800", "--warmup", "400",
        "--seeds-min", "2", "--seeds-max", "4", "--batch", "2",
        "--no-cache", "--no-snapshot",
    ]) == 0
    print(f"{sum(vector)} vector lanes, {sum(simulations)} simulations, "
          f"{len(warmups)} scalar warmups")
    assert sum(vector) == sum(simulations) > 0
    assert warmups == []


if __name__ == "__main__":
    main()
