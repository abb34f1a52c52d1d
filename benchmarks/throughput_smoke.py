"""Standalone throughput smoke: write BENCH_throughput.json.

Runs the same workload as ``test_throughput.py::test_pipeline_throughput``
(bzip2 under ABS at 1.04V, 3000 committed instructions) without needing
pytest-benchmark, and records the best observed rate. It then measures
campaign draw throughput on the standard statistical-campaign point
(gcc/ABS at 0.97V, 6000 measured instructions after a 3000-instruction
warmup, each draw a scheme-run/fault-free-baseline pair) two ways:
per-seed cold pairs, and fault-draw mode forking every draw from one
warmup snapshot with the collapsed baseline amortized over the batch.
Finally it measures the lockstep batch engine (N draws per dispatch,
``repro.snapshot.batch.run_batch``, which runs the draws' shared warmup
once in the kernel) over a small lane-count sweep and records the N=16
rate plus its speedup over the marginal scalar rate. Every scalar run goes through the one cycle loop,
``OoOCore.run``. Last, it times the paper drivers' path: one grid of
headline points through ``run_many`` with the drivers' kernel lanes and
with none, interleaved in this process, and records the CPU ratio.
CI runs this after the test suite so every build leaves a
machine-readable throughput record.

Usage::

    PYTHONPATH=src python benchmarks/throughput_smoke.py [output.json]
"""

import json
import platform
import statistics
import sys
import tempfile
import time

from repro.core.schemes import SchemeKind
from repro.harness.runner import RunSpec, build_core, prime_caches, run_one
from repro.snapshot import ensure_snapshot

#: measured before the cycle-loop optimization campaign (same box class);
#: kept as the fixed reference so speedups are comparable across builds
BASELINE_INST_PER_S = 26994

N_INSTRUCTIONS = 3000
ROUNDS = 7

#: the standard campaign point; a campaign draw is a (scheme run,
#: fault-free baseline) pair feeding extract_metrics
CAMPAIGN_POINT = dict(
    benchmark="gcc", scheme=SchemeKind.ABS, vdd=0.97,
    n_instructions=6000, warmup=3000,
)
#: the box's throughput drifts minute to minute, so cold and warm draws
#: are interleaved round-robin and rates taken over the accumulated time;
#: the warm batch (rounds x per-round = 48 draws) matches a realistic
#: per-point draw count so the one-time warmup amortizes as it would in
#: a real campaign rather than over a token handful of draws
CAMPAIGN_ROUNDS = 3
COLD_PER_ROUND = 2
WARM_PER_ROUND = 16

#: lane counts for the batch-engine sweep; the headline figure is taken
#: at the largest (N=16), and N=1 is the one-lane call that every lone
#: eligible run makes
BATCH_LANE_SWEEP = (1, 4, 8, 16)
BATCH_ROUNDS = 3

#: the drivers' lane A/B grid: four benchmarks under every scheme a
#: headline sweep runs (CDS windows too run as lanes on the lanes leg)
#: at 0.97 V
DRIVER_GRID = dict(
    benchmarks=("gcc", "mcf", "sjeng", "tonto"),
    schemes=(SchemeKind.FAULT_FREE, SchemeKind.EP, SchemeKind.ABS,
             SchemeKind.FFS, SchemeKind.CDS),
    vdd=0.97, n_instructions=6000, warmup=3000,
)
DRIVER_ROUNDS = 3


def run_once():
    core = build_core(RunSpec("bzip2", SchemeKind.ABS, 1.04, seed=2))
    prime_caches(core.program, core.hierarchy)
    return core.run(N_INSTRUCTIONS).committed


def measure(rounds=ROUNDS):
    run_once()  # warm the program/profile caches
    best = 0.0
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        committed = run_once()
        dt = time.perf_counter() - t0
        rate = committed / dt
        samples.append(round(rate))
        best = max(best, rate)
    return best, samples


def _scheme_spec(seed, mseed=None, snapshot_dir=None):
    spec = RunSpec(seed=seed, measurement_seed=mseed, **CAMPAIGN_POINT)
    if snapshot_dir is not None:
        spec.snapshot_dir = snapshot_dir
    return spec


def _baseline_spec(seed):
    point = dict(CAMPAIGN_POINT, scheme=SchemeKind.FAULT_FREE)
    return RunSpec(seed=seed, **point)


def _cold_draws(n, first_seed):
    """Per-draw composition of the pre-amortization campaign.

    One draw per fresh seed: a cold scheme run plus a cold fault-free
    baseline, each paying the full warmup (``CampaignSpec.pair_specs``
    before fault-draw mode — every index a distinct seed, so nothing
    was shared between draws).
    """
    for seed in range(first_seed, first_seed + n):
        run_one(_scheme_spec(seed))
        run_one(_baseline_spec(seed))


def measure_campaign():
    """Campaign draws/s on the standard point, two ways.

    * ``cold`` — per-seed cold pairs, no warmup sharing.
    * ``warm`` — fault-draw mode: the point's single snapshot warmup
      and the single collapsed baseline are timed into the warm total
      (amortized over the batch exactly as the campaign executor
      amortizes them), then every draw forks from the snapshot.

    Returns the amortized warm rate and the *marginal* warm rate (the
    per-draw cost with the one-time warmup/baseline excluded — the
    steady-state rate a long-running point approaches; the amortized
    rate converges to it as the batch grows).

    Cold and warm draws are interleaved round-robin so the host's
    minute-scale throughput drift lands on both sides of the ratio.
    """
    run_one(_scheme_spec(1))  # warm the program/profile caches

    cold_s = warm_s = once_s = 0.0
    cold_n = warm_n = 0
    with tempfile.TemporaryDirectory() as snap_dir:
        t0 = time.perf_counter()
        ensure_snapshot(_scheme_spec(2), snap_dir)
        run_one(_baseline_spec(2))  # one baseline per point in fault mode
        once_s = time.perf_counter() - t0
        mseed = 0
        for rnd in range(CAMPAIGN_ROUNDS):
            t0 = time.perf_counter()
            _cold_draws(COLD_PER_ROUND, first_seed=200 + 10 * rnd)
            cold_s += time.perf_counter() - t0
            cold_n += COLD_PER_ROUND
            t0 = time.perf_counter()
            for _ in range(WARM_PER_ROUND):
                mseed += 1
                run_one(_scheme_spec(2, mseed, snap_dir))
            warm_s += time.perf_counter() - t0
            warm_n += WARM_PER_ROUND
    return cold_n / cold_s, warm_n / (warm_s + once_s), warm_n / warm_s


def measure_batch():
    """Lockstep batch-engine draws/s over the lane-count sweep.

    Each sample times one :func:`repro.snapshot.batch.run_batch` call of
    N scheme-run lanes, the vector counterpart of the marginal scalar
    draw. The sweep's draws share one stream, so the first call builds
    the plan and every later call reuses the one the process kept, as
    a campaign point's calls do. Every call pays for one kernel warmup
    that all its lanes share, while a marginal scalar draw forks a
    snapshot built once beforehand; ``batch_lanes_speedup`` therefore
    charges the warmup to the batch side only. Returns
    ``(rates_by_n, vector_lanes_at_max)`` where the second element counts
    lanes the largest batch actually ran vectorized — 0 signals a silent
    whole-batch fallback to the scalar path.
    """
    from repro.snapshot.batch import BatchReport, batch_eligible, run_batch

    if not batch_eligible(_scheme_spec(2, 1)):
        return {}, 0
    rates = {}
    vector_lanes = 0
    mseed = 1000
    for lanes in BATCH_LANE_SWEEP:
        best = 0.0
        for _ in range(BATCH_ROUNDS):
            specs = [_scheme_spec(2, mseed + i) for i in range(lanes)]
            mseed += lanes
            report = BatchReport()
            t0 = time.perf_counter()
            run_batch(specs, None, report)
            dt = time.perf_counter() - t0
            best = max(best, lanes / dt)
            if lanes == max(BATCH_LANE_SWEEP):
                vector_lanes = max(vector_lanes, report.vector_lanes)
        rates[str(lanes)] = round(best, 2)
    return rates, vector_lanes


def measure_drivers():
    """CPU ratio of the driver grid through ``run_many``, 0 lanes / lanes.

    Each round runs the grid once with ``batch_lanes=0`` (every window
    scalar) and once with the drivers' ``DRIVER_LANES``, in alternating
    order, serially in this process and without a result cache, and
    asserts that both legs return equal results. The kernel is loaded
    and the programs are built before the first timed leg. Returns
    ``(median ratio, per-round ratios, vector lanes per lanes leg)``.
    """
    from repro.harness.export import sim_result_to_dict
    from repro.harness.parallel import DRIVER_LANES, run_many
    from repro.snapshot import batch

    grid = DRIVER_GRID
    specs = [
        RunSpec(benchmark, scheme, grid["vdd"], grid["n_instructions"],
                grid["warmup"], seed=1)
        for benchmark in grid["benchmarks"] for scheme in grid["schemes"]
    ]
    run_many(specs[:1], batch_lanes=DRIVER_LANES)
    for benchmark in grid["benchmarks"]:
        build_core(RunSpec(benchmark, SchemeKind.EP, grid["vdd"],
                           grid["n_instructions"], grid["warmup"], seed=1))
    run_batch, reports = batch.run_batch, []

    def counted(specs, snapshot_dir, report=None, **kwargs):
        reports.append(report or batch.BatchReport())
        return run_batch(specs, snapshot_dir, reports[-1], **kwargs)

    batch.run_batch = counted
    ratios = []
    try:
        for rnd in range(DRIVER_ROUNDS):
            legs = (0, DRIVER_LANES) if rnd % 2 == 0 else (DRIVER_LANES, 0)
            cpu, out = {}, {}
            for lanes in legs:
                t0 = time.process_time()
                out[lanes] = run_many(specs, batch_lanes=lanes)
                cpu[lanes] = time.process_time() - t0
            assert [sim_result_to_dict(r) for r in out[0]] == [
                sim_result_to_dict(r) for r in out[DRIVER_LANES]
            ], "kernel lanes and scalar runs disagree"
            ratios.append(round(cpu[0] / cpu[DRIVER_LANES], 3))
    finally:
        batch.run_batch = run_batch
    vector_lanes = sum(r.vector_lanes for r in reports) // DRIVER_ROUNDS
    return statistics.median(ratios), ratios, vector_lanes


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    out = argv[0] if argv else "BENCH_throughput.json"
    best, samples = measure()
    cold_rate, warm_rate, marginal_rate = measure_campaign()
    batch_rates, batch_vector_lanes = measure_batch()
    driver_speedup, driver_ratios, driver_vector_lanes = measure_drivers()
    batch_n = str(max(BATCH_LANE_SWEEP))
    batch_rate = batch_rates.get(batch_n, 0.0)
    record = {
        "benchmark": "pipeline_throughput",
        "workload": "bzip2/ABS/vdd=1.04, 3000 committed instructions",
        "inst_per_s": round(best),
        "samples_inst_per_s": samples,
        "baseline_inst_per_s": BASELINE_INST_PER_S,
        "speedup_vs_baseline": round(best / BASELINE_INST_PER_S, 2),
        "campaign_workload": (
            "gcc/ABS/vdd=0.97, 6000 measured after 3000 warmup, "
            "draw = scheme run + fault-free baseline"
        ),
        "campaign_draws_per_s": round(warm_rate, 2),
        "campaign_marginal_draws_per_s": round(marginal_rate, 2),
        "campaign_cold_draws_per_s": round(cold_rate, 2),
        "snapshot_speedup": round(warm_rate / cold_rate, 2),
        "snapshot_marginal_speedup": round(marginal_rate / cold_rate, 2),
        "batch_workload": (
            f"same point, N={batch_n} lockstep lanes per dispatch, "
            "scheme-run draws whose shared warmup runs once in the kernel"
        ),
        "batch_lanes": int(batch_n),
        "batch_draws_per_s": round(batch_rate, 2),
        "batch_draws_per_s_by_lanes": batch_rates,
        "batch_lanes_speedup": (
            round(batch_rate / marginal_rate, 2) if batch_rate else 0.0
        ),
        "batch_vector_lanes": batch_vector_lanes,
        "driver_workload": (
            "run_many over {gcc, mcf, sjeng, tonto} x {FAULT_FREE, EP, ABS, "
            "FFS, CDS} at vdd=0.97, 6000 measured after 3000 warmup, "
            "jobs=1, no cache: CPU at 0 lanes over CPU at the drivers' "
            "lanes, legs interleaved, equal results asserted"
        ),
        "driver_lane_speedup": round(driver_speedup, 2),
        "driver_lane_speedup_by_round": driver_ratios,
        "driver_vector_lanes": driver_vector_lanes,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    # carry every key this script does not write: the fleet figures of
    # fleet_throughput.py, and measurements of deleted code paths, which
    # cannot be retaken
    try:
        with open(out) as fh:
            record = {**json.load(fh), **record}
    except (OSError, ValueError):
        pass
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
