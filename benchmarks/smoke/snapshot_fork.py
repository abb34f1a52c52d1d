"""snapshot-smoke: fork-vs-cold identity and the draws/s gate.

A run forked from a warmup snapshot, stored or restored, must measure
what the cold run measures, on a small grid; and on gcc, draws forked
from one snapshot must run at least 3x the per-seed cold pairs. From
the checkout root::

    python benchmarks/smoke/snapshot_fork.py
"""

import tempfile
import time

from _common import digest, spec
from repro.core.schemes import SchemeKind
from repro.harness.runner import run_one
from repro.snapshot import ensure_snapshot

#: the fork-vs-cold grid, each point at the smoke window and seed 3
GRID = [
    dict(benchmark="gcc", scheme=SchemeKind.ABS, vdd=0.97),
    dict(benchmark="astar", scheme=SchemeKind.CDS, vdd=1.04),
    dict(benchmark="bzip2", scheme=SchemeKind.EP, vdd=0.97),
]
ROUNDS, COLD_PER_ROUND, WARM_PER_ROUND = 3, 2, 8


def fork_vs_cold():
    with tempfile.TemporaryDirectory() as snap_dir:
        for point in GRID:
            cold = run_one(spec(seed=3, **point))
            # miss: warms + stores
            forked = run_one(spec(seed=3, snapshot_dir=snap_dir, **point))
            # hit: restores the blob
            again = run_one(spec(seed=3, snapshot_dir=snap_dir, **point))
            assert digest(cold) == digest(forked) == digest(again), point
            print("fork-vs-cold identical:", point["benchmark"],
                  point["scheme"].name)


def forked_speedup():
    """Forked campaign draws must be >= 3x cold draws on gcc."""
    cold_s = warm_s = 0.0
    cold_n = warm_n = 0
    with tempfile.TemporaryDirectory() as snap_dir:
        t0 = time.perf_counter()
        ensure_snapshot(spec("gcc", 2), snap_dir)
        # the one collapsed baseline
        run_one(spec("gcc", 2, scheme=SchemeKind.FAULT_FREE))
        warm_s += time.perf_counter() - t0
        mseed = 0
        for rnd in range(ROUNDS):
            t0 = time.perf_counter()
            for seed in range(
                200 + 10 * rnd, 200 + 10 * rnd + COLD_PER_ROUND
            ):
                run_one(spec("gcc", seed))
                run_one(spec("gcc", seed, scheme=SchemeKind.FAULT_FREE))
            cold_s += time.perf_counter() - t0
            cold_n += COLD_PER_ROUND
            t0 = time.perf_counter()
            for _ in range(WARM_PER_ROUND):
                mseed += 1
                run_one(spec("gcc", 2, mseed, snap_dir))
            warm_s += time.perf_counter() - t0
            warm_n += WARM_PER_ROUND

    cold_rate, warm_rate = cold_n / cold_s, warm_n / warm_s
    ratio = warm_rate / cold_rate
    print(f"cold {cold_rate:.2f} draws/s, warm {warm_rate:.2f} "
          f"draws/s, speedup {ratio:.2f}x")
    assert ratio >= 3.0, (
        f"snapshot forking delivered only {ratio:.2f}x over cold"
    )


def main():
    fork_vs_cold()
    forked_speedup()
    print("snapshot smoke OK")


if __name__ == "__main__":
    main()
