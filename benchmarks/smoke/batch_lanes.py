"""batch-smoke: N=8 kernel lanes vs scalar runs, and the 3x marginal gate.

Every lane of a ``run_batch`` call must measure what ``run_one`` of its
spec measures: on gcc and tonto (which issues FPU ops), on bzip2 under
CDS at CT = 2 (every lane lands criticality marks), and on one bzip2
stream under six schemes at two supplies (twelve lanes, one plan). On
gcc the batch must run at least 3x the marginal scalar draw. Needs a C
compiler on PATH. From the checkout root::

    python benchmarks/smoke/batch_lanes.py
"""

import glob
import os
import tempfile
import time

from _common import digest, spec
from repro.core.schemes import SchemeKind
from repro.harness.runner import run_one
from repro.snapshot import ensure_snapshot
from repro.snapshot.batch import BatchReport, run_batch
from repro.uarch import batchcore
from repro.uarch.config import CoreConfig

N = 8


def snaps(store):
    return sorted(glob.glob(os.path.join(store, "**", "*.snap"),
                            recursive=True))


def lanes_vs_scalar():
    # gcc is the standard campaign point; tonto issues FPU ops
    ratios = {}
    with tempfile.TemporaryDirectory() as snap:
        for benchmark in ("gcc", "tonto"):
            ensure_snapshot(spec(benchmark, 2, 1, snap), snap)
            stored = snaps(snap)
            # untimed pre-pass compiles the batch kernel so the
            # timed race is steady-state
            run_batch([spec(benchmark, 2, i + 1, snap) for i in range(N)],
                      snap)

            t0 = time.perf_counter()
            scalar = [run_one(spec(benchmark, 2, i + 1, snap))
                      for i in range(N)]
            scalar_rate = N / (time.perf_counter() - t0)

            report = BatchReport()
            t0 = time.perf_counter()
            batched = run_batch(
                [spec(benchmark, 2, i + 1, snap) for i in range(N)],
                snap, report,
            )
            batch_rate = N / (time.perf_counter() - t0)

            for lane, (b, s) in enumerate(zip(batched, scalar)):
                assert digest(b) == digest(s), (
                    f"{benchmark} lane {lane} diverged"
                )
            print(f"{benchmark}: digests identical across {N} lanes; "
                  f"{report}")
            # kernel lanes warm up in the kernel: only the scalar
            # runs' snapshot is in the store
            assert snaps(snap) == stored, (
                f"run_batch stored snapshots: {snaps(snap)}"
            )
            # a compiler is on PATH, so an all-scalar batch
            # means the kernel path silently broke — fail loudly
            assert report.vector_lanes > 0, (
                f"batch path silently fell back for every lane: "
                f"{report}"
            )
            ratios[benchmark] = batch_rate / scalar_rate
            print(f"{benchmark}: scalar {scalar_rate:.1f} draws/s, "
                  f"batch {batch_rate:.1f} draws/s, "
                  f"{ratios[benchmark]:.1f}x")
    assert ratios["gcc"] >= 3.0, (
        f"batch delivered only {ratios['gcc']:.2f}x over scalar marginal"
    )


def cds_lanes():
    # CDS at CT = 2: every lane counts dependents and lands marks
    cds = [
        spec("bzip2", 2, i + 1, scheme=SchemeKind.CDS,
             config=CoreConfig(criticality_threshold=2))
        for i in range(N)
    ]
    report = BatchReport()
    batched = run_batch(cds, None, report)
    assert report.vector_lanes == N, f"bzip2/CDS: {report}"
    for lane, (b, s) in enumerate(zip(batched, cds)):
        assert digest(b) == digest(run_one(s)), (
            f"bzip2/CDS lane {lane} diverged"
        )
        assert b.stats.critical_marks_landed > 0, (
            f"bzip2/CDS lane {lane} landed no criticality mark"
        )
    print(f"bzip2/CDS: digests identical across {N} lanes; marks "
          f"{[b.stats.critical_marks_landed for b in batched]}")


def mixed_lanes():
    # one stream under every scheme at both supplies: twelve lanes
    # of twelve warmup keys share one kernel call and one plan
    plans = []
    build_plan = batchcore.build_plan

    def counted(core, n_commits):
        plans.append(n_commits)
        return build_plan(core, n_commits)

    batchcore.build_plan = counted
    mixed = [
        spec("bzip2", 5, k + 1 if vdd == 1.04 else None, scheme=scheme,
             vdd=vdd, config=CoreConfig(criticality_threshold=2))
        for vdd in (0.97, 1.04)
        for k, scheme in enumerate((
            SchemeKind.FAULT_FREE, SchemeKind.RAZOR, SchemeKind.EP,
            SchemeKind.ABS, SchemeKind.FFS, SchemeKind.CDS))
    ]
    report = BatchReport()
    batched = run_batch(mixed, None, report)
    batchcore.build_plan = build_plan
    assert report.vector_lanes == 12, f"mixed lanes: {report}"
    assert report.fallback_reason is None, f"mixed lanes: {report}"
    assert len(plans) == 1, f"mixed lanes planned {len(plans)} times"
    for lane, (b, s) in enumerate(zip(batched, mixed)):
        assert digest(b) == digest(run_one(s)), (
            f"mixed lane {lane} ({s.scheme.name}, {s.vdd} V) diverged"
        )
    print(f"mixed lanes: digests identical across 12 lanes of one "
          f"stream, one plan; cycles {[b.stats.cycles for b in batched]}")


def main():
    lanes_vs_scalar()
    cds_lanes()
    mixed_lanes()
    print("batch smoke OK")


if __name__ == "__main__":
    main()
