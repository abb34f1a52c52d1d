"""batch-smoke: without a compiler, a batch falls back to scalar runs.

``CC=/bin/false`` fails every compile and an empty kernel cache holds
no kernel, so ``run_batch`` must run every lane on the scalar path, say
why, and measure what ``run_one`` measures. From the checkout root::

    CC=/bin/false REPRO_KERNEL_CACHE="$(mktemp -d)" \\
        python benchmarks/smoke/batch_no_compiler.py
"""

import tempfile

from _common import digest, spec
from repro.harness.runner import run_one
from repro.snapshot import ensure_snapshot
from repro.snapshot.batch import BatchReport, run_batch
from repro.uarch.batchkernel import load_kernel

N = 4


def main():
    # CC=/bin/false fails every compile and the kernel cache is
    # empty, so there is no kernel to load
    assert load_kernel() is None
    with tempfile.TemporaryDirectory() as snap:
        ensure_snapshot(spec("gcc", 2, 1, snap), snap)
        report = BatchReport()
        batched = run_batch(
            [spec("gcc", 2, i + 1, snap) for i in range(N)], snap, report
        )
        scalar = [run_one(spec("gcc", 2, i + 1, snap)) for i in range(N)]
    for lane, (b, s) in enumerate(zip(batched, scalar)):
        assert digest(b) == digest(s), f"lane {lane} diverged"
    print(report)
    assert report.vector_lanes == 0, report
    assert report.scalar_lanes == N, report
    assert "kernel" in (report.fallback_reason or ""), report
    print("no-compiler fallback OK")


if __name__ == "__main__":
    main()
