"""Batched measurement: N campaign draws per snapshot fork.

Campaign draws of one point fork the *same* warmup snapshot and fetch the
*identical* instruction stream — they differ only in ``measurement_seed``,
which reseeds the fault injector at the warmup→measurement boundary. The
batch path exploits this: one fork supplies the lane-invariant plan
(:func:`repro.uarch.batchcore.build_plan`), the per-lane fault tapes are
drawn up front (:func:`repro.uarch.batchstream.build_tapes`), and the
compiled kernel advances all N lanes in one call.

Correctness never depends on the batch path handling every corner:

* a spec the engine cannot model (storm, telemetry, verify, no
  measurement seed, exotic config) is simply not batch-eligible;
* a *batch* with no compiled kernel, or one the planner rejects
  (:class:`~repro.uarch.batchstream.BatchFallback`), falls back to
  per-lane scalar runs, bit-identically;
* a *lane* the engine evicts mid-window (safety-net replay, watchdog)
  re-runs alone on the scalar path, also bit-identically.

:class:`BatchReport` records which of those happened — benchmarks and the
CI ``batch-smoke`` gate use it to detect a silently all-scalar batch.
"""

import os

from repro.harness.runner import measured_result, run_one
from repro.snapshot.fork import ensure_snapshot, snapshot_eligible, warmed_core
from repro.uarch import batchkernel
from repro.uarch.batchstream import BatchFallback, build_tapes, have_numpy


class BatchReport:
    """How one :func:`run_batch` call actually executed.

    ``vector_lanes + scalar_lanes == n_lanes`` after the call. A
    whole-batch fallback sets ``fallback_reason``; per-lane evictions land
    in ``evictions`` (lane index → reason string).
    """

    def __init__(self):
        self.n_lanes = 0
        self.vector_lanes = 0
        self.scalar_lanes = 0
        self.fallback_reason = None
        self.evictions = {}

    def __repr__(self):
        return (
            f"BatchReport(vector={self.vector_lanes}, "
            f"scalar={self.scalar_lanes}, "
            f"fallback={self.fallback_reason!r}, "
            f"evictions={len(self.evictions)})"
        )


def resolve_batch_lanes(batch_lanes=None):
    """Effective lane count: the explicit value, else ``REPRO_BATCH_LANES``.

    Returns 0 (batching off) for unset, malformed, or negative values —
    the callers treat anything below 2 as "scalar path only".
    """
    if batch_lanes is None:
        try:
            batch_lanes = int(os.environ.get("REPRO_BATCH_LANES", "0"))
        except ValueError:
            batch_lanes = 0
    return max(0, int(batch_lanes))


def batch_eligible(spec):
    """True when ``spec`` may run as one lane of a batched measurement.

    Requires numpy, a snapshot-eligible warmup, and a measurement-window
    suffix of exactly ``(measurement_seed, None, False, None, None)``:
    storm wrapping mutates the injector per cycle, telemetry attaches
    observers, and without a measurement seed the injector continues the
    warmup RNG stream, whose state the tape builder does not replicate.
    """
    return (
        have_numpy()
        and snapshot_eligible(spec)
        and getattr(spec, "measurement_seed", None) is not None
        and getattr(spec, "storm", None) is None
        and getattr(spec, "telemetry", None) is None
    )


def batch_groups(specs, max_lanes):
    """Partition ``specs`` into (batchable-group, scalar-rest).

    Returns ``(groups, rest)`` where each group is a list of 2..max_lanes
    specs sharing one warmup key (one snapshot, one plan) and ``rest``
    collects everything else: ineligible specs, and any spec left alone
    in its group, which runs scalar. Input order is preserved within
    each list.
    """
    groups = {}
    rest = []
    order = []
    for spec in specs:
        if not batch_eligible(spec):
            rest.append(spec)
            continue
        key = spec.warmup_key()
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(spec)
    out = []
    for key in order:
        members = groups[key]
        if len(members) < 2:
            rest.extend(members)
            continue
        for i in range(0, len(members), max_lanes):
            chunk = members[i:i + max_lanes]
            if len(chunk) < 2:
                rest.extend(chunk)
            else:
                out.append(chunk)
    return out, rest


def run_batch(specs, snapshot_dir, report=None, force_evict=None):
    """Run ``specs`` (lanes of one batch) and return their SimResults.

    All specs must share one warmup key and be :func:`batch_eligible`;
    violations raise ``ValueError`` (they indicate a grouping bug, not a
    modeling limit). A missing compiled kernel, other engine-level limits
    (:class:`BatchFallback`) and per-lane evictions all degrade to the
    scalar path transparently; with no kernel, nothing is forked or
    planned for the batch. Scalar lanes are plain :func:`run_one` calls,
    and kernel lanes go through the same
    :func:`~repro.harness.runner.measured_result` as every scalar window.

    ``force_evict`` (lane index → virtual cycle) is a test hook forcing
    divergence-path coverage at arbitrary points.
    """
    if report is None:
        report = BatchReport()
    report.n_lanes = len(specs)
    if not specs:
        return []
    for spec in specs:
        if not batch_eligible(spec):
            raise ValueError(f"spec not batch-eligible: {spec!r}")
    ref = specs[0]
    key = ref.warmup_key()
    if any(s.warmup_key() != key for s in specs[1:]):
        raise ValueError("mixed warmup keys in one batch")

    try:
        from repro.uarch.batchcore import BatchEngine, build_plan

        if batchkernel.load_kernel() is None:
            raise BatchFallback("compiled batch kernel unavailable")
        ensure_snapshot(ref, snapshot_dir)
        donor = warmed_core(ref, snapshot_dir)
        plan = build_plan(donor, ref.n_instructions)
        tapes = build_tapes(
            donor, plan.stream,
            [s.measurement_seed for s in specs], ref.vdd,
        )
        engine = BatchEngine(plan, tapes)
        lanes = engine.run(force_evict=force_evict)
    except BatchFallback as exc:
        report.fallback_reason = str(exc)
        report.scalar_lanes = len(specs)
        return [run_one(spec) for spec in specs]

    results = []
    for lane, (spec, counters) in enumerate(zip(specs, lanes)):
        if counters is None:
            report.evictions[lane] = engine.evicted_reason[lane]
            report.scalar_lanes += 1
            results.append(run_one(spec))
        else:
            report.vector_lanes += 1
            results.append(measured_result(spec, *counters))
    return results
