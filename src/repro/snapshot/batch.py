"""Batched measurement: N measured windows per shared warmup.

Specs sharing one warmup key reach bit-identical post-warmup state and
fetch the *identical* instruction stream — they differ only in
measurement-window fields such as ``measurement_seed``, which reseeds
the fault injector at the warmup→measurement boundary. The batch path
exploits this: the cold core (:func:`~repro.harness.runner.cold_core`)
supplies the lane-invariant plan over warmup and window
(:func:`repro.uarch.batchcore.build_plan`), the compiled kernel runs the
warmup on one lane, every lane starts the window from that lane's
state, and each seeded lane's fault tape is redrawn from the first
instruction fetched after the boundary
(:func:`repro.uarch.batchstream.build_tapes`). No kernel lane is warmed
on the scalar core, forked or captured: the snapshot store serves only
scalar runs. A batch may have one lane.

Correctness never depends on the batch path handling every corner:

* a spec outside the kernel's model is simply not batch-eligible
  (:func:`batch_eligible`, read from its fields): it runs scalar;
* a *batch* with no compiled kernel, or whose data the planner rejects
  (:class:`~repro.uarch.batchstream.BatchFallback`), falls back to
  per-lane scalar runs, bit-identically;
* a *lane* the engine evicts mid-window (safety-net replay, watchdog)
  re-runs alone on the scalar path, also bit-identically; an evicted
  *warmup* lane sends the whole batch there, under
  :data:`~repro.uarch.batchcore.WARMUP_EVICTED`.

:class:`BatchReport` records which of those happened — benchmarks and the
CI ``batch-smoke`` gate use it to detect a silently all-scalar batch.
"""

import os

from repro.core.schemes import make_scheme
from repro.core.tep import TEPConfig
from repro.harness.runner import cold_core, measure, measured_result
from repro.snapshot.fork import warmed_core
from repro.uarch import batchkernel
from repro.uarch.batchstream import BatchFallback, build_tapes
from repro.uarch.config import CoreConfig


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
    """Most lanes per kernel call: the value, else ``REPRO_BATCH_LANES``.

    Returns 0 (batching off, every spec scalar) for unset, malformed,
    zero or negative values.
    """
    if batch_lanes is None:
        try:
            batch_lanes = int(os.environ.get("REPRO_BATCH_LANES", "0"))
        except ValueError:
            batch_lanes = 0
    return max(0, int(batch_lanes))


def batch_eligible(spec):
    """True when ``spec`` may run as a lane of a batched measurement.

    The one place a kernel model limit is decided, from the spec's
    fields before any core is built. The measured window has no storm
    (it mutates the injector per cycle), telemetry (observers),
    ``verify`` or ``corruption`` (the checker must see every commit),
    and the core is inside the kernel's model, which covers every scheme
    (CDS's criticality detection included):

    * a scheme with a timing predictor uses the paper's TEP
      (``predictor == "tep"``) indexed by PC alone (``history_bits == 0``);
    * selective replay and conservative memory disambiguation;
    * Core-1's functional units (:data:`~repro.uarch.batchkernel.FU_COUNTS`),
      and an issue queue and width that fit the kernel's static scratch.

    Other limits depend on the data: whole-batch fallbacks or lane
    evictions.
    """
    if (spec.storm is not None or spec.telemetry is not None
            or spec.verify or spec.corruption):
        return False
    scheme = make_scheme(spec.scheme)
    config = spec.config or CoreConfig.core1()
    history_bits = (spec.tep_config or TEPConfig()).history_bits
    return (
        (not scheme.uses_tep
         or (spec.predictor == "tep" and not history_bits))
        and config.replay_mode == "selective"
        and config.mem_dependence == "conservative"
        and config.fu_counts == batchkernel.FU_COUNTS
        and config.iq_size <= batchkernel.MAX_IQ
        and config.width <= batchkernel.MAX_WIDTH
    )


def batch_groups(specs, max_lanes):
    """Partition ``specs`` into (lane groups, scalar rest).

    Every :func:`batch_eligible` spec joins a group of 1..``max_lanes``
    specs sharing its warmup key (one warmup, one plan); ``rest``
    collects the ineligible specs. Input order is preserved within each
    list.
    """
    groups = {}
    rest = []
    for spec in specs:
        if batch_eligible(spec):
            groups.setdefault(spec.warmup_key(), []).append(spec)
        else:
            rest.append(spec)
    out = [
        members[i:i + max_lanes]
        for members in groups.values()
        for i in range(0, len(members), max_lanes)
    ]
    return out, rest


def run_batch(specs, snapshot_dir, report=None, force_evict=None):
    """Run ``specs`` (lanes of one batch) and return their SimResults.

    All specs must share one warmup key and be :func:`batch_eligible`;
    violations raise ``ValueError`` (they indicate a grouping bug, not a
    modeling limit). The kernel runs ``specs[0]``'s warmup on one lane
    and then the window on every lane. A missing compiled kernel, data
    the planner rejects (:class:`BatchFallback`), an evicted warmup and
    per-lane evictions all degrade to the scalar path transparently:
    such a lane measures on ``warmed_core(spec, snapshot_dir)``, and
    with no kernel nothing is planned for the batch. Kernel lanes go
    through the same :func:`~repro.harness.runner.measured_result` as
    every scalar window.

    ``force_evict`` (lane index → cycle of the window) is a test hook
    forcing divergence-path coverage at arbitrary points.
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
        from repro.uarch.batchcore import (
            WARMUP_EVICTED, BatchEngine, build_plan,
        )

        if batchkernel.load_kernel() is None:
            raise BatchFallback("compiled batch kernel unavailable")
        core = cold_core(ref)
        plan = build_plan(core, ref.warmup + ref.n_instructions)
        # one lane on the cold injector's stream runs the warmup
        engine = BatchEngine(
            plan, build_tapes(core, plan.stream, [None], ref.vdd)
        )
        if ref.warmup:
            (warm,) = engine.run(ref.warmup)
            if warm is None:
                raise BatchFallback(
                    f"{WARMUP_EVICTED}: {engine.evicted_reason[0]}"
                )
        seeded = {lane: spec.measurement_seed
                  for lane, spec in enumerate(specs)
                  if spec.measurement_seed is not None}
        tails = build_tapes(
            core, plan.stream, list(seeded.values()), ref.vdd,
            start=engine.first_unfetched,
        ) if seeded else []
        engine.fork(len(specs), dict(zip(seeded, tails)))
        lanes = engine.run(ref.n_instructions, force_evict)
    except BatchFallback as exc:
        report.fallback_reason = str(exc)
        lanes = [None] * len(specs)

    results = []
    for lane, (spec, counters) in enumerate(zip(specs, lanes)):
        if counters is not None:
            report.vector_lanes += 1
            results.append(measured_result(spec, *counters))
            continue
        if report.fallback_reason is None:
            report.evictions[lane] = engine.evicted_reason[lane]
        report.scalar_lanes += 1
        results.append(measure(warmed_core(spec, snapshot_dir), spec))
    return results
