"""Batched measurement: N measured windows per instruction stream.

Specs sharing one stream key (:meth:`~repro.harness.runner.RunSpec.
stream_key`, the warmup key without scheme, supply and clock) fetch the
*identical* instruction stream through warmup and window. They differ in
what their scheme, supply and clock decide — the scheme's mechanisms and
the fault injector — and in measurement-window fields such as
``measurement_seed``, which reseeds the injector at the
warmup→measurement boundary. The batch path exploits this: one cold core
(:func:`~repro.harness.runner.cold_core`) supplies the lane-invariant
plan over warmup and window (:func:`repro.uarch.batchcore.build_plan`),
which the process keeps for the next call on the same stream; the
compiled kernel runs one warmup lane per warmup key, every lane starts
the window from its own warmup lane's state, and each seeded lane's
fault tape is redrawn from the first instruction that warmup lane had
not fetched (:func:`repro.uarch.batchstream.build_tapes`). No kernel
lane is warmed on the scalar core, forked or captured: the snapshot
store serves only scalar runs. A batch may have one lane.

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

import numpy as np

from repro.core.schemes import make_scheme
from repro.core.tep import TEPConfig
from repro.harness.runner import (
    build_core, cold_core, measure, measured_result,
)
from repro.snapshot.fork import warmed_core
from repro.uarch import batchkernel
from repro.uarch.batchstream import BatchFallback, build_tapes
from repro.uarch.config import CoreConfig

#: the fallback reason of a warmup lane that fetched past the slots its
#: seedless tape was drawn over (:func:`warmup_reach`)
SHORT_TAPE = "warmup lane fetched past its seedless tape"

#: the plan this process built last, under its stream key: a campaign
#: point's scheme batches and baseline, or one benchmark's schemes, reach
#: :func:`run_batch` one call after another on one stream
_plans = {}


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
    specs sharing its stream key (one plan, whatever their schemes,
    supplies and clocks); ``rest`` collects the ineligible specs. Input
    order is preserved within each list.
    """
    groups = {}
    rest = []
    for spec in specs:
        if batch_eligible(spec):
            groups.setdefault(spec.stream_key(), []).append(spec)
        else:
            rest.append(spec)
    out = [
        members[i:i + max_lanes]
        for members in groups.values()
        for i in range(0, len(members), max_lanes)
    ]
    return out, rest


def warmup_reach(plan, warmup):
    """How many slots a lane may have fetched once ``warmup`` commits landed.

    Its ROB, its front-end conveyor and one commit group past the
    target: a seedless tape drawn this far covers every slot a warmup
    lane fetches.
    """
    return warmup + plan.rob_size + (plan.depth + 1) * plan.width


def _stream_plan(spec):
    """The batch plan of ``spec``'s stream, and a new one's warmup lane.

    Returns ``(plan, lane)``: the kept plan and None, or a new plan and
    the :class:`_WarmupLane` of ``spec`` read off the cold core the plan
    was built from (the core is gone when this returns). The process
    keeps one plan, the last: the old one is dropped before the next is
    built, so two are never alive at once. Lanes only read a plan (the
    kernel's plan fields are ``const``), so a kept plan serves every
    later call unchanged.
    """
    from repro.uarch import batchcore

    key = spec.stream_key()
    if key in _plans:
        return _plans[key], None
    _plans.clear()
    core = cold_core(spec)
    _plans[key] = batchcore.build_plan(core,
                                       spec.warmup + spec.n_instructions)
    return _plans[key], _WarmupLane(spec, core)


class _WarmupLane:
    """What one warmup key brings to a call: its warmup lane's scheme
    scalars, and its fault injector for the lanes' tapes.

    Read off a core of the key's first spec: ``core`` when one was built
    already (planning a stream walks a core's trace, branch predictor
    and caches, none of which is read here), else a fresh one. The core
    is not kept: a call keeps injectors (kilobytes each), not cores
    (megabytes).
    """

    def __init__(self, spec, core=None):
        from repro.uarch.batchcore import scheme_scalars

        if core is None:
            core = build_core(spec)
        self.scalars = scheme_scalars(core)
        self.injector = core.injector
        self.program = core.program
        self.vdd = spec.vdd

    def tapes(self, pcs, measurement_seeds):
        """Tapes over the stream positions of ``pcs``, one per seed."""
        return build_tapes(self.injector, self.program, pcs,
                           measurement_seeds, self.vdd)


def run_batch(specs, snapshot_dir, report=None, force_evict=None):
    """Run ``specs`` (lanes of one batch) and return their SimResults.

    All specs must share one stream key and be :func:`batch_eligible`;
    violations raise ``ValueError`` (they indicate a grouping bug, not a
    modeling limit). The kernel runs one warmup lane per warmup key
    among ``specs`` and then the window on every lane. A missing
    compiled kernel, data the planner rejects (:class:`BatchFallback`),
    an evicted warmup lane and per-lane evictions all degrade to the
    scalar path transparently: such a lane measures on
    ``warmed_core(spec, snapshot_dir)``, and with no kernel nothing is
    planned for the batch. Kernel lanes go through the same
    :func:`~repro.harness.runner.measured_result` as every scalar
    window.

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
    key = specs[0].stream_key()
    if any(s.stream_key() != key for s in specs[1:]):
        raise ValueError("mixed stream keys in one batch")

    try:
        if batchkernel.load_kernel() is None:
            raise BatchFallback("compiled batch kernel unavailable")
        lanes, evicted = _run_lanes(specs, force_evict)
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
            report.evictions[lane] = evicted[lane]
        report.scalar_lanes += 1
        results.append(measure(warmed_core(spec, snapshot_dir), spec))
    return results


def _run_lanes(specs, force_evict):
    """Run ``specs``' windows on the kernel, warmups first.

    Returns ``(per lane: counters or None, per lane: eviction reason)``.
    Raises :class:`BatchFallback` for an evicted warmup lane, and for
    one that fetched past its seedless tape (:data:`SHORT_TAPE`).
    """
    from repro.uarch.batchcore import WARMUP_EVICTED, BatchEngine

    ref = specs[0]
    plan, first_lane = _stream_plan(ref)
    pcs = plan.stream.pc
    # lane -> its warmup lane: one per warmup key, in order of appearance
    index = {}
    sources = [index.setdefault(spec.warmup_key(), len(index))
               for spec in specs]
    warm = [first_lane or _WarmupLane(ref)] + [
        _WarmupLane(specs[sources.index(w)]) for w in range(1, len(index))
    ]
    # a warmup lane whose lanes all reseed needs its seedless tape only
    # as far as its warmup fetches
    unseeded = {w for w, spec in zip(sources, specs)
                if spec.measurement_seed is None}
    reach = np.array([
        plan.NS if w in unseeded
        else min(plan.NS, warmup_reach(plan, ref.warmup))
        for w in range(len(warm))
    ])
    tapes = np.zeros((len(warm), plan.NS), dtype=np.int16)
    for w, lane in enumerate(warm):
        tapes[w, :reach[w]] = lane.tapes(pcs[:reach[w]], [None])[0]
    engine = BatchEngine(plan, tapes, [lane.scalars for lane in warm])
    if ref.warmup:
        for w, counters in enumerate(engine.run(ref.warmup)):
            if counters is None:
                raise BatchFallback(
                    f"{WARMUP_EVICTED}: {engine.evicted_reason[w]}"
                )
    first = engine.first_unfetched
    if (first > reach).any():
        raise BatchFallback(SHORT_TAPE)
    tails = {}
    for w, lane in enumerate(warm):
        draws = [i for i, (source, spec) in enumerate(zip(sources, specs))
                 if source == w and spec.measurement_seed is not None]
        if draws:
            rows = lane.tapes(pcs[first[w]:],
                              [specs[i].measurement_seed for i in draws])
            tails.update(zip(draws, rows))
    engine.fork(sources, tails)
    return engine.run(ref.n_instructions, force_evict), engine.evicted_reason
