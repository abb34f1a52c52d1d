"""Batched measurement: N measured windows per instruction stream.

Specs sharing one stream key (:meth:`~repro.harness.runner.RunSpec.
stream_key`, the warmup key without scheme, supply and clock) fetch the
*identical* instruction stream through warmup and window. They differ in
what their scheme, supply and clock decide — the scheme's mechanisms and
the fault draws — and in measurement-window fields such as
``measurement_seed``, which reseeds the injector at the
warmup→measurement boundary. The batch path exploits this: one cold core
(:func:`~repro.harness.runner.cold_core`) supplies the lane-invariant
plan over warmup and window (:func:`repro.uarch.batchcore.build_plan`),
which the process keeps for the next call on the same stream. A lane
needs its spec, not a core: its scheme scalars come from the spec
(:func:`repro.uarch.batchcore.scheme_scalars`), and its faults from the
one injector of its clock (:func:`~repro.harness.runner.build_injector`,
which reads no scheme or supply) and the one seedless tape of its clock
and supply (:func:`repro.uarch.batchstream.build_tapes`). Each warmup
key runs as its own small engine: its warmup lane warms in the kernel,
every lane of the key starts the window from that lane's state, and each
seeded lane's fault tape is redrawn from the first instruction that
warmup lane had not fetched. No kernel lane is warmed on the scalar
core, forked or captured: the snapshot store serves only scalar runs. A
batch may have one lane.

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
    build_injector, cold_core, injects_faults, measure, measured_result,
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
    """The batch plan of ``spec``'s stream, and a new plan's injector.

    Returns ``(plan, injector)``: the kept plan and None, or a new plan
    and the fault injector of the cold core it was built from (None when
    ``spec`` injects no faults; the core is gone when this returns). The
    process keeps one plan, the last: the old one is dropped before the
    next is built, so two are never alive at once. Lanes only read a plan
    (the kernel's plan fields are ``const``), so a kept plan serves every
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
    return _plans[key], core.injector


def run_batch(specs, snapshot_dir, report=None, force_evict=None):
    """Run ``specs`` (lanes of one batch) and return their SimResults.

    All specs must share one stream key and be :func:`batch_eligible`;
    violations raise ``ValueError`` (they indicate a grouping bug, not a
    modeling limit). Each warmup key among ``specs`` runs as one engine:
    its warmup lane, then the window on each of its lanes. A missing
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
    """Run ``specs``' windows on the kernel, one engine per warmup key.

    A warmup key's lanes fault on the tape of their clock and supply:
    one injector per clock and one seedless tape per clock and supply
    serve every warmup key of the call that shares them, drawn as far as
    the farthest of those keys needs. Lanes that inject no faults read a
    clean tape. Returns ``(per lane: counters or None, per lane: eviction
    reason)``. Raises :class:`BatchFallback` for an evicted warmup lane,
    and for one that fetched past its seedless tape (:data:`SHORT_TAPE`).
    """
    ref = specs[0]
    force_evict = force_evict or {}
    plan, injector = _stream_plan(ref)
    injectors = {ref.overclock: injector} if injector is not None else {}
    # the lanes of each warmup key, in order of appearance, and the
    # (clock, supply) of the tape each key reads, None for a clean one
    keys = {}
    for lane, spec in enumerate(specs):
        keys.setdefault(spec.warmup_key(), []).append(lane)
    tape_keys = []
    reach = {}
    for lanes in keys.values():
        spec = specs[lanes[0]]
        if not injects_faults(spec):
            tape_keys.append(None)
            reach[None] = plan.NS
            continue
        if spec.overclock not in injectors:
            injectors[spec.overclock] = build_injector(spec)
        tape_key = (spec.overclock, spec.vdd)
        tape_keys.append(tape_key)
        # a key whose lanes all reseed needs its seedless tape only as
        # far as its warmup fetches
        need = (plan.NS if any(specs[i].measurement_seed is None
                               for i in lanes)
                else min(plan.NS, warmup_reach(plan, ref.warmup)))
        reach[tape_key] = max(reach.get(tape_key, 0), need)
    pcs = plan.stream.pc
    tapes = {}
    for tape_key, n in reach.items():
        tapes[tape_key] = np.zeros(plan.NS, dtype=np.int16)
        if tape_key is not None:
            clock, vdd = tape_key
            tapes[tape_key][:n] = build_tapes(injectors[clock], plan.program,
                                              pcs[:n], [None], vdd)[0]
    counters = [None] * len(specs)
    evicted = [None] * len(specs)
    for lanes, tape_key in zip(keys.values(), tape_keys):
        out, reasons = _run_warmup_key(
            plan, tapes[tape_key], reach[tape_key],
            injectors[tape_key[0]] if tape_key else None,
            [specs[i] for i in lanes],
            {k: force_evict[i] for k, i in enumerate(lanes)
             if i in force_evict},
        )
        for i, lane_counters, reason in zip(lanes, out, reasons):
            counters[i] = lane_counters
            evicted[i] = reason
    return counters, evicted


def _run_warmup_key(plan, tape, drawn, injector, specs, force_evict):
    """Warm one warmup key's lane, fork ``specs`` from it, run the window.

    ``tape`` is the key's seedless tape, drawn over its first ``drawn``
    slots, and ``injector`` the one its seeded tails are drawn with
    (None: no faults). The engine lives only for this call, so a call
    holds one warmup key's engine at a time. Returns the engine's
    ``(counters, eviction reasons)`` per spec.
    """
    from repro.uarch.batchcore import (
        WARMUP_EVICTED, BatchEngine, scheme_scalars,
    )

    ref = specs[0]
    engine = BatchEngine(plan, tape, scheme_scalars(ref))
    if ref.warmup:
        (warm,) = engine.run(ref.warmup)
        if warm is None:
            raise BatchFallback(
                f"{WARMUP_EVICTED}: {engine.evicted_reason[0]}"
            )
    first = int(engine.first_unfetched[0])
    if first > drawn:
        raise BatchFallback(SHORT_TAPE)
    seeded = [k for k, spec in enumerate(specs)
              if spec.measurement_seed is not None]
    tails = {}
    if injector is not None and seeded:
        rows = build_tapes(injector, plan.program, plan.stream.pc[first:],
                           [specs[k].measurement_seed for k in seeded],
                           ref.vdd)
        tails = dict(zip(seeded, rows))
    engine.fork(len(specs), tails)
    return engine.run(ref.n_instructions, force_evict), engine.evicted_reason
