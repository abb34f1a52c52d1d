"""Shared-stream extraction for the batched lockstep engine.

Every run of one warmup key fetches the *identical* dynamic instruction
stream, through the warmup and the window: the trace generator's RNG is
warmup-side state and nothing on the measurement side reseeds it. The
branch predictor, the L1 instruction cache, and the fetch-group
partition are equally lane-invariant — they are driven only by that
stream. This module walks those structures of the cold core once per
batch, consuming them (the planned core never runs), and flattens the
result into plain arrays (:class:`StreamPlan`) that the vector engine
(:mod:`repro.uarch.batchcore`) indexes per cycle. The stream reads no
fault injector: it depends only on the program, the seed, the window
and the core configuration.

What *does* differ per lane is the fault realization of the window:
each campaign draw reseeds the injector's per-instance RNG from its
``measurement_seed`` at the first instruction fetched after the warmup,
and a lane without one continues the warmup stream.
:func:`build_tapes` replays that stream per lane — the real
:meth:`~repro.faults.injector.FaultInjector.resolve` for critical PCs, a
short-circuit for SAFE PCs (which consume exactly one background draw) —
producing a dense (lanes x instructions) fault-stage-mask tape.

Only the data raises :class:`BatchFallback` here (a trace that ends
inside the batch, an instruction with more than two sources); callers
then run the scalar path, which is always correct.
"""

import copy
import random

import numpy as np

from repro.isa.instruction import DynInst


class BatchFallback(Exception):
    """The batch engine cannot handle this run; use the scalar path."""


class StreamPlan:
    """Lane-invariant stream metadata for one batch.

    Per-instruction arrays are indexed by *stream position* (0 = the
    first instruction the core fetches), which is also the engine's slot
    number. Fetch groups mirror the scalar
    ``_fetch`` loop: up to ``width`` instructions per cycle, terminated
    early by a mispredicted branch (which blocks fetch until resolve).
    """

    __slots__ = (
        "n", "pc", "op", "mem_addr", "dest", "src0", "src1", "nsrcs",
        "mispredicted",
        "g_start", "g_len", "g_mispred", "g_branches", "g_l1i_hits",
        "g_l1i_misses", "g_miss_off", "miss_pcs",
    )


def build_stream(core, n_insts, width):
    """Walk ``n_insts`` instructions of ``core``'s future stream.

    The walk consumes ``core``'s own trace, branch predictor and L1I, so
    ``core`` must be a cold core that never runs: afterwards
    :func:`build_tapes` reads only its injector and program. Raises
    :class:`BatchFallback` when the trace ends inside the batch or an
    instruction has more than two sources.
    """
    bp = core.bp
    l1i = core.hierarchy.l1i
    l1i_sets = l1i._sets
    l1i_assoc = l1i._assoc
    l1i_shift = l1i._line_shift
    l1i_mask = l1i._set_mask

    n = int(n_insts)
    pc = np.zeros(n, dtype=np.int64)
    op = np.zeros(n, dtype=np.int8)
    mem_addr = np.zeros(n, dtype=np.int64)
    dest = np.full(n, -1, dtype=np.int16)
    src0 = np.full(n, -1, dtype=np.int16)
    src1 = np.full(n, -1, dtype=np.int16)
    nsrcs = np.zeros(n, dtype=np.int8)
    mispred = np.zeros(n, dtype=np.bool_)

    g_start, g_len, g_mispred, g_branches = [], [], [], []
    g_l1i_hits, g_l1i_misses, g_miss_off = [], [], []
    miss_pcs = []

    last_line = core._last_fetch_line
    i = 0
    trace_next = core.trace.__next__
    while i < n:
        start = i
        hits = misses = branches = 0
        wrong = False
        g_miss_off.append(len(miss_pcs))
        for _ in range(width):
            if i >= n:
                break
            try:
                inst = trace_next()
            except StopIteration:
                raise BatchFallback("trace ended inside the batch window")
            static = inst.static
            ipc = static.pc
            pc[i] = ipc
            op[i] = int(static.op)
            mem_addr[i] = inst.mem_addr
            if static.dest is not None:
                dest[i] = static.dest
            srcs = static.srcs
            ns = len(srcs)
            if ns > 2:
                raise BatchFallback("instruction with >2 sources")
            nsrcs[i] = ns
            if ns:
                src0[i] = srcs[0]
                if ns == 2:
                    src1[i] = srcs[1]
            # L1I: one access per line transition (scalar _fetch dedup)
            line = ipc >> 6
            if line != last_line:
                last_line = line
                tag = ipc >> l1i_shift
                ways = l1i_sets[tag & l1i_mask]
                if tag in ways:
                    hits += 1
                    if ways[-1] != tag:
                        ways.remove(tag)
                        ways.append(tag)
                else:
                    misses += 1
                    if len(ways) >= l1i_assoc:
                        del ways[0]
                    ways.append(tag)
                    miss_pcs.append(ipc)
            if static.is_branch and 0.0 < static.taken_prob < 1.0:
                branches += 1
                if bp.predict_and_update(ipc, inst.taken):
                    mispred[i] = True
                    wrong = True
            i += 1
            if wrong:
                break
        g_start.append(start)
        g_len.append(i - start)
        g_mispred.append(wrong)
        g_branches.append(branches)
        g_l1i_hits.append(hits)
        g_l1i_misses.append(misses)
    g_miss_off.append(len(miss_pcs))

    plan = StreamPlan()
    plan.n = n
    plan.pc = pc
    plan.op = op
    plan.mem_addr = mem_addr
    plan.dest = dest
    plan.src0 = src0
    plan.src1 = src1
    plan.nsrcs = nsrcs
    plan.mispredicted = mispred
    plan.g_start = np.asarray(g_start, dtype=np.int64)
    plan.g_len = np.asarray(g_len, dtype=np.int64)
    plan.g_mispred = np.asarray(g_mispred, dtype=np.bool_)
    plan.g_branches = np.asarray(g_branches, dtype=np.int64)
    plan.g_l1i_hits = np.asarray(g_l1i_hits, dtype=np.int64)
    plan.g_l1i_misses = np.asarray(g_l1i_misses, dtype=np.int64)
    plan.g_miss_off = np.asarray(g_miss_off, dtype=np.int64)
    plan.miss_pcs = np.asarray(miss_pcs, dtype=np.int64)
    return plan


def build_tapes(core, plan, measurement_seeds, vdd, start=0):
    """Per-lane fault tapes over ``plan``'s stream from position ``start``.

    Returns an ``(n_lanes, plan.n - start)`` int16 array of fault-stage
    bitmasks, exactly what the scalar run's ``injector.resolve`` would
    stamp on each dynamic instance from ``start`` on: reseeded from
    ``measurement_seed + 301`` (as ``begin_measurement`` does), or, for a
    ``None`` seed, on a copy of ``core``'s injector stream (on a cold
    core, the stream the warmup starts with).

    SAFE PCs take a short-circuit that consumes one RNG draw (the
    background-fault check) — bit-exact with ``resolve``, which skips the
    repeatability draw when the PC has no timing assignment. Critical PCs
    go through the real ``resolve`` on a scratch instance so the timing
    model's decision chain is shared, not re-implemented.
    """
    n_lanes = len(measurement_seeds)
    tapes = np.zeros((n_lanes, plan.n - start), dtype=np.int16)
    injector = core.injector
    if injector is None or not injector.enabled:
        return tapes
    program = core.program
    # a PC is critical when the injector assigned it a timing class
    timing = injector._pc_timing
    by_pc = {si.pc: (si.pc in timing, si) for si in program.static_insts}
    scratch = DynInst(0, program.static_insts[0])
    bg = injector._background_prob(vdd)
    # one (is_critical, static) pair per stream position, walked per lane
    walk = [by_pc[p] for p in plan.pc[start:].tolist()]
    saved_rng = injector._rng
    resolve = injector.resolve
    pick_stage = injector._pick_stage
    try:
        for lane, mseed in enumerate(measurement_seeds):
            rng = (copy.copy(saved_rng) if mseed is None
                   else random.Random(mseed + 301))
            injector._rng = rng
            rnd = rng.random
            row = tapes[lane]
            for i, (is_critical, static) in enumerate(walk):
                if is_critical:
                    scratch.static = static
                    scratch.pc = static.pc
                    scratch.fault_stages = 0
                    resolve(scratch, vdd)
                    if scratch.fault_stages:
                        row[i] = scratch.fault_stages
                elif rnd() < bg:
                    row[i] = 1 << int(pick_stage(static))
    finally:
        injector._rng = saved_rng
    return tapes
