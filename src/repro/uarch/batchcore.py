"""Structure-of-arrays lockstep engine: N campaign draws per dispatch.

All draws of one campaign point fork the same warmup snapshot and fetch
the identical instruction stream; only the injected timing faults differ
per measurement seed. This module exploits that: :func:`build_plan`
flattens the forked core's boundary state plus the shared future stream
(:mod:`repro.uarch.batchstream`) into plain arrays, and
:class:`BatchEngine` lays out one row of machine state per lane and
hands the whole batch to the compiled kernel (``batchkernel.c``, bound
by :mod:`repro.uarch.batchkernel`), which advances every lane to the end
of its window in place.

The layout is driven by the kernel's ABI table
(:data:`~repro.uarch.batchkernel.ARRAYS`): every per-lane array starts as
the plan's ``<name>0`` row (or scalar) broadcast to all lanes, or as
zeros when the plan has none, and every lane scalar named after a
``SimStats`` counter or a ``MemoryHierarchy.stats()`` key is exported
under that name. Adding per-lane state is one table entry.

The kernel is a transliteration of ``OoOCore.run`` (pipeline.py) under
the invariants the campaign path guarantees (selective replay mode, no
store-set predictor, no telemetry, static TEP gate). Per-lane divergence
that it does not cover — safety-net replays, watchdog hangs, running
past the prepared stream — *evicts* the lane: it is marked dead and the
caller re-runs that seed on the scalar path, so correctness never
depends on the batch engine handling every corner. A batch the engine
cannot take at all (no compiled kernel, a configuration outside the
model) raises :class:`~repro.uarch.batchstream.BatchFallback` and runs
scalar lane by lane.

EP stalls use a virtual-time trick: a whole-pipeline stall shifts every
in-flight event by one cycle (``_shift_in_flight``), which means the
machine state is *invariant* in stall-excised time. The kernel therefore
burns all pending stalls in bulk at the top of each virtual cycle and
tracks them in a per-lane ``burned`` counter; real cycles are
``v + burned``.

Bit-identity with the scalar path is asserted by
``tests/snapshot/test_batch_equivalence.py`` over a scheme x vdd x lanes
grid and a generated sweep of benchmarks, schemes and core geometries.
"""

import itertools

try:  # pragma: no cover - exercised on numpy-free installs
    import numpy as np
except Exception:  # pragma: no cover
    np = None

from repro.core.vte import vte_effects
from repro.isa.opcodes import (
    OP_FU_KIND, OP_LATENCY, UNPIPELINED_OPS, OpClass, PipeStage,
)
from repro.mem.hierarchy import MemoryHierarchy
from repro.uarch import batchkernel
from repro.uarch.batchkernel import (
    ARRAYS, EVICTIONS, FREEZE_CODE, INF, MAX_IQ, MAX_WIDTH, PARAMS, RING,
    SEL_MODE, TAG_DTYPE, by_role, call_kernel, role,
)
from repro.uarch.batchstream import BatchFallback, build_stream
from repro.uarch.issue_queue import TIMESTAMP_MASK
from repro.uarch.regfile import INFINITE as _SCOREBOARD_INF
from repro.uarch.stats import SimStats

#: fault-stage bits of the in-order stages, which the kernel does not model
_INORDER_MASK = 0b1000001111

#: the fallback reason of a window with a cache tag outside
#: :data:`~repro.uarch.batchkernel.TAG_DTYPE` (an address of 2**37 or
#: more at 64-byte lines)
TAG_OVERFLOW = f"cache tag beyond the kernel's {TAG_DTYPE} tag arrays"

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)

_VTE_TABLES = None


def _vte_tables():
    """(pred_stage+1, op) -> VTE effect tables, built once."""
    global _VTE_TABLES
    if _VTE_TABLES is None:
        rr = np.zeros((11, 8), dtype=np.int64)
        ex = np.zeros((11, 8), dtype=np.int64)
        mem = np.zeros((11, 8), dtype=np.int64)
        wb = np.zeros((11, 8), dtype=np.int64)
        frz = np.zeros((11, 8), dtype=np.int8)
        has = np.zeros((11, 8), dtype=np.int64)
        for pi in range(11):
            stage = None if pi == 0 else PipeStage(pi - 1)
            for o in range(8):
                eff = vte_effects(stage, OpClass(o))
                rr[pi, o] = eff.rr_extra
                ex[pi, o] = eff.ex_extra
                mem[pi, o] = eff.mem_extra
                wb[pi, o] = eff.wb_extra
                frz[pi, o] = FREEZE_CODE[eff.freeze]
                has[pi, o] = 0 if eff.stage is None else 1
        _VTE_TABLES = (rr, ex, mem, wb, frz, has)
    return _VTE_TABLES


class BatchPlan:
    """Lane-invariant flattening of one forked core + its future stream.

    Slots are the engine's global instruction space: ROB residents first
    (``[0, R)``, ascending age), then conveyor residents (``[R, P)``),
    then the prepared stream (``[P, NS)``). Lanes index every per-slot
    array with their own commit/dispatch pointers.
    """

    # plain attribute bag; built only by build_plan
    pass


def _fallback(cond, why):
    if cond:
        raise BatchFallback(why)


def build_plan(core, target, margin=256):
    """Flatten ``core`` (a forked, measurement-ready OoOCore) for a batch.

    ``target`` is the commit budget of the measured window. Raises
    :class:`~repro.uarch.batchstream.BatchFallback` whenever any piece of
    the boundary state or configuration falls outside the kernel's model.
    """
    _fallback(np is None, "numpy unavailable")
    cfg = core.config
    _fallback(
        cfg.iq_size > MAX_IQ or cfg.width > MAX_WIDTH,
        "IQ size or width beyond the kernel's static scratch",
    )
    scheme = core.scheme
    A0 = core.cycle

    _fallback(bool(core._refetch), "refetch queue not empty at boundary")
    _fallback(core._done_fetching, "trace exhausted at boundary")
    _fallback(core._dispatch_hold_until > A0, "in-order stall at boundary")
    _fallback(core._tep_gate == 2, "dynamic sensor gate")
    _fallback(core.cdl is not None, "criticality detection (CDS)")
    _fallback(core.memdep is not None, "store-set predictor")
    _fallback(not core._selective_mode, "flush-style replay mode")
    _fallback(core.ebus is not None, "telemetry event bus attached")
    _fallback(core.telemetry_sampler is not None, "telemetry sampler")
    _fallback(core.commit_listener is not None, "commit listener attached")
    _fallback(
        getattr(core.sensor, "thermal", None) is not None,
        "thermal-coupled sensor",
    )
    _fallback(
        core.injector is not None
        and type(core.injector).__name__ != "FaultInjector",
        "wrapped/chaos injector",
    )
    from repro.isa.opcodes import FuKind

    fu_counts = {k: len(v) for k, v in core.fus.units.items()}
    _fallback(
        fu_counts != {FuKind.SIMPLE: 2, FuKind.COMPLEX: 1, FuKind.MEM: 1},
        "non-core1 functional unit inventory",
    )
    hier = core.hierarchy
    for cache in (hier.l1i, hier.l1d, hier.l2):
        _fallback(not cache._pow2_sets, "non-power-of-two cache sets")

    policy_name = type(scheme.policy).__name__
    if policy_name == "AgeBasedSelection":
        sel_mode = SEL_MODE["EXACT" if scheme.policy.exact else "AGE"]
    elif policy_name == "FaultyFirstSelection":
        sel_mode = SEL_MODE["FFS"]
    else:
        raise BatchFallback(f"unsupported selection policy {policy_name}")

    # ---- slot space: ROB + conveyor + prepared stream -----------------
    rob_list = list(core.rob._entries)
    R = len(rob_list)
    conv_insts = []
    for latch in core._conveyor:
        conv_insts.extend(latch)
    conv_insts.sort(key=lambda i: i.seq)
    P = R + len(conv_insts)
    prelude = rob_list + conv_insts
    for a, b in zip(prelude, prelude[1:]):
        _fallback(a.seq >= b.seq, "non-monotonic prelude sequence")
    seq_slot = {inst.seq: s for s, inst in enumerate(prelude)}

    n_stream = int(target) + int(margin)
    stream = build_stream(core, n_stream, cfg.width)
    NS = P + n_stream

    plan = BatchPlan()
    plan.A0 = A0
    plan.R = R
    plan.P = P
    # every lane dispatches next from the first slot past the ROB, is
    # live, and has no forced eviction (a test hook sets force_at)
    plan.dp0 = R
    plan.active0 = True
    plan.force_at0 = -1
    plan.NS = NS
    plan.target = int(target)
    plan.width = cfg.width
    plan.depth = cfg.frontend_depth
    plan.rob_size = cfg.rob_size
    plan.iq_size = cfg.iq_size
    plan.lsq_size = cfg.lsq_size
    plan.redirect_penalty = cfg.redirect_penalty
    plan.replay_recovery = cfg.replay_recovery
    plan.recovery_bubbles = cfg.recovery_bubbles
    plan.model_wrong_path = bool(cfg.model_wrong_path)
    plan.tep_probe = bool(scheme.uses_tep and core._tep_gate == 0)
    plan.uses_vte = bool(scheme.uses_vte)
    plan.uses_ep_stall = bool(scheme.uses_ep_stall)
    plan.tolerates = bool(scheme.tolerates_predicted_faults)
    plan.sel_mode = sel_mode
    plan.max_cycles = 400 * int(target) + 20000
    plan.hang_cycles = 20000

    # ---- per-slot static arrays --------------------------------------
    lat_by_op = np.array([OP_LATENCY[OpClass(i)] for i in range(8)],
                         dtype=np.int64)
    fu_by_op = np.array([int(OP_FU_KIND[OpClass(i)]) for i in range(8)],
                        dtype=np.int64)
    plan.op_unpipelined = np.array(
        [OpClass(i) in UNPIPELINED_OPS for i in range(8)], dtype=bool
    )
    pc = np.zeros(NS, dtype=np.int64)
    op = np.zeros(NS, dtype=np.int64)
    mem_addr = np.zeros(NS, dtype=np.int64)
    nsrcs = np.zeros(NS, dtype=np.int64)
    has_dest = np.zeros(NS, dtype=np.int64)
    cond_mispred = np.zeros(NS, dtype=bool)
    ts = np.zeros(NS, dtype=np.int64)
    pred0 = np.full(NS, -1, dtype=np.int8)
    prelude_tape = np.zeros(P, dtype=np.int16)

    for s, inst in enumerate(prelude):
        pc[s] = inst.pc
        op[s] = int(inst.op)
        mem_addr[s] = inst.mem_addr
        nsrcs[s] = len(inst.static.srcs)
        has_dest[s] = 0 if inst.static.dest is None else 1
        cond_mispred[s] = inst.mispredicted
        if s < R:
            ts[s] = inst.dispatch_order & TIMESTAMP_MASK
        if inst.pred_fault_stage is not None:
            pred0[s] = int(inst.pred_fault_stage)
        prelude_tape[s] = inst.fault_stages
    _fallback(
        bool(prelude_tape[np.asarray(
            [(m & _INORDER_MASK) != 0 for m in prelude_tape.tolist()],
            dtype=bool)].size),
        "in-order-stage fault latched in prelude",
    )
    C0 = core.iq._dispatch_counter
    ts[R:] = (C0 + np.arange(NS - R, dtype=np.int64)) & TIMESTAMP_MASK

    pc[P:] = stream.pc
    op[P:] = stream.op
    mem_addr[P:] = stream.mem_addr
    nsrcs[P:] = stream.nsrcs
    has_dest[P:] = stream.dest >= 0
    cond_mispred[P:] = stream.mispredicted

    lat = lat_by_op[op]
    fu = fu_by_op[op]
    is_load = op == _LOAD
    is_store = op == _STORE
    is_mem = is_load | is_store

    plan.op = op
    plan.mem_addr = mem_addr
    plan.addr8 = mem_addr >> 3
    plan.nsrcs = nsrcs
    plan.has_dest = has_dest
    plan.cond_mispred = cond_mispred
    plan.ts = ts
    plan.pred0 = pred0
    plan.prelude_tape = prelude_tape
    plan.lat = lat
    plan.fu = fu
    plan.is_load = is_load
    plan.is_store = is_store
    plan.is_mem = is_mem

    # prefix sums over slots: mem count, dest count, store count
    plan.M = np.concatenate(([0], np.cumsum(is_mem)))
    plan.HD = np.concatenate(([0], np.cumsum(has_dest)))
    plan.SM = np.concatenate(([0], np.cumsum(is_store)))

    srank = np.full(NS, -1, dtype=np.int64)
    store_slots = np.nonzero(is_store)[0]
    srank[store_slots] = np.arange(len(store_slots))
    plan.srank = srank
    plan.n_stores = len(store_slots)
    plan.nst_alloc = max(plan.n_stores, 1)
    plan.st_addr8 = plan.addr8[store_slots]

    # TEP lookup keys for every slot (pure PC hash: history_bits == 0)
    if core._tep_gate == 0:
        imask = core.tep._index_mask
        tmask = core.tep._tag_mask
        word = pc >> 2
        plan.tepi = word & imask
        plan.tept = (word >> 10) & tmask
        plan.tep_n = core.tep.config.n_entries
        plan.tep_cmax = core.tep.config.counter_max
        tag0 = np.full(plan.tep_n, -1, dtype=np.int64)
        cnt0 = np.zeros(plan.tep_n, dtype=np.int64)
        stage0 = np.full(plan.tep_n, -1, dtype=np.int64)
        for i, e in enumerate(core.tep._entries):
            tag0[i] = e.tag
            cnt0[i] = e.counter
            if e.stage is not None:
                st = int(e.stage)
                _fallback(not 4 <= st <= 8,
                          "TEP entry with in-order stage")
                stage0[i] = st
        plan.tep_tag0 = tag0
        plan.tep_cnt0 = cnt0
        plan.tep_stage0 = stage0
    else:
        plan.tepi = np.zeros(NS, dtype=np.int64)
        plan.tept = np.zeros(NS, dtype=np.int64)
        plan.tep_n = plan.tep_cmax = 0
        plan.tep_tag0 = plan.tep_cnt0 = plan.tep_stage0 = np.zeros(
            0, dtype=np.int64
        )
    (plan.T_RR, plan.T_EX, plan.T_MEM, plan.T_WB,
     plan.T_FRZ, plan.T_HAS) = _vte_tables()

    # ---- wake-source indices (producer slots / scoreboard pseudo) ----
    n_phys = cfg.n_phys_regs
    NW = NS + n_phys + 1
    ALWAYS = NS + n_phys
    plan.NW = NW
    rename = core.rename
    wake0 = np.full(NW, INF, dtype=np.int64)
    wake0[ALWAYS] = -1
    for p in range(n_phys):
        rc = rename.ready_cycle[p]
        if rc < _SCOREBOARD_INF:
            wake0[NS + p] = rc - A0
    producer_slot = {}
    for s, inst in enumerate(rob_list):
        if inst.phys_dest >= 0:
            producer_slot[inst.phys_dest] = s

    def src_index(p):
        if rename.ready_cycle[p] < _SCOREBOARD_INF:
            return NS + p
        slot = producer_slot.get(p)
        _fallback(slot is None, "unissued source with no in-flight producer")
        return slot

    ws0 = np.full(NS, ALWAYS, dtype=np.int64)
    ws1 = np.full(NS, ALWAYS, dtype=np.int64)
    iq_slot0 = np.zeros(cfg.iq_size, dtype=np.int64)
    for pos, inst in enumerate(core.iq.entries):
        s = seq_slot.get(inst.seq)
        _fallback(s is None or s >= R, "IQ entry outside the ROB")
        iq_slot0[pos] = s
        srcs = inst.phys_srcs
        if srcs:
            ws0[s] = src_index(srcs[0])
            if len(srcs) == 2:
                ws1[s] = src_index(srcs[1])
    plan.iq_slot0 = iq_slot0
    plan.iq_len0 = len(core.iq.entries)

    last_writer = [src_index(rename.rat[a]) for a in range(cfg.n_arch_regs)]
    for s in range(R, NS):
        if s < P:
            static = prelude[s].static
            srcs = static.srcs
            _fallback(len(srcs) > 2, "conveyor instruction with >2 sources")
            if srcs:
                ws0[s] = last_writer[srcs[0]]
                if len(srcs) == 2:
                    ws1[s] = last_writer[srcs[1]]
            dest = static.dest
        else:
            j = s - P
            a0 = stream.src0[j]
            if a0 >= 0:
                ws0[s] = last_writer[a0]
                a1 = stream.src1[j]
                if a1 >= 0:
                    ws1[s] = last_writer[a1]
            dest = int(stream.dest[j])
            if dest < 0:
                dest = None
        if dest is not None:
            last_writer[dest] = s
    plan.ws0 = ws0
    plan.ws1 = ws1
    plan.wake0 = wake0

    _plan_boundary_state(plan, core, seq_slot, srank)
    _plan_stream_groups(plan, stream)
    _plan_caches(plan, hier)
    plan.stream = stream
    return plan


def _plan_boundary_state(plan, core, seq_slot, srank):
    """Flatten the forked core's in-flight state into plan arrays."""
    from repro.uarch.pipeline import _EV_COMPLETE, _EV_REPLAY, _EV_RESOLVE

    A0 = plan.A0
    NS = plan.NS
    R = plan.R

    cec0 = np.full(NS, INF, dtype=np.int64)
    rob_list = list(core.rob._entries)
    for s, inst in enumerate(rob_list):
        if inst.completed:
            cec0[s] = -1
    blk_resolve0 = INF
    for c, evs in core._events.items():
        vc = c - A0
        _fallback(vc < 0 or vc >= RING, "event outside schedulable horizon")
        for kind, inst, version in evs:
            if inst.squashed or inst.version != version:
                continue  # stale, a no-op when fired
            if kind == _EV_COMPLETE:
                s = seq_slot.get(inst.seq)
                _fallback(s is None, "completion event for unknown inst")
                cec0[s] = vc
            elif kind == _EV_RESOLVE:
                if core._blocking_branch == inst.seq:
                    blk_resolve0 = vc
            else:
                _fallback(kind == _EV_REPLAY, "replay event in flight")
                raise BatchFallback("unknown event kind")
    plan.cec0 = cec0

    if core._blocking_branch is not None:
        s = seq_slot.get(core._blocking_branch)
        _fallback(s is None, "blocking branch not among slots")
        inst = rob_list[s] if s < R else None
        if inst is None:
            # still in the conveyor: its RESOLVE is scheduled at issue
            for latch in core._conveyor:
                for cand in latch:
                    if cand.seq == core._blocking_branch:
                        inst = cand
        _fallback(inst is None, "blocking branch instruction lost")
        plan.blk_active0 = True
        plan.blk_fetch_abs0 = inst.fetch_cycle - A0
        plan.blk_resolve_v0 = blk_resolve0
    else:
        plan.blk_active0 = False
        plan.blk_fetch_abs0 = 0
        plan.blk_resolve_v0 = INF

    plan.epring0 = np.zeros(RING, dtype=np.int32)
    for c, n in core._ep_stalls.items():
        vc = c - A0
        _fallback(vc < 0 or vc >= RING, "EP stall outside horizon")
        plan.epring0[vc] = n
    plan.wbring0 = np.zeros(RING, dtype=np.int16)
    for c, n in core._wb_count.items():
        vc = c - A0
        _fallback(vc < 0 or vc >= RING, "WB reservation outside horizon")
        plan.wbring0[vc] = n

    from repro.isa.opcodes import FuKind

    units = core.fus.units
    plan.fu_ni0 = np.array(
        [
            units[FuKind.SIMPLE][0].next_issue - A0,
            units[FuKind.SIMPLE][1].next_issue - A0,
            units[FuKind.COMPLEX][0].next_issue - A0,
            units[FuKind.MEM][0].next_issue - A0,
        ],
        dtype=np.int64,
    )
    plan.free_cnt0 = len(core.rename.free_list)
    plan.resume_v0 = max(0, core._fetch_resume_at - A0)

    n_st = plan.n_stores
    sr0 = np.full(plan.nst_alloc, INF, dtype=np.int64)
    lsq_store_count = 0
    for entry in core.lsq._entries:
        inst = entry.inst
        s = seq_slot.get(inst.seq)
        _fallback(s is None or s >= R, "LSQ entry outside the ROB")
        if inst.is_store:
            lsq_store_count += 1
            if entry.resolve_cycle is not None:
                sr0[srank[s]] = entry.resolve_cycle - A0
    _fallback(
        lsq_store_count != int(plan.SM[R]),
        "ROB stores and LSQ stores disagree",
    )
    premax0 = np.zeros(plan.nst_alloc, dtype=np.int64)
    fr = 0
    pm = 0
    while fr < n_st and sr0[fr] < INF:
        pm = max(pm, int(sr0[fr]))
        premax0[fr] = pm
        fr += 1
    plan.store_resolve0 = sr0
    plan.premax0 = premax0
    plan.frontier0 = fr
    plan.pm_run0 = pm
    plan.lsq_occ0 = len(core.lsq._entries)

    plan.conv_start0 = np.zeros(plan.depth, dtype=np.int64)
    plan.conv_len0 = np.zeros(plan.depth, dtype=np.int64)
    for i, latch in enumerate(core._conveyor):
        if not latch:
            continue
        slots = [seq_slot[inst.seq] for inst in latch]
        start = slots[0]
        _fallback(
            slots != list(range(start, start + len(slots))),
            "conveyor latch is not a contiguous slot run",
        )
        plan.conv_start0[i] = start
        plan.conv_len0[i] = len(slots)


def _plan_stream_groups(plan, stream):
    """Fetch-group metadata, offset into global slot space."""
    P = plan.P
    plan.g_start = P + stream.g_start
    plan.g_len = stream.g_len
    plan.g_mispred = stream.g_mispred
    plan.g_branches = stream.g_branches
    plan.NG = len(stream.g_len)
    plan.cum_l1i_hits = np.concatenate(([0], np.cumsum(stream.g_l1i_hits)))
    plan.cum_l1i_misses = np.concatenate(([0], np.cumsum(stream.g_l1i_misses)))
    plan.g_miss_off = stream.g_miss_off
    plan.miss_pcs = stream.miss_pcs
    plan.n_miss = len(stream.miss_pcs)
    plan.g_has_miss = (stream.g_miss_off[1:] - stream.g_miss_off[:-1]) > 0


def _check_tags(lo, hi):
    """Fall back unless tags ``lo`` through ``hi`` fit :data:`TAG_DTYPE`.

    An explicit check: numpy 1.x wraps an out-of-range int silently.
    """
    info = np.iinfo(TAG_DTYPE)
    _fallback(lo < info.min or hi > info.max, TAG_OVERFLOW)


def _flat_sets(sets, nsets, assoc):
    """Materialize shared LRU set lists into flat (tags, count) arrays.

    Way order is preserved: index 0 is the LRU victim, the last filled
    index the MRU — the compiled kernel keeps the same ordering. Tags
    are :data:`TAG_DTYPE`; -1 marks an empty way.
    """
    cnt = np.fromiter(map(len, sets), dtype=np.int64, count=nsets)
    flat = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.int64,
                       count=int(cnt.sum()))
    if flat.size:
        _check_tags(int(flat.min()), int(flat.max()))
    tags = np.full((nsets, assoc), -1, dtype=TAG_DTYPE)
    # a boolean mask fills row-major: set by set, LRU way first
    tags[np.arange(assoc) < cnt[:, None]] = flat.astype(TAG_DTYPE)
    return tags, cnt


def _plan_caches(plan, hier):
    """Geometry and post-warmup contents of the shared d-side caches.

    Every tag the window can probe must fit :data:`TAG_DTYPE`: data
    addresses reach L1D and L2, the instruction-miss PCs L2.
    """
    probes = {"l1d": (plan.mem_addr,), "l2": (plan.mem_addr, plan.miss_pcs)}
    for name, cache in (("l1d", hier.l1d), ("l2", hier.l2)):
        for addrs in probes[name]:
            if addrs.size:
                _check_tags(int(addrs.min()) >> cache._line_shift,
                            int(addrs.max()) >> cache._line_shift)
        nsets = cache._set_mask + 1
        tags, cnt = _flat_sets(cache._sets, nsets, cache._assoc)
        setattr(plan, f"{name}_shift", cache._line_shift)
        setattr(plan, f"{name}_mask", cache._set_mask)
        setattr(plan, f"{name}_assoc", cache._assoc)
        setattr(plan, f"{name}_nsets", nsets)
        setattr(plan, f"{name}_tags0", tags)
        setattr(plan, f"{name}_cnt0", cnt)
    plan.lat_l1 = hier._lat_l1
    plan.lat_l2 = hier._lat_l2
    plan.lat_mem = hier._lat_mem


def _lane_scalars_named(names):
    return tuple(name for name in by_role("scalar") if name in names)


#: lane counters exported under their ``SimStats`` name, and the
#: d-side cache counters named as in ``MemoryHierarchy.stats()``
_STATS_ROWS = _lane_scalars_named(
    {name for name, value in vars(SimStats()).items() if type(value) is int}
)
_CACHE_ROWS = _lane_scalars_named(MemoryHierarchy().stats())


class BatchEngine:
    """N fault-tape lanes over one plan, advanced by the compiled kernel.

    All lanes share the plan's slot space and fetch-group schedule; only
    fault tapes (and everything downstream of them: timing, TEP state,
    d-side cache contents) differ. Every per-lane row is an attribute
    named after its entry in :data:`repro.uarch.batchkernel.ARRAYS`. A
    lane leaves the convoy only by *eviction* — the caller re-runs that
    seed on the scalar path.
    """

    def __init__(self, plan, stream_tapes):
        self.plan = plan
        N = self.N = stream_tapes.shape[0]
        self.params = {n: getattr(plan, n) for n in PARAMS if n != "N"}
        self.params["N"] = N
        for name, dtype, shape in ARRAYS:
            if role(shape) == "plan" or name == "tape":
                continue
            row = getattr(plan, f"{name}0", None)
            if row is None:
                extents = [batchkernel._extent(d, self.params) for d in shape]
                value = np.zeros(extents, dtype=dtype)
            elif role(shape) == "scalar":
                value = np.full(N, row, dtype=dtype)
            else:
                value = np.repeat(row[None], N, axis=0)
            setattr(self, name, value)
        self.tape = np.concatenate(
            (np.broadcast_to(plan.prelude_tape, (N, plan.P)), stream_tapes),
            axis=1,
        )
        self.evicted_reason = [None] * N

    # ------------------------------------------------------------------
    def _evict(self, lane, reason):
        if self.evicted_reason[lane] is None:
            self.evicted_reason[lane] = reason
        self.active[lane] = False

    # ------------------------------------------------------------------
    def _run_kernel(self, fn, force_evict):
        """Advance every lane to completion with one compiled-kernel call.

        The kernel mutates this engine's own arrays in place, so
        :meth:`_export` (and tests poking at engine state) read the
        results straight from them.
        """
        for lane, at in force_evict.items():
            self.force_at[lane] = at
        arrays = {
            name: getattr(self.plan if role(shape) == "plan" else self, name)
            for name, _, shape in ARRAYS
        }
        call_kernel(fn, arrays, self.params)
        for lane in np.nonzero(self.evict_code)[0].tolist():
            self._evict(lane, EVICTIONS[int(self.evict_code[lane]) - 1][1])
        self.active[:] = False  # every lane either finished or evicted

    # ------------------------------------------------------------------
    def run(self, force_evict=None):
        """Advance all lanes to completion; returns per-lane counters.

        Each entry is :meth:`_export`'s ``(SimStats, cache counters)``
        pair, or ``None`` for an evicted lane. ``force_evict`` maps lane
        -> virtual cycle; the lane is evicted at the top of that cycle
        (test hook for the divergence path). Raises
        :class:`~repro.uarch.batchstream.BatchFallback` when the compiled
        kernel is unavailable.
        """
        fn = batchkernel.load_kernel()
        if fn is None:
            raise BatchFallback("compiled batch kernel unavailable")
        # tapes carrying in-order-stage bits would hit the scalar
        # dispatch-side checks the kernel doesn't model
        bad = np.nonzero((self.tape & _INORDER_MASK).any(axis=1))[0]
        for lane in bad.tolist():
            self._evict(lane, "in-order-stage fault on tape")
        self._run_kernel(fn, dict(force_evict or {}))
        return self._export()

    # ------------------------------------------------------------------
    def _export(self):
        """Per lane, ``(SimStats, cache counters)`` or None if evicted.

        The counters are the ones a scalar run of the same window ends
        with: every lane scalar named after a ``SimStats`` counter
        (:data:`_STATS_ROWS`) or a cache counter (:data:`_CACHE_ROWS`) is
        copied under its name,
        ``fu_ops`` is keyed in first-issue order (the order the scalar
        core inserts, which the energy sum follows), and every field the
        kernel does not model keeps its ``SimStats`` zero.
        """
        p = self.plan
        out = []
        for lane in range(self.N):
            if self.evicted_reason[lane] is not None:
                out.append(None)
                continue
            stats = SimStats()
            for name in _STATS_ROWS:
                setattr(stats, name, int(getattr(self, name)[lane]))
            ve = int(self.v_end[lane])
            stats.cycles = ve + int(self.burned[lane])
            cec = self.cec[lane]
            stats.wb_writes = int(((cec >= 0) & (cec < ve)).sum())
            stats.stage_faults = {
                PipeStage(st): n
                for st, n in enumerate(self.stage_faults[lane].tolist())
                if n
            }
            first = self.fu_first[lane].tolist()
            counts = self.fu_op_counts[lane].tolist()
            stats.fu_ops = {
                OpClass(o): counts[o]
                for o in sorted(range(8), key=first.__getitem__)
                if first[o]
            }
            g = int(self.g_ptr[lane])
            cache = {
                "l1i_hits": int(p.cum_l1i_hits[g]),
                "l1i_misses": int(p.cum_l1i_misses[g]),
            }
            for name in _CACHE_ROWS:
                cache[name] = int(getattr(self, name)[lane])
            out.append((stats, cache))
        return out
