"""Structure-of-arrays lockstep engine: N campaign draws per dispatch.

All lanes of a batch share one stream key: they fetch the identical
instruction stream from the same primed caches, whatever their scheme,
supply or clock; their schemes' mechanisms and their fault realizations
differ. This module exploits that: :func:`build_plan` flattens the cold
core's configuration, primed caches and its whole future stream (warmup
and window, :mod:`repro.uarch.batchstream`) into plain arrays that read
no scheme, and :class:`BatchEngine` lays out one row of machine state
per lane and hands the batch to the compiled kernel
(``batchkernel.c``, bound by :mod:`repro.uarch.batchkernel`), which
advances lanes in place. A lane's scheme is lane state, read from its
spec (:func:`scheme_scalars`). An engine holds one warmup key: it warms
that key's warmup lane, gives every lane of the key that lane's state
at the warmup boundary (:meth:`BatchEngine.fork`, the kernel-side
``begin_measurement``) and runs the window on all of them, so no lane is
warmed on the scalar core or forked from a snapshot. A batch of several
warmup keys runs one engine after another on the same plan.

The layout is driven by the kernel's ABI table
(:data:`~repro.uarch.batchkernel.ARRAYS`): every per-lane array starts as
the warmup lane's :func:`scheme_scalars` value, as a copy of the plan's
``<name>0`` row (or scalar), or as zeros when neither has it, and
every lane scalar named after a ``SimStats`` counter or a
``MemoryHierarchy.stats()`` key is exported under that name. Adding
per-lane state is one table entry.

The kernel is a transliteration of ``OoOCore.run`` (pipeline.py) for
the specs :func:`repro.snapshot.batch.batch_eligible` admits, which
decides every model limit from the spec. Each scheme's selection policy
is a kernel select mode (:data:`~repro.uarch.batchkernel.SEL_MODE`), and
CDS lanes count dependents at each result broadcast. Per-lane
divergence that it does not cover — safety-net replays, watchdog hangs,
running past the prepared stream — *evicts* the lane: it is marked dead
and the caller re-runs that seed on the scalar path, so correctness
never depends on the batch engine handling every corner. Data the
kernel cannot take (a cache tag wider than :data:`TAG_DTYPE`, a trace
that ends or has an instruction with more than two sources, an evicted
warmup lane) raises :class:`~repro.uarch.batchstream.BatchFallback`,
and the batch runs scalar lane by lane.

EP stalls use a virtual-time trick: a whole-pipeline stall shifts every
in-flight event by one cycle (``_shift_in_flight``), which means the
machine state is *invariant* in stall-excised time. The kernel therefore
burns all pending stalls in bulk at the top of each virtual cycle and
tracks them in a per-lane ``burned`` counter; real cycles are
``v + burned``.

Bit-identity with the scalar path is asserted by
``tests/snapshot/test_batch_equivalence.py`` over a scheme x vdd x lanes
grid and a generated sweep of every warmup, core and TEP field.
"""

import itertools

import numpy as np

from repro.core.policies import (
    CriticalityDrivenSelection, FaultyFirstSelection,
)
from repro.core.schemes import make_scheme
from repro.core.tep import TimingErrorPredictor
from repro.core.vte import vte_effects
from repro.faults.sensors import VoltageSensor
from repro.isa.opcodes import (
    OP_FU_KIND, OP_LATENCY, UNPIPELINED_OPS, OpClass, PipeStage,
)
from repro.mem.hierarchy import MemoryHierarchy
from repro.uarch import batchkernel
from repro.uarch.batchkernel import (
    ARRAYS, EVICTIONS, FREEZE_CODE, INF, PARAMS, SEL_MODE, TAG_DTYPE,
    by_role, call_kernel, role,
)
from repro.uarch.batchstream import BatchFallback, build_stream
from repro.uarch.config import CoreConfig
from repro.uarch.issue_queue import TIMESTAMP_MASK
from repro.uarch.pipeline import (
    HANG_CYCLES, INORDER_FAULT_MASK, default_cycle_budget,
)
from repro.uarch.stats import SimStats

#: the fallback reason of a window with a cache tag outside
#: :data:`~repro.uarch.batchkernel.TAG_DTYPE` (an address of 2**37 or
#: more at 64-byte lines)
TAG_OVERFLOW = f"cache tag beyond the kernel's {TAG_DTYPE} tag arrays"
#: the fallback reason of a batch whose warmup lane the kernel evicted,
#: followed by the eviction's own reason
WARMUP_EVICTED = "warmup lane evicted"

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
    """Lane-invariant flattening of one cold core + its stream.

    Slots are the engine's global instruction space: slot ``s`` is the
    ``s``-th instruction the core fetches from cycle 0 on, through the
    warmup and the window. Lanes index every per-slot array with their
    own commit/dispatch pointers. A plan reads no scheme, supply or
    clock, so every spec of one stream key may run on it.
    """

    # plain attribute bag; built only by build_plan
    pass


def build_plan(core, n_commits, margin=256):
    """Flatten ``core`` (cold: built and primed, no cycle run) for a batch.

    ``core`` is the cold core of a
    :func:`~repro.snapshot.batch.batch_eligible` spec, so its
    configuration is inside the kernel's model. ``n_commits`` is the
    commit budget of the whole trajectory, warmup plus window. The TEP
    lookup keys follow ``core.tep_config`` (set by
    :func:`~repro.harness.runner.build_core`; the default geometry when
    absent) whether or not ``core``'s scheme probes. Raises
    :class:`~repro.uarch.batchstream.BatchFallback` only for data outside
    the model (:data:`TAG_OVERFLOW`, or the trace limits of
    :func:`~repro.uarch.batchstream.build_stream`), and ``ValueError``
    for a core that has already run.
    """
    if core.cycle:
        raise ValueError(f"build_plan needs a cold core, not one at cycle "
                         f"{core.cycle}")
    cfg = core.config

    NS = int(n_commits) + int(margin)
    stream = build_stream(core, NS, cfg.width)

    plan = BatchPlan()
    plan.NS = NS
    # every lane starts live, with no forced eviction (a test hook sets
    # force_at), no branch resolve pending and every spare register free
    plan.active0 = True
    plan.force_at0 = -1
    plan.blk_resolve_v0 = INF
    plan.free_cnt0 = cfg.n_phys_regs - cfg.n_arch_regs
    plan.width = cfg.width
    plan.depth = cfg.frontend_depth
    plan.rob_size = cfg.rob_size
    plan.iq_size = cfg.iq_size
    plan.lsq_size = cfg.lsq_size
    plan.redirect_penalty = cfg.redirect_penalty
    plan.replay_recovery = cfg.replay_recovery
    plan.recovery_bubbles = cfg.recovery_bubbles
    plan.model_wrong_path = bool(cfg.model_wrong_path)
    plan.hang_cycles = HANG_CYCLES

    # ---- per-slot static arrays --------------------------------------
    lat_by_op = np.array([OP_LATENCY[OpClass(i)] for i in range(8)],
                         dtype=np.int64)
    fu_by_op = np.array([int(OP_FU_KIND[OpClass(i)]) for i in range(8)],
                        dtype=np.int64)
    plan.op_unpipelined = np.array(
        [OpClass(i) in UNPIPELINED_OPS for i in range(8)], dtype=bool
    )
    op = stream.op.astype(np.int64)
    is_load = op == _LOAD
    is_store = op == _STORE
    is_mem = is_load | is_store
    plan.op = op
    plan.mem_addr = stream.mem_addr
    plan.addr8 = stream.mem_addr >> 3
    plan.nsrcs = stream.nsrcs.astype(np.int64)
    plan.has_dest = (stream.dest >= 0).astype(np.int64)
    plan.cond_mispred = stream.mispredicted
    # dispatch timestamps: the cold issue queue counts from 0
    plan.ts = np.arange(NS, dtype=np.int64) & TIMESTAMP_MASK
    plan.pred0 = np.full(NS, -1, dtype=np.int8)
    plan.cec0 = np.full(NS, INF, dtype=np.int64)
    plan.lat = lat_by_op[op]
    plan.fu = fu_by_op[op]
    plan.is_load = is_load
    plan.is_store = is_store
    plan.is_mem = is_mem

    # prefix sums over slots: mem count, dest count, store count
    plan.M = np.concatenate(([0], np.cumsum(is_mem)))
    plan.HD = np.concatenate(([0], np.cumsum(plan.has_dest)))
    plan.SM = np.concatenate(([0], np.cumsum(is_store)))

    srank = np.full(NS, -1, dtype=np.int64)
    store_slots = np.nonzero(is_store)[0]
    srank[store_slots] = np.arange(len(store_slots))
    plan.srank = srank
    plan.n_stores = len(store_slots)
    plan.nst_alloc = max(plan.n_stores, 1)
    plan.st_addr8 = plan.addr8[store_slots]
    plan.store_resolve0 = np.full(plan.nst_alloc, INF, dtype=np.int64)

    # TEP lookup keys for every slot (pure PC hash: history_bits == 0),
    # read only by the lanes whose scheme probes; a cold entry has no tag
    # and no stage
    tep = TimingErrorPredictor(getattr(core, "tep_config", None))
    word = stream.pc >> 2
    plan.tepi = word & tep._index_mask
    plan.tept = (word >> 10) & tep._tag_mask
    plan.tep_n = tep.config.n_entries
    plan.tep_cmax = tep.config.counter_max
    plan.tep_tag0 = plan.tep_stage0 = np.full(plan.tep_n, -1, dtype=np.int64)
    (plan.T_RR, plan.T_EX, plan.T_MEM, plan.T_WB,
     plan.T_FRZ, plan.T_HAS) = _vte_tables()

    # ---- wake sources: the producing slot, or ALWAYS (index NS) for a
    # register the cold core holds ready --------------------------------
    plan.NW = NS + 1
    plan.wake0 = np.full(NS + 1, INF, dtype=np.int64)
    plan.wake0[NS] = -1
    last_writer = [NS] * cfg.n_arch_regs
    ws0 = [NS] * NS
    ws1 = [NS] * NS
    src1 = stream.src1.tolist()
    dest = stream.dest.tolist()
    for s, a0 in enumerate(stream.src0.tolist()):
        if a0 >= 0:
            ws0[s] = last_writer[a0]
            a1 = src1[s]
            if a1 >= 0:
                ws1[s] = last_writer[a1]
        if dest[s] >= 0:
            last_writer[dest[s]] = s
    plan.ws0 = np.array(ws0, dtype=np.int64)
    plan.ws1 = np.array(ws1, dtype=np.int64)

    # ---- fetch groups ------------------------------------------------
    plan.g_start = stream.g_start
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

    _plan_caches(plan, core.hierarchy)
    plan.stream = stream
    # the static code the stream runs: fault tapes resolve its PCs
    plan.program = core.program
    return plan


def _check_tags(lo, hi):
    """Fall back unless tags ``lo`` through ``hi`` fit :data:`TAG_DTYPE`.

    An explicit check: numpy 1.x wraps an out-of-range int silently.
    """
    info = np.iinfo(TAG_DTYPE)
    if lo < info.min or hi > info.max:
        raise BatchFallback(TAG_OVERFLOW)


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


def scheme_scalars(spec):
    """The lane scalars that ``spec``'s scheme, supply and clock decide.

    ``spec`` is :func:`~repro.snapshot.batch.batch_eligible`. A scheme
    with a timing predictor probes the TEP when the supply or the clock
    arms its sensor for the whole run (the core's static gate, the same
    :meth:`~repro.faults.sensors.VoltageSensor.statically_armed`), and a
    CDS lane marks only instructions that probed it at fetch.
    """
    scheme = make_scheme(spec.scheme)
    sensor = VoltageSensor(spec.vdd, overclocked=spec.overclock > 1.0)
    tep_probe = bool(scheme.uses_tep and sensor.statically_armed())
    config = spec.config or CoreConfig.core1()
    return {
        "tep_probe": tep_probe,
        "uses_vte": bool(scheme.uses_vte),
        "uses_ep_stall": bool(scheme.uses_ep_stall),
        "tolerates": bool(scheme.tolerates_predicted_faults),
        "sel_mode": SEL_MODE[
            "FFS" if isinstance(scheme.policy, FaultyFirstSelection)
            else "CDS" if isinstance(scheme.policy,
                                     CriticalityDrivenSelection)
            else "AGE"
        ],
        "crit_threshold": (
            config.criticality_threshold
            if scheme.detects_criticality and tep_probe else 0
        ),
    }


def _lane_scalars_named(names):
    return tuple(name for name in by_role("scalar") if name in names)


#: lane counters exported under their ``SimStats`` name, and the
#: d-side cache counters named as in ``MemoryHierarchy.stats()``
_STATS_ROWS = _lane_scalars_named(
    {name for name, value in vars(SimStats()).items() if type(value) is int}
)
_CACHE_ROWS = _lane_scalars_named(MemoryHierarchy().stats())
#: what the warmup boundary zeroes, as ``runner.begin_measurement`` does
_MEASURED = _STATS_ROWS + _CACHE_ROWS + (
    "stage_faults", "fu_op_counts", "fu_first",
)


class BatchEngine:
    """Fault-tape lanes of one warmup key, advanced by the compiled kernel.

    The engine starts as the key's one warmup lane (its
    :func:`scheme_scalars` and its seedless fault tape), warms it
    (:meth:`run`), continues as every lane of the key from that lane's
    state at the boundary (:meth:`fork`) and runs the window. All lanes
    share the plan's slot space and fetch-group schedule, and their
    scheme; their fault tapes from the boundary on (and everything
    downstream of them: timing, TEP state, d-side cache contents)
    differ. Every per-lane row is an attribute named after its entry in
    :data:`repro.uarch.batchkernel.ARRAYS`. A lane leaves the convoy only
    by *eviction* — the caller re-runs that seed on the scalar path.
    """

    def __init__(self, plan, tape, scalars):
        """One lane at cycle 0: ``tape`` (one fault mask per slot, copied)
        and ``scalars``, the lane's :func:`scheme_scalars`."""
        self.plan = plan
        self.N = 1
        self.params = {n: getattr(plan, n) for n in PARAMS
                       if n not in ("N", "target")}
        self.params["N"] = 1
        for name, dtype, shape in ARRAYS:
            if role(shape) == "plan" or name == "tape":
                continue
            row = getattr(plan, f"{name}0", None)
            if name in scalars:
                value = np.array([scalars[name]], dtype=dtype)
            elif row is None:
                extents = [batchkernel._extent(d, self.params) for d in shape]
                value = np.zeros(extents, dtype=dtype)
            elif role(shape) == "scalar":
                value = np.full(1, row, dtype=dtype)
            else:
                value = row[None].copy()
            setattr(self, name, value)
        self.tape = np.array(tape, dtype=np.int16, ndmin=2)
        self.evicted_reason = [None]
        #: per lane, the virtual cycle, burned stall cycles and fetch
        #: group at which its counters were last zeroed
        self._start = (np.zeros(1, dtype=np.int64),) * 3

    # ------------------------------------------------------------------
    def _evict(self, lane, reason):
        if self.evicted_reason[lane] is None:
            self.evicted_reason[lane] = reason
        self.active[lane] = False

    # ------------------------------------------------------------------
    def run(self, target, force_evict=None):
        """Advance every live lane until its commit counter reaches ``target``.

        One compiled-kernel call, in place on this engine's arrays. Each
        lane resumes where its last call stopped and stops at the top of
        the cycle after the one whose commits reach ``target``, where the
        scalar ``OoOCore.run(target)`` returns. Returns
        :meth:`_export`'s per-lane counters. ``force_evict`` maps lane ->
        cycle of this call; the lane is evicted at the top of that cycle
        (test hook for the divergence path). The caller has loaded the
        kernel (:func:`~repro.snapshot.batch.run_batch` checks first).
        """
        fn = batchkernel.load_kernel()
        # tapes carrying in-order-stage bits would hit the scalar
        # dispatch-side checks the kernel doesn't model
        bad = self.active & (self.tape & INORDER_FAULT_MASK).any(axis=1)
        for lane in np.nonzero(bad)[0].tolist():
            self._evict(lane, "in-order-stage fault on tape")
        for lane, at in (force_evict or {}).items():
            self.force_at[lane] = self.v_end[lane] + at
        # the scalar core's cycle budget, counted from the real cycle
        # each lane starts this call at
        self.max_cycles[:] = (self.v_end + self.burned
                              + default_cycle_budget(target))
        self.params["target"] = target
        arrays = {
            name: getattr(self.plan if role(shape) == "plan" else self, name)
            for name, _, shape in ARRAYS
        }
        call_kernel(fn, arrays, self.params)
        for lane in np.nonzero(self.evict_code)[0].tolist():
            self._evict(lane, EVICTIONS[int(self.evict_code[lane]) - 1][1])
        return self._export()

    # ------------------------------------------------------------------
    @property
    def first_unfetched(self):
        """Each lane's next slot to fetch: where a reseeded stream starts."""
        return np.append(self.plan.g_start, self.plan.NS)[self.g_ptr]

    def fork(self, n, tails):
        """Continue the warmup lane as ``n`` lanes.

        This is the warmup boundary: every lane row and lane scalar
        starts as the warmup lane's, and the counters
        ``begin_measurement`` resets (:data:`_MEASURED`) start again from
        zero. ``tails`` maps a lane to the tape it fetches from
        :attr:`first_unfetched` on, drawn from its own fault stream;
        every other lane keeps the warmup lane's tape.
        """
        first = int(self.first_unfetched[0])
        self.N = self.params["N"] = n
        for name in by_role("row") + by_role("scalar"):
            value = getattr(self, name)
            if name in _MEASURED:
                value = np.zeros((n,) + value.shape[1:], dtype=value.dtype)
            elif n != 1:
                value = np.repeat(value, n, axis=0)
            setattr(self, name, value)
        for lane, tail in tails.items():
            self.tape[lane, first:] = tail
        self.evicted_reason = [None] * n
        self._start = (self.v_end.copy(), self.burned.copy(),
                       self.g_ptr.copy())

    # ------------------------------------------------------------------
    def _export(self):
        """Per lane, ``(SimStats, cache counters)`` or None if evicted.

        The counters are the ones a scalar run ends with since its
        counters were last zeroed (:meth:`fork`): every lane scalar named
        after a ``SimStats`` counter (:data:`_STATS_ROWS`) or a cache
        counter (:data:`_CACHE_ROWS`) is copied under its name, cycles,
        writebacks and L1I counts are taken from that point on,
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
            v0, burned0, g0 = (int(start[lane]) for start in self._start)
            stats = SimStats()
            for name in _STATS_ROWS:
                setattr(stats, name, int(getattr(self, name)[lane]))
            ve = int(self.v_end[lane])
            stats.cycles = ve - v0 + int(self.burned[lane]) - burned0
            cec = self.cec[lane]
            stats.wb_writes = int(((cec >= v0) & (cec < ve)).sum())
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
                "l1i_hits": int(p.cum_l1i_hits[g] - p.cum_l1i_hits[g0]),
                "l1i_misses": int(p.cum_l1i_misses[g]
                                  - p.cum_l1i_misses[g0]),
            }
            for name in _CACHE_ROWS:
                cache[name] = int(getattr(self, name)[lane])
            out.append((stats, cache))
        return out
