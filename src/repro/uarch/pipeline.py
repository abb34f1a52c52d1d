"""The cycle-level out-of-order core (Figure 1 of the paper).

Model summary
-------------
Trace-driven, event-assisted, one loop iteration per cycle:

1. **EP stall check** — under the Error Padding scheme, a pending stall
   freezes the entire pipeline for the cycle (every in-flight event shifts
   by one).
2. **Events** — completions (ROB complete + writeback), branch resolutions
   (front-end redirect), and replays (Razor-style recovery for violations
   the active scheme does not tolerate).
3. **Commit** — up to ``width`` completed head instructions retire; stores
   drain to the data cache; the TEP trains on observed outcomes.
4. **Select/issue** — operand-ready issue-queue entries are ordered by the
   scheme's selection policy and issued against FU availability (the FUSR).
   The full timing chain of the instruction (register read, execute, memory,
   writeback) is computed here; VTE effects insert the per-stage extra cycle
   and freeze the resource behind a predicted-faulty instruction.
5. **Front end** — a ``frontend_depth``-stage conveyor from fetch to
   dispatch; fetch follows the trace with a gshare predictor (no wrong-path
   execution: a mispredicted branch blocks fetch until it resolves).

Timing chain (select at cycle ``c``, clean instruction):
register read at ``c+1``; execute ``c+2 .. c+1+lat``; dependents wake at
``c+lat`` (bypass: back-to-back for single-cycle ops); writeback/complete
at ``c+2+lat`` through a ``width``-lane writeback arbiter. Loads insert the
memory stage: address generation at ``c+2``, LSQ CAM search and cache
access after, dependents wake when data returns (non-speculative wakeup).
"""

from collections import deque
from operator import itemgetter

from repro.isa.opcodes import PipeStage, UNPIPELINED_OPS
from repro.core.criticality import CriticalityDetector
from repro.core.vte import FreezeKind, vte_effects
from repro.uarch.branch_predictor import GShare
from repro.uarch.functional_units import FuPool
from repro.uarch.issue_queue import IssueQueue, TIMESTAMP_MASK
from repro.uarch.lsq import LoadStoreQueue
from repro.uarch.memdep import StoreSetPredictor
from repro.uarch.regfile import INFINITE as _WAKE_UNKNOWN
from repro.uarch.regfile import RenameState
from repro.uarch.rob import ReorderBuffer
from repro.uarch.stats import SimStats

# event kinds, processed in this order within a cycle
_EV_COMPLETE = 0
_EV_RESOLVE = 1
_EV_REPLAY = 2

_EV_KIND = itemgetter(0)

_INORDER_STALL_STAGES = (PipeStage.RENAME, PipeStage.DISPATCH, PipeStage.RETIRE)
_REPLAY_ONLY_STAGES = (PipeStage.FETCH, PipeStage.DECODE)

# (stage, mask bit) pairs checked at issue, in pipeline order
_ISSUE_FAULT_STAGES = tuple(
    (stage, 1 << int(stage))
    for stage in (PipeStage.ISSUE, PipeStage.REGREAD, PipeStage.EXECUTE,
                  PipeStage.MEM, PipeStage.WRITEBACK)
)
_INORDER_FAULT_STAGES = tuple(
    (stage, 1 << int(stage))
    for stage in _REPLAY_ONLY_STAGES + _INORDER_STALL_STAGES
)
#: the fault-stage bits of the in-order stages, front end and retire
INORDER_FAULT_MASK = sum(bit for _, bit in _INORDER_FAULT_STAGES)

#: cycles without a commit after which :meth:`OoOCore.run` gives up
HANG_CYCLES = 20000


def default_cycle_budget(max_committed):
    """The cycles :meth:`OoOCore.run` allows for ``max_committed``."""
    return 400 * max_committed + 20000


class DeadlockError(RuntimeError):
    """Raised when the pipeline makes no progress for too long."""


class SimulationHangError(DeadlockError):
    """No-commit-progress watchdog fired (deadlock/livelock).

    Carries everything needed to diagnose the hang without re-running:
    the cycle it fired, commit progress against the budget, how long the
    commit stream had been silent, and the occupancy of every queueing
    structure (ROB/IQ/LSQ/FUs/front end) at that moment.
    """

    def __init__(self, message, cycle=None, committed=None, target=None,
                 stalled_cycles=None, occupancy=None):
        super().__init__(message)
        self.cycle = cycle
        self.committed = committed
        self.target = target
        self.stalled_cycles = stalled_cycles
        self.occupancy = occupancy or {}

    def detail(self):
        """Deterministic JSON-safe description (bundle ``failure.detail``)."""
        return {
            "cycle": self.cycle,
            "committed": self.committed,
            "target": self.target,
            "stalled_cycles": self.stalled_cycles,
            "occupancy": self.occupancy,
            "message": str(self),
        }

    def __reduce__(self):
        # keep structured fields across multiprocessing pickling
        return (_rebuild_hang, (str(self), self.cycle, self.committed,
                                self.target, self.stalled_cycles,
                                self.occupancy))


def _rebuild_hang(message, cycle, committed, target, stalled_cycles,
                  occupancy):
    return SimulationHangError(message, cycle, committed, target,
                               stalled_cycles, occupancy)


class OoOCore:
    """A 4-wide out-of-order core with violation-aware scheduling hooks.

    Parameters
    ----------
    config:
        A :class:`~repro.uarch.config.CoreConfig`.
    trace:
        Iterator of :class:`~repro.isa.instruction.DynInst` in fetch order.
    hierarchy:
        A :class:`~repro.mem.hierarchy.MemoryHierarchy`.
    scheme:
        A :class:`~repro.core.schemes.Scheme` (fault handling + policy).
    injector:
        A :class:`~repro.faults.injector.FaultInjector` or ``None`` for
        fault-free runs.
    tep:
        A :class:`~repro.core.tep.TimingErrorPredictor`; required when the
        scheme uses prediction.
    sensor:
        A :class:`~repro.faults.sensors.VoltageSensor` gating predictions.
    vdd:
        Operating supply voltage (passed to the injector).
    """

    def __init__(self, config, trace, hierarchy, scheme, injector=None,
                 tep=None, sensor=None, vdd=1.10):
        if scheme.uses_tep and tep is None:
            raise ValueError(f"scheme {scheme.name} requires a TEP instance")
        self.config = config
        self.trace = iter(trace)
        self.hierarchy = hierarchy
        self.scheme = scheme
        self.injector = injector
        self.tep = tep
        self.sensor = sensor
        self.vdd = vdd
        self.stats = SimStats()
        #: optional hook called with each retired DynInst, in commit
        #: order (used by the lockstep checker and the pipetrace viewer)
        self.commit_listener = None
        #: opt-in telemetry (repro.telemetry): a structured EventBus and
        #: a cycle-windowed IntervalSampler. Disabled (None) they cost
        #: one attribute check at each rare hook site and one integer
        #: compare per cycle in the run loop.
        self.ebus = None
        self.telemetry_sampler = None

        self.rename = RenameState(config.n_arch_regs, config.n_phys_regs)
        self.rob = ReorderBuffer(config.rob_size)
        self.iq = IssueQueue(config.iq_size)
        self.lsq = LoadStoreQueue(config.lsq_size)
        self.fus = FuPool(config.fu_counts)
        self.bp = GShare(config.bp_table_bits, config.bp_history_bits)
        self.cdl = (
            CriticalityDetector(tep, config.criticality_threshold)
            if scheme.detects_criticality
            else None
        )
        self.memdep = (
            StoreSetPredictor()
            if config.mem_dependence == "store_sets"
            else None
        )

        self.cycle = 0
        # per-run constants hoisted off the per-cycle/per-instruction paths
        self._width = config.width
        self._uses_tep = scheme.uses_tep
        self._uses_vte = scheme.uses_vte
        self._uses_ep_stall = scheme.uses_ep_stall
        self._tolerates_pred = scheme.tolerates_predicted_faults
        self._selective_mode = config.replay_mode == "selective"
        self._replay_recovery = config.replay_recovery
        self._order_ready = scheme.policy.order_ready
        self._load_gate_fn = self._load_gate if self.memdep is not None else None
        self.rebind_mechanisms()
        self._events = {}           # cycle -> [(kind, inst), ...]
        self._wb_count = {}         # cycle -> reserved writeback lanes
        self._ep_stalls = {}        # cycle -> pending whole-pipeline stalls
        self._conveyor = [[] for _ in range(config.frontend_depth)]
        self._refetch = deque()
        self._fetch_resume_at = 0
        self._blocking_branch = None   # seq of unresolved mispredicted branch
        self._dispatch_hold_until = 0  # in-order fault stall (Section 2.2)
        self._done_fetching = False
        self._last_fetch_line = -1

    def rebind_mechanisms(self):
        """Re-latch the per-run bindings derived from ``tep``/``sensor``.

        ``__init__`` computes the TEP gate and the fused-lookup binding
        once so the fetch path never re-derives them. Measurement-boundary
        wrapping (storm chaos around the injector/sensor/TEP — see
        :func:`repro.harness.runner.begin_measurement`) swaps those
        objects *after* construction, so it calls this to recompute the
        latches — and the criticality detector's TEP reference — against
        the wrapped instances.
        """
        tep = self.tep
        sensor = self.sensor
        scheme = self.scheme
        # fused predict+key probe when the predictor implementation has one
        self._tep_lookup = getattr(tep, "predict_or_key", None)
        if not scheme.uses_tep:
            self._tep_gate = 1      # never armed
        elif sensor is None:
            self._tep_gate = 0      # unconditionally armed
        elif getattr(sensor, "dynamic", False):
            self._tep_gate = 2      # flaky/storm sensor: ask per fetch
        elif sensor.statically_armed():
            self._tep_gate = 0      # statically armed for the whole run
        elif sensor.thermal is None:
            self._tep_gate = 1      # statically unfavorable
        else:
            self._tep_gate = 2      # thermal-dependent: ask per fetch
        if self.cdl is not None:
            self.cdl.tep = tep

    # ==================================================================
    # public API
    # ==================================================================
    def run(self, max_committed, max_cycles=None, hang_cycles=HANG_CYCLES):
        """Simulate until ``max_committed`` instructions retire.

        Returns the :class:`~repro.uarch.stats.SimStats` of the run.
        Two watchdogs guard against a wedged machine: ``hang_cycles``
        without a single commit (deadlock/livelock — the common failure
        shape) and ``max_cycles`` in this call, counted from the cycle it
        starts at (default: a generous multiple of the budget; backstop
        for pathological-but-progressing runs). Both raise
        :class:`SimulationHangError` with a full occupancy snapshot of
        the queueing structures.
        """
        if max_committed <= 0:
            raise ValueError("max_committed must be positive")
        if max_cycles is None:
            max_cycles = default_cycle_budget(max_committed)
        last_cycle = self.cycle + max_cycles
        stats = self.stats
        progress_committed = stats.committed
        progress_cycle = self.cycle
        sampler, sample_due, thermal = self._latch_observers()
        # bind bound methods and stable sub-objects once: the loop below
        # runs once per simulated cycle. Dict-valued state
        # (``_events``/``_ep_stalls``/``_wb_count``) is rebound wholesale
        # by ``_shift_in_flight`` and must be read through ``self``.
        consume_ep_stall = self._consume_ep_stall
        process_events = self._process_events
        commit = self._commit
        select = self._select
        dispatch = self._dispatch
        fetch = self._fetch
        iq = self.iq
        rob_entries = self.rob._entries  # deque, mutated in place only
        conveyor = self._conveyor
        depth = len(conveyor)
        while stats.committed < max_committed:
            cycle = self.cycle
            if not cycle & 1023:
                # re-latch every 1024 cycles: an observer attached
                # mid-window takes effect within 1024 cycles
                sampler, sample_due, thermal = self._latch_observers()
            if cycle >= sample_due:
                sample_due = sampler.sample(self, cycle)
            if thermal is not None and not cycle & 127:
                thermal.advance(128)
            if cycle > last_cycle:
                raise self._hang_error(
                    "cycle budget exhausted", max_committed,
                    cycle - progress_cycle,
                )
            # commit watchdog, sampled every 1024 cycles to stay off the
            # hot path (a real hang is detected within hang_cycles + 1023)
            if not cycle & 1023:
                committed = stats.committed
                if committed != progress_committed:
                    progress_committed = committed
                    progress_cycle = cycle
                elif cycle - progress_cycle >= hang_cycles:
                    raise self._hang_error(
                        "commit watchdog", max_committed,
                        cycle - progress_cycle,
                    )
            if self._ep_stalls and consume_ep_stall():
                stats.cycles += 1
                self.cycle = cycle + 1
                continue
            events = self._events.pop(cycle, None)
            if events:
                process_events(events)
            if rob_entries and rob_entries[0].completed:
                commit()
            if iq.entries:
                select()
            # front end: dispatch from the tail latch, advance the
            # conveyor, fetch into a free head latch (conveyor slots are
            # swapped in place, so index every cycle)
            if conveyor[-1]:
                dispatch()
            for i in range(depth - 1, 0, -1):
                if not conveyor[i]:
                    conveyor[i], conveyor[i - 1] = conveyor[i - 1], conveyor[i]
            if (
                not conveyor[0]
                and self._blocking_branch is None
                and cycle >= self._fetch_resume_at
            ):
                fetch(conveyor[0])
            stats.iq_occupancy_accum += len(iq.entries)
            self._wb_count.pop(cycle, None)
            stats.cycles += 1
            self.cycle = cycle + 1
            if self._done_fetching and self._drained():
                break
        stats.lsq_searches = self.lsq.cam_searches
        stats.store_forwards = self.lsq.forwards
        return stats

    def _latch_observers(self):
        """The run loop's observers: ``(sampler, sample_due, thermal)``.

        Interval-metrics sampling costs one int-vs-inf compare per cycle
        when no sampler is attached (see :mod:`repro.telemetry.metrics`).
        """
        sampler = self.telemetry_sampler
        sample_due = (
            sampler.next_cycle if sampler is not None else float("inf")
        )
        return sampler, sample_due, getattr(self.sensor, "thermal", None)

    def occupancy(self):
        """Occupancy of every queueing structure (hang diagnostics)."""
        cycle = self.cycle
        fus_busy = {
            kind.name: sum(1 for u in units if u.next_issue > cycle)
            for kind, units in self.fus.units.items()
        }
        return {
            "cycle": cycle,
            "rob": len(self.rob),
            "iq": len(self.iq.entries),
            "lsq": len(self.lsq),
            "fus_busy": fus_busy,
            "conveyor": sum(len(latch) for latch in self._conveyor),
            "refetch": len(self._refetch),
            "pending_events": sum(len(e) for e in self._events.values()),
            "pending_ep_stalls": sum(self._ep_stalls.values()),
            "blocking_branch": self._blocking_branch,
            "fetch_resume_at": self._fetch_resume_at,
            "dispatch_hold_until": self._dispatch_hold_until,
            "done_fetching": self._done_fetching,
        }

    def _hang_error(self, reason, max_committed, stalled_cycles):
        committed = self.stats.committed
        occupancy = self.occupancy()
        if self.ebus is not None:
            self.ebus.emit(
                self.cycle, "watchdog", reason=reason, committed=committed,
                target=max_committed, stalled_cycles=stalled_cycles,
            )
        return SimulationHangError(
            f"{reason}: no commit for {stalled_cycles} cycles at "
            f"cycle={self.cycle}, committed={committed}/{max_committed}, "
            f"rob={occupancy['rob']}, iq={occupancy['iq']}, "
            f"lsq={occupancy['lsq']}",
            cycle=self.cycle,
            committed=committed,
            target=max_committed,
            stalled_cycles=stalled_cycles,
            occupancy=occupancy,
        )

    # ==================================================================
    # EP global stall (Error Padding baseline)
    # ==================================================================
    def _consume_ep_stall(self):
        pending = self._ep_stalls.get(self.cycle)
        if not pending:
            return False
        if pending == 1:
            del self._ep_stalls[self.cycle]
        else:
            self._ep_stalls[self.cycle] = pending - 1
        self._shift_in_flight()
        self.stats.ep_stalls += 1
        return True

    def _shift_in_flight(self):
        """Delay everything in flight by one cycle (whole-pipeline stall)."""
        now = self.cycle
        self._events = {
            (c + 1 if c >= now else c): evs for c, evs in self._events.items()
        }
        self._ep_stalls = {
            (c + 1 if c >= now else c): n for c, n in self._ep_stalls.items()
        }
        self._wb_count = {
            (c + 1 if c >= now else c): n for c, n in self._wb_count.items()
        }
        self.rename.shift_pending(now - 1)
        self.fus.shift_pending(now)
        # wake-cycle probe caches (issue_queue.ready_entries) latch absolute
        # cycles; the shifted scoreboard invalidates every cached value
        for inst in self.iq.entries:
            inst.wake = _WAKE_UNKNOWN
        if self._fetch_resume_at > now:
            self._fetch_resume_at += 1
        if self._dispatch_hold_until > now:
            self._dispatch_hold_until += 1

    # ==================================================================
    # events
    # ==================================================================
    def _schedule(self, cycle, kind, inst):
        events = self._events
        lst = events.get(cycle)
        if lst is None:
            events[cycle] = [(kind, inst, inst.version)]
        else:
            lst.append((kind, inst, inst.version))

    def _process_events(self, events):
        if len(events) > 1:
            events.sort(key=_EV_KIND)
        stats = self.stats
        cycle = self.cycle
        for kind, inst, version in events:
            if inst.squashed or inst.version != version:
                continue  # stale: the instruction was squashed/re-injected
            if kind == _EV_COMPLETE:
                inst.completed = True
                inst.complete_cycle = cycle
                stats.wb_writes += 1
            elif kind == _EV_RESOLVE:
                if self._blocking_branch == inst.seq:
                    self._blocking_branch = None
                    self._fetch_resume_at = max(
                        self._fetch_resume_at,
                        self.cycle + self.config.redirect_penalty,
                    )
                    if self.config.model_wrong_path:
                        # the front end fetched down the wrong path from
                        # the cycle after the branch until the redirect
                        wasted_cycles = max(
                            0, self.cycle - inst.fetch_cycle - 1
                        )
                        self.stats.wrong_path_fetched += (
                            wasted_cycles * self.config.width
                        )
            elif kind == _EV_REPLAY:
                if inst.commit_cycle < 0:
                    self._replay(inst)

    # ==================================================================
    # commit
    # ==================================================================
    def _commit(self):
        stats = self.stats
        cycle = self.cycle
        rename_commit = self.rename.commit
        lsq_retire = self.lsq.retire
        store_access = self.hierarchy.access_data_latency
        train_tep = self._train_tep
        listener = self.commit_listener
        ebus = self.ebus
        for inst in self.rob.commit_ready(self._width):
            rename_commit(inst)
            if inst.is_mem:
                lsq_retire(inst)
                if inst.is_store:
                    store_access(inst.mem_addr)
            if inst.phys_dest >= 0:
                stats.regwrites += 1
            inst.commit_cycle = cycle
            stats.committed += 1
            train_tep(inst)
            if listener is not None:
                listener(inst)
            if ebus is not None:
                ebus.emit(
                    cycle, "retire", seq=inst.seq, pc=inst.pc,
                    op=inst.op.name, fetch=inst.fetch_cycle,
                    dispatch=inst.dispatch_cycle, issue=inst.issue_cycle,
                    complete=inst.complete_cycle,
                    faulty=inst.replayed or bool(inst.fault_stages),
                    predicted=inst.pred_fault_stage is not None,
                )

    def _train_tep(self, inst):
        """Train the predictor on the instruction's observed outcome."""
        if not self._uses_tep or inst.replayed:
            # replayed instances trained at detection time (Section 2.1.2)
            return
        key = inst.tep_key
        if key is None:
            if self.tep is None:
                return
            key = self.tep.key_for(inst.pc, self.bp.ghr)
        faulted_stage = self._earliest_fault_stage(inst)
        if faulted_stage is not None:
            self.tep.train(key, faulted_stage, True)
        elif inst.pred_fault_stage is not None:
            self.stats.false_predictions += 1
            self.tep.train(key, None, False)
        else:
            return
        ebus = self.ebus
        if ebus is not None:
            ebus.emit(
                self.cycle, "tep_train", seq=inst.seq, pc=inst.pc,
                stage=(
                    faulted_stage.name if faulted_stage is not None else None
                ),
                positive=faulted_stage is not None,
            )

    @staticmethod
    def _earliest_fault_stage(inst):
        if not inst.fault_stages:
            return None
        mask = inst.fault_stages
        for stage in PipeStage:
            if mask & (1 << int(stage)):
                return stage
        return None

    # ==================================================================
    # select / issue (the OoO engine)
    # ==================================================================
    def _load_gate(self, inst):
        """Store-set gate: wait only for a predicted-conflicting store."""
        wait_seq = self.memdep.must_wait_for(inst.pc, inst.seq)
        if wait_seq is None:
            return True
        return not self.lsq.unresolved(wait_seq, self.cycle)

    def _select(self):
        iq = self.iq
        if not iq.entries:
            return
        cycle = self.cycle
        ready = iq.ready_entries(cycle, self.rename, self.lsq, self._load_gate_fn)
        if not ready:
            return
        # order_ready exploits that the ready list is already age-ordered
        # (see SelectionPolicy.order_ready) and avoids the full sort
        ordered = self._order_ready(ready, iq)
        width = self._width
        units = self.fus.units
        issue = self._issue
        issued = 0
        for inst in ordered:
            for unit in units[inst.fu_kind]:
                if unit.next_issue <= cycle:
                    issue(inst, unit)
                    issued += 1
                    break
            if issued >= width:
                break

    def _issue(self, inst, unit):
        """Issue one instruction: timing chain, VTE effects, fault events."""
        cycle = self.cycle
        stats = self.stats
        inst.issue_cycle = cycle
        # iq.remove, inlined
        self.iq.entries.remove(inst)
        inst.in_iq = False
        stats.issued += 1
        stats.regreads += len(inst.phys_srcs)
        op = inst.op
        fu_ops = stats.fu_ops  # count_fu_op, inlined
        fu_ops[op] = fu_ops.get(op, 0) + 1
        ebus = self.ebus

        # -- prediction handling ---------------------------------------
        pred_stage = inst.pred_fault_stage
        effects = None
        if pred_stage is not None and self._uses_vte:
            effects = vte_effects(pred_stage, op)
            if effects.stage is not None:
                stats.padded_instructions += 1
                if ebus is not None:
                    ebus.emit(
                        cycle, "vte_pad", seq=inst.seq, pc=inst.pc,
                        stage=pred_stage.name,
                    )
            rr_extra = effects.rr_extra
            ex_extra = effects.ex_extra
            mem_extra = effects.mem_extra
            wb_extra = effects.wb_extra
        else:
            rr_extra = ex_extra = mem_extra = wb_extra = 0

        # -- actual violations: classify tolerated vs recovery ----------
        selective_stages = ()
        flush_stage = None
        mask = inst.fault_stages
        if mask:
            is_mem = inst.is_mem
            tolerates = self._tolerates_pred
            selective_mode = self._selective_mode
            count_fault = stats.count_fault
            selective_stages = []
            safety_replay = False
            for stage, bit in _ISSUE_FAULT_STAGES:
                if not mask & bit:
                    continue
                if stage is PipeStage.MEM and not is_mem:
                    # a violation latched in a stage this instruction never
                    # occupies in the datapath model — only storm-mode
                    # "wild" faults produce this, and the TEP cannot see
                    # them. Safety net: degrade to a full stall-and-replay
                    # instead of letting the corrupt latch go live (there
                    # is no MEM timing anchor to hang a repair on).
                    count_fault(stage, False)
                    stats.safety_net_replays += 1
                    safety_replay = True
                    if ebus is not None:
                        ebus.emit(cycle, "fault", seq=inst.seq, pc=inst.pc,
                                  stage=stage.name, tolerated=False)
                        ebus.emit(cycle, "safety_net", seq=inst.seq,
                                  pc=inst.pc, reason="wild_mem")
                    continue
                tolerated = stage == pred_stage and tolerates
                if (tolerated and effects is not None
                        and effects.stage is None):
                    # predicted and nominally tolerated, but the VTE issued
                    # no padding for this stage/op pair: the extra cycle
                    # never happened. Safety net: recover as unpredicted.
                    stats.safety_net_replays += 1
                    tolerated = False
                    if ebus is not None:
                        ebus.emit(cycle, "safety_net", seq=inst.seq,
                                  pc=inst.pc, reason="unpadded")
                count_fault(stage, tolerated)
                if ebus is not None:
                    ebus.emit(cycle, "fault", seq=inst.seq, pc=inst.pc,
                              stage=stage.name, tolerated=tolerated)
                if tolerated:
                    continue
                if selective_mode:
                    selective_stages.append(stage)
                elif flush_stage is None:
                    flush_stage = stage
            if safety_replay and flush_stage is None:
                self._schedule(cycle + 1, _EV_REPLAY, inst)
            # selective (Razor-I) recovery: the faulty instruction
            # re-executes in place with the recovery penalty; its
            # dependents simply wait
            penalty = self._replay_recovery
            for stage in selective_stages:
                stats.replays += 1
                if ebus is not None:
                    ebus.emit(cycle, "selective", seq=inst.seq, pc=inst.pc,
                              stage=stage.name, penalty=penalty)
                if stage in (PipeStage.ISSUE, PipeStage.REGREAD):
                    rr_extra += penalty
                elif stage is PipeStage.EXECUTE:
                    ex_extra += penalty
                elif stage is PipeStage.MEM:
                    mem_extra += penalty
                else:
                    wb_extra += penalty

        exec_lat = inst.latency + ex_extra
        agen_end = cycle + 2 + rr_extra  # address generation for mem ops

        # -- per-class timing ------------------------------------------
        if inst.is_load:
            lsq = self.lsq
            lsq.resolve_address(inst, agen_end)
            cam_cycle = agen_end
            if lsq.search_forward(inst, cam_cycle):
                data_lat = 1
            else:
                data_lat = self.hierarchy.access_data_latency(inst.mem_addr)
            wakeup = agen_end + mem_extra + data_lat
            wb_request = wakeup + 1
        elif inst.is_store:
            lsq = self.lsq
            lsq.resolve_address(inst, agen_end)
            cam_cycle = agen_end
            lsq.cam_searches += 1
            wakeup = None
            wb_request = agen_end + mem_extra + 1
            if self.memdep is not None:
                self.memdep.store_resolved(inst.pc, inst.seq)
                self._check_ordering_violations(inst, agen_end)
        else:
            cam_cycle = None
            wakeup = cycle + inst.latency + rr_extra + ex_extra
            wb_request = cycle + 2 + rr_extra + exec_lat
        exec_end = cycle + 1 + rr_extra + exec_lat

        # -- writeback arbitration ------------------------------------------
        wb_cycle = self._reserve_writeback(wb_request, wb_extra)
        complete_cycle = wb_cycle + wb_extra
        phys_dest = inst.phys_dest
        if wakeup is not None and phys_dest >= 0:
            self.rename.ready_cycle[phys_dest] = wakeup  # set_ready, inlined
            stats.broadcasts += 1
            stats.broadcast_occupancy += len(self.iq.entries)
            cdl = self.cdl
            if cdl is not None:
                landed = cdl.landed_marks
                cdl.observe_broadcast(
                    inst, self.iq.count_dependents(phys_dest)
                )
                stats.critical_marks_landed += cdl.landed_marks - landed
        self._schedule(complete_cycle, _EV_COMPLETE, inst)

        # -- functional unit reservation + VTE freezing -------------------
        unit.next_issue = cycle + (exec_lat if op in UNPIPELINED_OPS else 1)
        self.fus.issued[unit.kind] += 1
        if effects is not None and effects.freeze is not FreezeKind.NONE:
            stats.slot_freezes += 1
            if ebus is not None:
                ebus.emit(cycle, "slot_freeze", seq=inst.seq, pc=inst.pc,
                          fu=unit.kind.name, kind=effects.freeze.name)
            if effects.freeze is FreezeKind.SLOT_ONE_CYCLE:
                unit.next_issue = max(unit.next_issue, cycle + 2)
            elif effects.freeze is FreezeKind.UNTIL_COMPLETE:
                unit.next_issue = max(unit.next_issue, exec_end)
            elif effects.freeze is FreezeKind.BUSY_PLUS_ONE:
                unit.freeze_extra(1)
            # WB_SLOT freezing is handled inside the writeback arbiter

        # -- branch resolution -------------------------------------------
        if inst.is_branch and inst.mispredicted:
            self._schedule(exec_end, _EV_RESOLVE, inst)

        # -- Error Padding stalls ------------------------------------------
        if pred_stage is not None and self.scheme.uses_ep_stall:
            stage_cycle = self._stage_cycle(
                pred_stage, cycle, cam_cycle, exec_end, wb_cycle
            )
            if stage_cycle is not None:
                stats.padded_instructions += 1
                # the stall fires when the instruction occupies the faulty
                # stage; issue-stage stalls land in the next cycle (this
                # one's select already happened)
                stall_cycle = max(stage_cycle, cycle + 1)
                self._ep_stalls[stall_cycle] = (
                    self._ep_stalls.get(stall_cycle, 0) + 1
                )
                if ebus is not None:
                    ebus.emit(cycle, "ep_stall", seq=inst.seq, pc=inst.pc,
                              stage=pred_stage.name, at=stall_cycle)

        # -- recovery scheduling ---------------------------------------------
        for stage in selective_stages:
            # recovery bubbles while the errant stage re-latches and the
            # pipeline control restores (Razor recovery sequence); a
            # replay without bubbles schedules no stall
            bubbles = self.config.recovery_bubbles
            stage_cycle = self._stage_cycle(
                stage, cycle, cam_cycle, exec_end, wb_cycle
            )
            if stage_cycle is None or not bubbles:
                continue
            stall_cycle = max(stage_cycle, cycle + 1)
            self._ep_stalls[stall_cycle] = (
                self._ep_stalls.get(stall_cycle, 0) + bubbles
            )
        if flush_stage is not None:
            stage_cycle = self._stage_cycle(
                flush_stage, cycle, cam_cycle, exec_end, wb_cycle
            )
            # detection happens when the stage executes; recovery can
            # trigger at the earliest in the next cycle
            self._schedule(
                max(stage_cycle, cycle + 1), _EV_REPLAY, inst
            )

    def _stage_cycle(self, stage, select_cycle, cam_cycle, exec_end, wb_cycle):
        """Cycle at which ``stage`` is occupied by this instruction."""
        if stage is PipeStage.ISSUE:
            return select_cycle
        if stage is PipeStage.REGREAD:
            return select_cycle + 1
        if stage is PipeStage.EXECUTE:
            return exec_end
        if stage is PipeStage.MEM:
            return cam_cycle  # None for non-memory instructions
        if stage is PipeStage.WRITEBACK:
            return wb_cycle
        return None

    def _check_ordering_violations(self, store_inst, cycle):
        """Squash loads that speculated past a conflicting older store.

        A correctness repair, so it always uses flush-style replay (the
        load consumed stale data); the store-set predictor is trained so
        the pair synchronizes in the future.
        """
        victims = self.lsq.issued_younger_loads_matching(store_inst, cycle)
        if not victims:
            return
        oldest = min(victims, key=lambda i: i.seq)
        self.memdep.train_violation(oldest.pc, store_inst.pc)
        self.stats.memdep_violations += 1
        if self.ebus is not None:
            self.ebus.emit(
                self.cycle, "memdep", seq=oldest.seq, load_pc=oldest.pc,
                store_pc=store_inst.pc,
            )
        if oldest.commit_cycle < 0 and not oldest.squashed:
            self._schedule(max(cycle, self.cycle + 1), _EV_REPLAY, oldest)

    def _reserve_writeback(self, request_cycle, wb_extra):
        """Find the first cycle with a free writeback lane from ``request``.

        A predicted-faulty-in-writeback instruction also reserves its lane
        in the following cycle (input recirculation, Section 3.3.5).
        """
        width = self._width
        wb = self._wb_count
        get = wb.get
        t = request_cycle
        while get(t, 0) >= width:
            t += 1
        wb[t] = get(t, 0) + 1
        if wb_extra:
            wb[t + 1] = get(t + 1, 0) + 1
        return t

    # ==================================================================
    # replay (Razor-style recovery, Section 2.1.2)
    # ==================================================================
    def _replay(self, inst):
        """Squash ``inst`` and everything younger; refetch from ``inst``."""
        stats = self.stats
        stats.replays += 1
        if self.scheme.uses_tep and inst.tep_key is not None:
            self.tep.train(
                inst.tep_key, self._earliest_fault_stage(inst), True
            )
        squashed = self.rob.squash_from(inst.seq)  # youngest first
        for s in squashed:
            self.rename.squash(s)
            s.squashed = True
            stats.squashed += 1
        self.iq.squash_from(inst.seq)
        self.lsq.squash_from(inst.seq)
        conveyor_insts = []
        for latch in self._conveyor:
            conveyor_insts.extend(latch)
            latch.clear()
        requeue = sorted(squashed + conveyor_insts, key=lambda s: s.seq)
        for s in requeue:
            s.reset_for_refetch()
        inst.replayed = True
        inst.fault_stages = 0  # the recovery re-executes with safe timing
        for s in reversed(requeue):
            self._refetch.appendleft(s)
        self._blocking_branch = None
        self._fetch_resume_at = self.cycle + self.config.replay_recovery
        self._dispatch_hold_until = 0
        if self.ebus is not None:
            self.ebus.emit(
                self.cycle, "replay", seq=inst.seq, pc=inst.pc,
                squashed=len(squashed), refetched=len(requeue),
            )

    # ==================================================================
    # front end
    # ==================================================================
    def _dispatch(self):
        cycle = self.cycle
        if cycle < self._dispatch_hold_until:
            return
        latch = self._conveyor[-1]
        if not latch:
            return
        rob = self.rob
        iq = self.iq
        rob_entries = rob._entries
        iq_entries = iq.entries
        rob_size = rob.size
        iq_size = iq.size
        if len(rob_entries) >= rob_size or len(iq_entries) >= iq_size:
            return  # back-pressure: nothing can dispatch this cycle
        lsq = self.lsq
        rename = self.rename
        memdep = self.memdep
        inorder_checks = self._inorder_fault_checks
        free_list = rename.free_list
        n = min(len(latch), self._width)
        k = 0
        while k < n:
            inst = latch[k]
            if len(rob_entries) >= rob_size or len(iq_entries) >= iq_size:
                break
            is_mem = inst.is_mem
            if is_mem and lsq.full:
                break
            # can_rename, inlined: a dest needs a free physical register
            if inst.static.dest is not None and not free_list:
                break
            rename.rename(inst)
            rob_entries.append(inst)  # rob.allocate (capacity checked above)
            # iq.insert, inlined: stamp mod-64 timestamp + dispatch order
            counter = iq._dispatch_counter
            inst.timestamp = counter & TIMESTAMP_MASK
            inst.dispatch_order = counter
            iq._dispatch_counter = counter + 1
            inst.in_iq = True
            iq_entries.append(inst)
            if is_mem:
                lsq.allocate(inst)
                if memdep is not None and inst.is_store:
                    memdep.store_fetched(inst.pc, inst.seq)
            inst.dispatch_cycle = cycle
            k += 1
            if inst.pred_fault_stage is not None or inst.fault_stages:
                inorder_checks(inst)
        if k:
            del latch[:k]
            self.stats.dispatched += k

    def _inorder_fault_checks(self, inst):
        """Stall/replay handling for faults outside the OoO engine (§2.2)."""
        pred = inst.pred_fault_stage
        uses_tep = self._uses_tep
        ebus = self.ebus
        if pred is not None and uses_tep and pred in _INORDER_STALL_STAGES:
            # the faulty in-order stage takes two cycles behind a stall signal
            self._dispatch_hold_until = self.cycle + 2
            self.stats.inorder_stalls += 1
            if ebus is not None:
                ebus.emit(self.cycle, "inorder_stall", seq=inst.seq,
                          pc=inst.pc, stage=pred.name)
        mask = inst.fault_stages
        if not mask:
            return
        for stage, bit in _INORDER_FAULT_STAGES:
            if mask & bit:
                tolerated = (
                    stage == pred
                    and uses_tep
                    and stage in _INORDER_STALL_STAGES
                )
                self.stats.count_fault(stage, tolerated)
                if ebus is not None:
                    ebus.emit(self.cycle, "fault", seq=inst.seq, pc=inst.pc,
                              stage=stage.name, tolerated=tolerated)
                if not tolerated:
                    self._schedule(self.cycle + 1, _EV_REPLAY, inst)
                    break

    def _fetch(self, latch):
        if self._done_fetching and not self._refetch:
            return
        if self._blocking_branch is not None:
            return
        cycle = self.cycle
        if cycle < self._fetch_resume_at:
            return
        stats = self.stats
        injector = self.injector
        vdd = self.vdd
        refetch = self._refetch
        trace_next = self.trace.__next__
        predict_branch = self._predict_branch
        predict_fault = self._predict_fault
        access_inst_latency = self.hierarchy.access_inst_latency
        append = latch.append
        tep_gate = self._tep_gate
        icache_stall = 0
        last_line = self._last_fetch_line
        fetched = 0
        for _ in range(self._width):
            # the next instruction: a refetched one first, else the trace
            if refetch:
                inst = refetch.popleft()
            else:
                try:
                    inst = trace_next()
                except StopIteration:
                    self._done_fetching = True
                    break
            inst.fetch_cycle = cycle
            fetched += 1
            line = inst.pc >> 6
            if line != last_line:
                last_line = line
                latency = access_inst_latency(inst.pc)
                if latency > 1:
                    icache_stall = max(icache_stall, latency - 1)
            if injector is not None and not inst.refetched:
                injector.resolve(inst, vdd)
            if inst.is_branch:
                predict_branch(inst)
            if tep_gate != 1:
                predict_fault(inst)
            append(inst)
            if inst.mispredicted:
                self._blocking_branch = inst.seq
                break
        self._last_fetch_line = last_line
        stats.fetched += fetched
        if icache_stall:
            self._fetch_resume_at = max(
                self._fetch_resume_at, cycle + 1 + icache_stall
            )

    def _predict_branch(self, inst):
        if not inst.is_branch:
            return
        conditional = 0.0 < inst.static.taken_prob < 1.0
        if inst.refetched:
            return  # outcome/misprediction decided at first fetch
        if conditional:
            self.stats.branches += 1
            wrong = self.bp.predict_and_update(inst.pc, inst.taken)
            if wrong:
                inst.mispredicted = True
                self.stats.branch_mispredicts += 1

    def _predict_fault(self, inst):
        """TEP lookup at decode (Section 2.1.1), gated by the sensors."""
        gate = self._tep_gate
        if gate and (gate == 1 or not self.sensor.favorable()):
            return
        lookup = self._tep_lookup
        if lookup is not None:
            prediction, key = lookup(inst.pc, self.bp.ghr)
            inst.tep_key = key
        else:
            tep = self.tep
            ghr = self.bp.ghr
            prediction = tep.predict(inst.pc, ghr)
            inst.tep_key = (
                prediction.key if prediction is not None
                else tep.key_for(inst.pc, ghr)
            )
        if prediction is not None:
            inst.pred_fault_stage = prediction.stage
            inst.pred_critical = prediction.critical
            if self.ebus is not None:
                self.ebus.emit(
                    self.cycle, "tep_predict", seq=inst.seq, pc=inst.pc,
                    stage=prediction.stage.name,
                    critical=prediction.critical,
                )

    # ==================================================================
    def _drained(self):
        """True once the trace is exhausted and nothing is in flight."""
        return (self._done_fetching and not self._refetch
                and not len(self.rob) and not any(self._conveyor))
