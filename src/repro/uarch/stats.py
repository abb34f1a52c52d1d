"""Simulation statistics.

Counters are plain attributes incremented by the pipeline; the energy model
turns them into joules after the run (see ``repro.power.energy_model``).
"""


class SimStats:
    """All counters collected during one simulation run."""

    def __init__(self):
        self.cycles = 0
        self.committed = 0
        self.fetched = 0
        self.dispatched = 0
        self.issued = 0
        self.squashed = 0
        self.replays = 0
        self.branch_mispredicts = 0
        self.branches = 0
        # fault accounting
        self.faults_total = 0
        self.faults_predicted = 0
        self.faults_unpredicted = 0
        self.false_predictions = 0
        self.stage_faults = {}
        # scheme mechanics
        self.ep_stalls = 0
        self.slot_freezes = 0
        self.padded_instructions = 0
        self.inorder_stalls = 0
        self.memdep_violations = 0
        self.wrong_path_fetched = 0
        # CDS: criticality marks that landed on the broadcasting
        # instruction's TEP entry (a threshold hit on a PC with no
        # resident entry marks nothing); 0 under every other scheme.
        # Kernel lanes count it too (batchkernel.c's result broadcast)
        self.critical_marks_landed = 0
        # robustness safety net (storm-mode wild faults, unpadded
        # predictions — see pipeline._issue) and storm bookkeeping
        self.safety_net_replays = 0
        self.storm_faults = 0
        # telemetry events evicted from the EventBus ring (set by
        # TelemetryCollector.finalize; 0 when tracing was off or the
        # ring never overflowed) — silent trace truncation, made loud
        self.dropped_events = 0
        # activity for the energy model
        self.fu_ops = {}
        self.regreads = 0
        self.regwrites = 0
        self.broadcasts = 0
        self.broadcast_occupancy = 0
        self.lsq_searches = 0
        self.store_forwards = 0
        self.iq_occupancy_accum = 0
        self.wb_writes = 0

    # ------------------------------------------------------------------
    def count_fault(self, stage, predicted):
        """Record one actual timing violation in ``stage``."""
        self.faults_total += 1
        self.stage_faults[stage] = self.stage_faults.get(stage, 0) + 1
        if predicted:
            self.faults_predicted += 1
        else:
            self.faults_unpredicted += 1

    def count_fu_op(self, op):
        """Record one executed operation of class ``op``."""
        self.fu_ops[op] = self.fu_ops.get(op, 0) + 1

    # ------------------------------------------------------------------
    @property
    def ipc(self):
        """Committed instructions per cycle."""
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def fault_rate(self):
        """Faulting instructions per committed instruction."""
        return self.faults_total / self.committed if self.committed else 0.0

    @property
    def mispredict_rate(self):
        """Branch misprediction rate."""
        return self.branch_mispredicts / self.branches if self.branches else 0.0

    @property
    def avg_iq_occupancy(self):
        """Mean issue-queue occupancy per cycle."""
        return self.iq_occupancy_accum / self.cycles if self.cycles else 0.0

    def as_dict(self):
        """Flat dict of every counter the run collected (JSON-safe keys).

        Enum-keyed maps (``stage_faults``, ``fu_ops``) are flattened to
        name-keyed dicts in enum order, so two equal runs produce equal
        dicts and exports never carry enum objects.
        """
        return {
            "cycles": self.cycles,
            "committed": self.committed,
            "fetched": self.fetched,
            "dispatched": self.dispatched,
            "issued": self.issued,
            "ipc": self.ipc,
            "fault_rate": self.fault_rate,
            "faults_total": self.faults_total,
            "faults_predicted": self.faults_predicted,
            "faults_unpredicted": self.faults_unpredicted,
            "false_predictions": self.false_predictions,
            "stage_faults": {
                stage.name: count
                for stage, count in sorted(
                    self.stage_faults.items(), key=lambda kv: int(kv[0])
                )
            },
            "replays": self.replays,
            "safety_net_replays": self.safety_net_replays,
            "storm_faults": self.storm_faults,
            "dropped_events": self.dropped_events,
            "ep_stalls": self.ep_stalls,
            "slot_freezes": self.slot_freezes,
            "padded_instructions": self.padded_instructions,
            "inorder_stalls": self.inorder_stalls,
            "memdep_violations": self.memdep_violations,
            "wrong_path_fetched": self.wrong_path_fetched,
            "critical_marks_landed": self.critical_marks_landed,
            "squashed": self.squashed,
            "branches": self.branches,
            "branch_mispredicts": self.branch_mispredicts,
            "mispredict_rate": self.mispredict_rate,
            "avg_iq_occupancy": self.avg_iq_occupancy,
            "fu_ops": {
                op.name: count
                for op, count in sorted(
                    self.fu_ops.items(), key=lambda kv: int(kv[0])
                )
            },
            "regreads": self.regreads,
            "regwrites": self.regwrites,
            "broadcasts": self.broadcasts,
            "broadcast_occupancy": self.broadcast_occupancy,
            "lsq_searches": self.lsq_searches,
            "store_forwards": self.store_forwards,
            "wb_writes": self.wb_writes,
        }
