"""Core configuration (defaults: Fabscalar Core-1, Section 4.1/4.2).

Core-1 is a 4-wide out-of-order pipeline with a 32-entry issue queue,
96 physical registers, single- and multi-cycle functional units, and a
10-stage branch-misprediction loop spanning fetch to execute.
"""

from repro.isa.opcodes import FuKind
from repro.record import Record


class CoreConfig(Record):
    """All sizing/latency parameters of the simulated core."""

    FIELDS = ("width", "iq_size", "rob_size", "lsq_size", "n_arch_regs",
              "n_phys_regs", "n_simple_alu", "n_complex_alu", "n_mem_ports",
              "frontend_depth", "redirect_penalty", "replay_recovery",
              "recovery_bubbles", "replay_mode", "bp_history_bits",
              "bp_table_bits", "criticality_threshold", "mem_dependence",
              "model_wrong_path")
    #: a knob nothing read; older bundles and manifests carry it
    RETIRED = ("model_inorder_faults",)

    def __init__(
        self,
        width=4,
        iq_size=32,
        rob_size=128,
        lsq_size=32,
        n_arch_regs=32,
        n_phys_regs=96,
        n_simple_alu=2,
        n_complex_alu=1,
        n_mem_ports=1,
        frontend_depth=6,
        redirect_penalty=2,
        replay_recovery=3,
        recovery_bubbles=3,
        replay_mode="selective",
        bp_history_bits=10,
        bp_table_bits=12,
        criticality_threshold=8,
        mem_dependence="conservative",
        model_wrong_path=True,
    ):
        if width <= 0 or iq_size <= 0 or rob_size <= 0:
            raise ValueError("core dimensions must be positive")
        if n_phys_regs <= n_arch_regs:
            raise ValueError("need more physical than architectural registers")
        self.width = width
        self.iq_size = iq_size
        self.rob_size = rob_size
        self.lsq_size = lsq_size
        self.n_arch_regs = n_arch_regs
        self.n_phys_regs = n_phys_regs
        self.n_simple_alu = n_simple_alu
        self.n_complex_alu = n_complex_alu
        self.n_mem_ports = n_mem_ports
        #: stages from fetch to dispatch; the mispredict loop is
        #: frontend_depth + issue-wait + regread + execute ~ 10 stages.
        self.frontend_depth = frontend_depth
        self.redirect_penalty = redirect_penalty
        self.replay_recovery = replay_recovery
        #: dead pipeline cycles per selective recovery (detect, restore
        #: the shadow-latch value, re-fire) — the dominant Razor cost
        self.recovery_bubbles = recovery_bubbles
        if replay_mode not in ("selective", "flush"):
            raise ValueError("replay_mode must be 'selective' or 'flush'")
        #: Razor-style recovery for unpredicted violations:
        #: "selective" re-executes the faulty instruction in place (shadow
        #: latch / counterflow recovery: +replay_recovery cycles on the
        #: instruction plus a one-cycle pipeline bubble, Razor [15]);
        #: "flush" squashes the faulty instruction and everything younger
        #: and refetches (RazorII-style architectural replay).
        self.replay_mode = replay_mode
        self.bp_history_bits = bp_history_bits
        self.bp_table_bits = bp_table_bits
        self.criticality_threshold = criticality_threshold
        if mem_dependence not in ("conservative", "store_sets"):
            raise ValueError(
                "mem_dependence must be 'conservative' or 'store_sets'"
            )
        #: load/store disambiguation: "conservative" holds loads until all
        #: older store addresses resolve; "store_sets" speculates with a
        #: Chrysos/Emer store-set predictor and replays on violations
        self.mem_dependence = mem_dependence
        #: account the energy of wrong-path fetch/decode work while a
        #: mispredicted branch resolves (timing is unaffected: wrong-path
        #: instructions never enter the rename/OoO engine in this model)
        self.model_wrong_path = model_wrong_path

    @property
    def fu_counts(self):
        """Functional units per :class:`~repro.isa.opcodes.FuKind`."""
        return {
            FuKind.SIMPLE: self.n_simple_alu,
            FuKind.COMPLEX: self.n_complex_alu,
            FuKind.MEM: self.n_mem_ports,
        }

    @classmethod
    def core1(cls, **overrides):
        """The paper's Core-1 configuration, with optional overrides."""
        return cls(**overrides)

    @classmethod
    def core2(cls, **overrides):
        """A narrower 2-wide composition (Fabscalar-style little core).

        Half the width, issue queue, ROB and physical registers of Core-1,
        with a single simple ALU — used by the width-sensitivity ablation.
        """
        params = dict(
            width=2, iq_size=16, rob_size=64, lsq_size=16,
            n_phys_regs=64, n_simple_alu=1, n_complex_alu=1, n_mem_ports=1,
        )
        params.update(overrides)
        return cls(**params)
