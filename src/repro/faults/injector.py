"""Fault injection: per-PC path assignment and per-instance resolution.

The injector bridges the statistical timing model and the architectural
simulation. It has two phases:

1. :meth:`FaultInjector.assign` — before simulation, partition the static
   PCs of a program into timing classes (SAFE/WARM/HOT) so that the
   *dynamic* fault rates at the two faulty supply voltages approximate the
   per-benchmark targets (Table 1 of the paper), and give every critical
   (PC, stage) pair a sensitized-path delay sampled inside its class band.

2. :meth:`FaultInjector.resolve` — as each dynamic instance is created,
   evaluate the mu+2sigma criterion for the paths that instance sensitizes.
   With probability ``repeatability`` the instance sensitizes its PC's
   recurring critical path (this is the S1 commonality result: ~87-92% of
   sensitized gates recur across dynamic instances); otherwise it exercises
   a shorter path and escapes the violation. A small voltage-dependent
   background rate injects violations on arbitrary instructions — these are
   the unpredictable faults that force Razor-style replays.
"""

import random

from repro.isa.opcodes import OpClass, PipeStage
from repro.faults.timing import TimingClass, VDD_NOMINAL


#: Default distribution of faulty stages for non-memory instructions.
#: Wakeup/select CAM logic dominates (Section 3.3.1, corroborated by [16]).
DEFAULT_STAGE_WEIGHTS = (
    (PipeStage.ISSUE, 0.62),
    (PipeStage.EXECUTE, 0.18),
    (PipeStage.REGREAD, 0.12),
    (PipeStage.WRITEBACK, 0.08),
)

#: Faulty-stage distribution for loads/stores: the LSQ CAM search makes the
#: memory stage the dominant site (Section 3.3.4).
MEM_STAGE_WEIGHTS = (
    (PipeStage.MEM, 0.60),
    (PipeStage.ISSUE, 0.25),
    (PipeStage.REGREAD, 0.10),
    (PipeStage.WRITEBACK, 0.05),
)


class _PcTiming:
    """Timing assignment of one static PC."""

    __slots__ = ("timing_class", "stage", "path_fraction")

    def __init__(self, timing_class, stage, path_fraction):
        self.timing_class = timing_class
        self.stage = stage
        self.path_fraction = path_fraction


class FaultInjector:
    """Decides, per dynamic instruction instance, which stages violate timing.

    Parameters
    ----------
    timing_model:
        A :class:`~repro.faults.timing.StageTimingModel`.
    seed:
        Seed for the injector's private generator.
    repeatability:
        Probability that a dynamic instance of a critical PC sensitizes the
        recurring critical path (the S1 commonality; default 0.97).
    background_rate:
        Background (unpredictable) violation probability per instruction at
        the high-fault voltage; scaled linearly with the voltage deficit.
    dynamic_sigma:
        Relative sigma of temporal (droop/thermal) delay noise applied per
        instance.
    """

    def __init__(
        self,
        timing_model,
        seed=0,
        repeatability=0.97,
        background_rate=1e-4,
        dynamic_sigma=0.004,
        thermal=None,
        thermal_coefficient=5e-4,
    ):
        self.timing_model = timing_model
        self.repeatability = repeatability
        self.background_rate = background_rate
        self.dynamic_sigma = dynamic_sigma
        #: optional :class:`~repro.faults.sensors.ThermalModel`; when set,
        #: per-instance delay noise gains a temperature-dependent bias
        #: (delay rises ~0.05%/K above the midpoint), so hot phases fault
        #: more — the temporal-variation component of Section 1.
        self.thermal = thermal
        self.thermal_coefficient = thermal_coefficient
        #: cycle-time shrink factor (>1 = overclocked, Section 1's
        #: "tighter frequency" operating mode)
        self.frequency_factor = 1.0
        self._rng = random.Random(seed)
        self._pc_timing = {}
        self.enabled = True
        self._bg_cache = (None, None, 0.0)  # (vdd, rate, probability)

    # ------------------------------------------------------------------
    # assignment
    # ------------------------------------------------------------------
    def _pick_stage(self, static_inst):
        weights = MEM_STAGE_WEIGHTS if static_inst.is_mem else DEFAULT_STAGE_WEIGHTS
        r = self._rng.random()
        acc = 0.0
        for stage, w in weights:
            acc += w
            if r < acc:
                return stage
        return weights[-1][0]

    def assign(self, static_insts, pc_freq, fr_low, fr_high):
        """Assign timing classes so dynamic fault rates hit the targets.

        Parameters
        ----------
        static_insts:
            The program's static instructions.
        pc_freq:
            Mapping PC -> estimated dynamic execution frequency (fractions
            summing to ~1 over the program's PCs).
        fr_low, fr_high:
            Target dynamic fault rates (fractions of instructions violating
            timing) at 1.04V and 0.97V respectively. ``fr_high`` must be
            >= ``fr_low``.
        """
        if fr_high < fr_low:
            raise ValueError("fr_high must be >= fr_low")
        self._pc_timing = {}
        # Inflate targets: only `repeatability` of instances actually fault.
        want_hot = fr_low / max(self.repeatability, 1e-9)
        want_warm = (fr_high - fr_low) / max(self.repeatability, 1e-9)

        candidates = [si for si in static_insts if si.op is not OpClass.NOP]
        self._rng.shuffle(candidates)
        acc_hot = 0.0
        acc_warm = 0.0
        # cap any single PC's share of a class budget: spreading the budget
        # over several static instructions keeps the *measured* fault rate
        # of a finite simulation window close to the long-run target
        # first pass enforces the cap; if the program is too small/hot to
        # fill a class budget from cold PCs alone (libquantum-like kernels),
        # a second pass relaxes the cap to the remaining budget
        for cap_divisor in (4.0, 1.0):
            hot_cap = want_hot / cap_divisor
            warm_cap = want_warm / cap_divisor
            for si in candidates:
                if si.pc in self._pc_timing:
                    continue
                freq = pc_freq.get(si.pc, 0.0)
                if freq <= 0.0:
                    continue
                if acc_hot < want_hot and freq <= min(
                    want_hot - acc_hot, hot_cap
                ):
                    cls = TimingClass.HOT
                    acc_hot += freq
                elif acc_warm < want_warm and freq <= min(
                    want_warm - acc_warm, warm_cap
                ):
                    cls = TimingClass.WARM
                    acc_warm += freq
                else:
                    continue
                stage = self._pick_stage(si)
                frac = self.timing_model.sample_path_fraction(cls, self._rng)
                self._pc_timing[si.pc] = _PcTiming(cls, stage, frac)
            if acc_hot >= 0.8 * want_hot and acc_warm >= 0.8 * want_warm:
                break
        # tiny hot kernels: every PC may exceed the remaining budget; then
        # the closest-fitting single PC is better than missing the target
        if acc_hot < 0.5 * want_hot:
            spare = [
                si for si in candidates
                if si.pc not in self._pc_timing and pc_freq.get(si.pc, 0) > 0
            ]
            if spare:
                si = min(spare, key=lambda s: pc_freq[s.pc])
                frac = self.timing_model.sample_path_fraction(
                    TimingClass.HOT, self._rng
                )
                self._pc_timing[si.pc] = _PcTiming(
                    TimingClass.HOT, self._pick_stage(si), frac
                )
        return self._pc_timing

    def reseed(self, seed):
        """Restart the per-instance stream (measurement-boundary reseed).

        The PC timing assignment (:meth:`assign`) is untouched — it is
        warmup state shared by every measurement draw; only the stream
        deciding which dynamic instances fault is redrawn, so campaign
        draws differing in ``measurement_seed`` sample independent fault
        realizations over one warmed machine.
        """
        self._rng = random.Random(seed)

    def assignment_for(self, pc):
        """Return the :class:`_PcTiming` of ``pc`` or ``None`` if SAFE."""
        return self._pc_timing.get(pc)

    @property
    def critical_pcs(self):
        """PCs with a non-SAFE timing assignment."""
        return set(self._pc_timing)

    # ------------------------------------------------------------------
    # per-instance resolution
    # ------------------------------------------------------------------
    def _background_prob(self, vdd):
        if vdd >= VDD_NOMINAL:
            return 0.0
        span = VDD_NOMINAL - 0.97
        return self.background_rate * (VDD_NOMINAL - vdd) / span

    def resolve(self, inst, vdd):
        """Annotate ``inst`` with the stages in which it violates timing.

        Replayed instances never re-fault: the Razor-style recovery re-runs
        them with guaranteed timing (Section 2.1.2).
        """
        if not self.enabled or inst.replayed:
            return inst
        rng = self._rng
        timing = self._pc_timing.get(inst.pc)
        if timing is not None and rng.random() < self.repeatability:
            noise = rng.gauss(0.0, self.dynamic_sigma)
            thermal = self.thermal
            if thermal is not None:
                midpoint = (thermal.t_ambient + thermal.t_max) / 2
                noise += self.thermal_coefficient * (
                    thermal.temperature - midpoint
                )
            if self.timing_model.violates(
                timing.path_fraction, vdd, noise, self.frequency_factor
            ):
                inst.add_fault(timing.stage)
        # background probability depends only on vdd and the configured
        # rate, both constant within a run: cache it (resolve runs once
        # per fetched instance)
        cached_vdd, cached_rate, bg = self._bg_cache
        if cached_vdd != vdd or cached_rate != self.background_rate:
            bg = self._background_prob(vdd)
            self._bg_cache = (vdd, self.background_rate, bg)
        if rng.random() < bg:
            # an unusual input sensitizes an untracked long path somewhere
            stage = self._pick_stage(inst.static)
            inst.add_fault(stage)
        return inst
