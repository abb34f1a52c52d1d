"""``OoOCore.run`` is the only Python cycle loop; late observers must fire.

The loop latches the telemetry sampler and the sensor's thermal model at
window start and re-latches them every 1024 cycles, so an observer
attached mid-window takes effect on every core, a thermal one included.
"""

from repro.core.schemes import SchemeKind
from repro.faults.sensors import ThermalModel
from repro.harness.runner import RunSpec, build_core


class _Sampler:
    """Minimal telemetry-sampler stand-in: counts its sample() calls."""

    def __init__(self):
        self.next_cycle = 0
        self.samples = 0

    def sample(self, core, cycle):
        self.samples += 1
        self.next_cycle = cycle + 100
        return self.next_cycle


class TestMidRunAttachment:
    """An observer attached mid-window fires within 1024 cycles.

    Without the re-latch the loop would keep the sampler it latched at
    window start (none) for the rest of the window.
    """

    def _core(self):
        return build_core(RunSpec(
            "gcc", SchemeKind.ABS, 0.97, n_instructions=4000, warmup=0,
            seed=7,
        ))

    def _run_with_late_sampler(self, core):
        sampler = _Sampler()
        real_commit = core._commit

        def commit_then_attach():
            real_commit()
            if core.stats.committed >= 32 and core.telemetry_sampler is None:
                core.telemetry_sampler = sampler

        core._commit = commit_then_attach
        stats = core.run(4000)
        assert stats.committed >= 4000
        return sampler

    def test_sampler_attached_mid_window_fires(self):
        assert self._run_with_late_sampler(self._core()).samples > 0

    def test_sampler_attached_mid_window_fires_on_thermal_core(self):
        core = self._core()
        core.sensor.thermal = ThermalModel(seed=7)
        core.rebind_mechanisms()
        assert self._run_with_late_sampler(core).samples > 0
