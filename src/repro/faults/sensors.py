"""Voltage and thermal sensors gating TEP predictions (Section 2.1.1).

The TEP "considers favorable conditions for timing errors through the use
of thermal and voltage sensors": at the nominal supply there is no point
predicting violations, while at lowered supplies (or elevated temperature)
predictions are armed. The thermal model is a slow bounded random walk —
enough to exercise the gating logic without a full RC thermal network.
"""

from repro.faults.timing import VDD_NOMINAL


class ThermalModel:
    """A bounded-random-walk die temperature in degrees Celsius."""

    def __init__(self, t_ambient=45.0, t_max=95.0, step=0.02, seed=0):
        import random

        self.t_ambient = t_ambient
        self.t_max = t_max
        self.step = step
        self.temperature = (t_ambient + t_max) / 2.0
        self._rng = random.Random(seed)

    def advance(self, cycles=1):
        """Advance the walk by ``cycles`` cycles and return the temperature."""
        drift = self.step * cycles ** 0.5
        self.temperature += self._rng.uniform(-drift, drift)
        self.temperature = min(self.t_max, max(self.t_ambient, self.temperature))
        return self.temperature


class VoltageSensor:
    """Reports whether conditions favour timing violations.

    Parameters
    ----------
    vdd:
        The operating supply voltage of the run.
    thermal:
        Optional :class:`ThermalModel`; high temperature also arms the
        sensor (delay rises with temperature).
    v_threshold:
        Supplies at or below this arm the sensor.
    t_threshold:
        Temperatures at or above this arm the sensor.
    """

    def __init__(self, vdd, thermal=None, v_threshold=None, t_threshold=90.0,
                 overclocked=False):
        self.vdd = vdd
        self.thermal = thermal
        self.v_threshold = (
            v_threshold if v_threshold is not None else VDD_NOMINAL - 1e-9
        )
        self.t_threshold = t_threshold
        #: running above nominal frequency also consumes the guardband
        self.overclocked = overclocked

    def statically_armed(self):
        """True when the run's clock or supply alone arms the sensor.

        Both are fixed for a whole run, so an armed sensor stays armed:
        the pipeline latches this once, and a batch-kernel lane reads it
        from its spec.
        """
        return self.overclocked or self.vdd <= self.v_threshold

    def favorable(self):
        """True when timing violations are plausible under current conditions."""
        if self.statically_armed():
            return True
        if self.thermal is not None:
            return self.thermal.temperature >= self.t_threshold
        return False
