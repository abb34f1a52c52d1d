"""Fault-storm stress mode: the adversarial fault environment.

The base :class:`~repro.faults.injector.FaultInjector` models the paper's
*measured* fault behaviour — violations cluster on recurring critical
paths, sensors report honestly, the TEP sees the same distribution it
trains on. Storm mode deliberately breaks each of those assumptions to
stress the robustness machinery rather than the schemes' efficiency:

* :class:`StormInjector` adds **bursts** of extra violations in
  deterministic windows of the dynamic instruction stream, a fraction of
  them **wild**: placed in a uniformly random OoO stage with no regard
  for the datapath (including the MEM stage of non-memory instructions —
  faults the TEP can never predict and the base model never produces,
  exercising the pipeline's detect-and-replay safety net).
* :class:`FlakySensor` wraps the voltage sensor with **dropouts**:
  sustained windows where it reports unfavorable conditions regardless
  of the real supply, so predictions disarm and re-arm mid-run
  (flapping).
* :class:`ChaoticTEP` wraps the predictor with forced **mispredictions**:
  real predictions are randomly suppressed and phantom ones fabricated,
  including nonsensical stage choices.

All three draw from private seeded generators, so a storm run is exactly
as reproducible as a clean one — :class:`StormConfig` is part of
``RunSpec.canonical()`` and of every repro bundle.
"""

import random

from repro.core.tep import TEPPrediction
from repro.faults.injector import DEFAULT_STAGE_WEIGHTS, MEM_STAGE_WEIGHTS
from repro.isa.opcodes import OOO_STAGES
from repro.record import Record


class StormConfig(Record):
    """Knobs of the fault storm; all-zero knobs mean "no storm effect".

    Parameters
    ----------
    burst_rate:
        Per-instruction probability of an extra violation inside a burst
        window.
    burst_len / burst_gap:
        The dynamic stream alternates ``burst_len`` stormy instructions
        with ``burst_gap`` calm ones (deterministic windows, so a
        minimized repro keeps the same weather).
    wild_frac:
        Fraction of storm violations placed in a uniformly random OoO
        stage instead of a datapath-plausible one.
    sensor_flap:
        Approximate duty cycle of sensor dropouts (0 disables the
        :class:`FlakySensor` wrap).
    tep_drop:
        Probability a real TEP prediction is suppressed.
    tep_fabricate:
        Probability a phantom prediction is fabricated on a miss.
    """

    FIELDS = ("burst_rate", "burst_len", "burst_gap", "wild_frac",
              "sensor_flap", "tep_drop", "tep_fabricate")

    def __init__(self, burst_rate=0.05, burst_len=300, burst_gap=1200,
                 wild_frac=0.15, sensor_flap=0.0, tep_drop=0.0,
                 tep_fabricate=0.0):
        self.burst_rate = float(burst_rate)
        self.burst_len = int(burst_len)
        self.burst_gap = int(burst_gap)
        self.wild_frac = float(wild_frac)
        self.sensor_flap = float(sensor_flap)
        self.tep_drop = float(tep_drop)
        self.tep_fabricate = float(tep_fabricate)
        if self.burst_len <= 0:
            raise ValueError("burst_len must be positive")
        if self.burst_gap < 0:
            raise ValueError("burst_gap must be >= 0")

    def canonical(self):
        """Primitive form feeding ``RunSpec.canonical()`` (floats as repr)."""
        return tuple(
            (name, repr(getattr(self, name))) for name in self.FIELDS
        )


def default_storm():
    """The full-strength preset used by ``verify storm`` and CI fuzzing."""
    return StormConfig(
        burst_rate=0.05, burst_len=300, burst_gap=1200, wild_frac=0.15,
        sensor_flap=0.25, tep_drop=0.25, tep_fabricate=0.02,
    )


def _weighted_stage(static_inst, rng):
    """Datapath-plausible faulty stage, same tables as the base injector."""
    weights = MEM_STAGE_WEIGHTS if static_inst.is_mem else DEFAULT_STAGE_WEIGHTS
    r = rng.random()
    acc = 0.0
    for stage, w in weights:
        acc += w
        if r < acc:
            return stage
    return weights[-1][0]


class StormInjector:
    """Wraps a base injector (or nothing) with burst-windowed extra faults.

    Exposes the same ``resolve``/``enabled`` surface the pipeline expects;
    anything else (``assignment_for``, ``critical_pcs``...) is delegated
    to the wrapped injector.
    """

    def __init__(self, inner, config, seed=0):
        self.inner = inner
        self.config = config
        self.enabled = True
        self.storm_faults = 0
        self.wild_faults = 0
        self._rng = random.Random(seed)
        self._pos = 0
        self._period = config.burst_len + config.burst_gap

    def resolve(self, inst, vdd):
        """Annotate ``inst`` with base faults plus any storm violation."""
        if self.inner is not None:
            self.inner.resolve(inst, vdd)
        if not self.enabled or inst.replayed:
            return inst
        pos = self._pos
        self._pos = pos + 1
        if pos % self._period >= self.config.burst_len:
            return inst  # calm window
        rng = self._rng
        if rng.random() >= self.config.burst_rate:
            return inst
        if rng.random() < self.config.wild_frac:
            stage = OOO_STAGES[rng.randrange(len(OOO_STAGES))]
            self.wild_faults += 1
        else:
            stage = _weighted_stage(inst.static, rng)
        inst.add_fault(stage)
        self.storm_faults += 1
        return inst

    def __getattr__(self, name):
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)


class FlakySensor:
    """A voltage sensor with sustained dropout windows (flapping).

    During a dropout the sensor reports unfavorable conditions no matter
    the real supply, so the TEP disarms and violations arrive unpredicted.
    ``dynamic = True`` tells the pipeline it must re-query the sensor per
    fetch group instead of latching a verdict at construction.
    """

    #: forces the per-fetch sensor gate in OoOCore.__init__
    dynamic = True

    def __init__(self, inner, flap=0.25, seed=0, dropout_len=64):
        self.inner = inner
        self.flap = float(flap)
        self.dropout_len = int(dropout_len)
        self._rng = random.Random(seed)
        self._queries = 0
        self._dropped_until = 0
        self.dropouts = 0

    def favorable(self):
        self._queries += 1
        if self._queries <= self._dropped_until:
            return False
        # expected duty cycle ~= flap: start a dropout_len-query dropout
        # with probability flap/dropout_len per healthy query
        if self.flap and self._rng.random() < self.flap / self.dropout_len:
            self.dropouts += 1
            self._dropped_until = self._queries + self.dropout_len
            return False
        return self.inner.favorable()

    def __getattr__(self, name):
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)


class ChaoticTEP:
    """A predictor wrapper that forces mispredictions both ways.

    Real predictions are suppressed with probability ``drop`` (the
    violation then arrives unpredicted and must be caught by replay);
    misses fabricate a phantom prediction with probability ``fabricate``,
    with a uniformly random OoO stage — including stages the instruction
    never occupies, which the VTE must pad as no-ops or the safety net
    must absorb. Training and criticality marking pass through unchanged,
    so the underlying predictor keeps learning honestly.
    """

    def __init__(self, inner, drop=0.25, fabricate=0.02, seed=0):
        self.inner = inner
        self.drop = float(drop)
        self.fabricate = float(fabricate)
        self._rng = random.Random(seed)
        self.dropped = 0
        self.fabricated = 0

    def predict_or_key(self, pc, ghr):
        inner = self.inner
        lookup = getattr(inner, "predict_or_key", None)
        if lookup is not None:
            prediction, key = lookup(pc, ghr)
        else:
            prediction = inner.predict(pc, ghr)
            key = (
                prediction.key if prediction is not None
                else inner.key_for(pc, ghr)
            )
        rng = self._rng
        if prediction is not None:
            if self.drop and rng.random() < self.drop:
                self.dropped += 1
                prediction = None
        elif self.fabricate and rng.random() < self.fabricate:
            stage = OOO_STAGES[rng.randrange(len(OOO_STAGES))]
            self.fabricated += 1
            prediction = TEPPrediction(stage, rng.random() < 0.5, key)
        return prediction, key

    def predict(self, pc, ghr):
        prediction, _key = self.predict_or_key(pc, ghr)
        return prediction

    def __getattr__(self, name):
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)
