"""A lane needs its spec, not a core.

A kernel lane's scheme scalars and its fault injector are read from its
spec (``batchcore.scheme_scalars``, ``runner.build_injector``), never
from a core of its own. These tests pin both against what
``runner.build_core`` builds for the same spec, over every scheme and
the supplies and clocks the generated lanes test draws, including the
nominal supply, where no injector exists and a TEP scheme's sensor
stays unarmed.
"""

import itertools

import pytest

from repro.core.policies import (
    CriticalityDrivenSelection, FaultyFirstSelection,
)
from repro.core.schemes import SchemeKind
from repro.faults.timing import VDD_NOMINAL
from repro.harness.runner import RunSpec, build_core, build_injector
from repro.uarch.batchcore import scheme_scalars
from repro.uarch.batchkernel import SEL_MODE
from repro.uarch.config import CoreConfig

VDDS = (0.97, 1.0, 1.04, VDD_NOMINAL)
CLOCKS = (1.0, 1.04, 1.08, 1.15)
THRESHOLDS = (2, 8)


def _specs(thresholds=THRESHOLDS):
    for scheme, vdd, clock, threshold in itertools.product(
            SchemeKind, VDDS, CLOCKS, thresholds):
        yield RunSpec("bzip2", scheme, vdd, 400, 300, seed=3,
                      overclock=clock,
                      config=CoreConfig(criticality_threshold=threshold))


def _id(spec):
    threshold = (spec.config or CoreConfig.core1()).criticality_threshold
    return f"{spec.scheme.name}-{spec.vdd}V-x{spec.overclock}-ct{threshold}"


def _core_scalars(core):
    """The lane scalars as a cold core of the spec holds them."""
    scheme = core.scheme
    tep_probe = bool(scheme.uses_tep and core._tep_gate == 0)
    policy = scheme.policy
    return {
        "tep_probe": tep_probe,
        "uses_vte": bool(scheme.uses_vte),
        "uses_ep_stall": bool(scheme.uses_ep_stall),
        "tolerates": bool(scheme.tolerates_predicted_faults),
        "sel_mode": SEL_MODE[
            "FFS" if isinstance(policy, FaultyFirstSelection)
            else "CDS" if isinstance(policy, CriticalityDrivenSelection)
            else "AGE"
        ],
        "crit_threshold": (core.config.criticality_threshold
                           if scheme.detects_criticality and tep_probe
                           else 0),
    }


def _timing(injector):
    return {pc: (t.timing_class, t.stage, t.path_fraction)
            for pc, t in injector._pc_timing.items()}


@pytest.mark.parametrize("spec", list(_specs()), ids=_id)
def test_scheme_scalars_read_from_the_spec_equal_the_cores(spec):
    assert scheme_scalars(spec) == _core_scalars(build_core(spec))


def test_nominal_supply_leaves_a_tep_scheme_unarmed():
    """At 1.10 V and the nominal clock nothing arms the sensor; a raised
    clock arms it at any supply."""
    spec = RunSpec("bzip2", SchemeKind.CDS, VDD_NOMINAL, 400, 300)
    assert scheme_scalars(spec)["tep_probe"] is False
    assert scheme_scalars(spec)["crit_threshold"] == 0
    spec.overclock = 1.04
    assert scheme_scalars(spec)["tep_probe"] is True


@pytest.mark.parametrize("spec", list(_specs(THRESHOLDS[:1])), ids=_id)
def test_build_injector_is_the_cores_injector(spec):
    """None exactly when the core has none; else the same assignment,
    clock and RNG state where the warmup starts."""
    injector = build_injector(spec)
    core = build_core(spec)
    assert (injector is None) == (core.injector is None)
    if injector is None:
        return
    assert _timing(injector) == _timing(core.injector)
    assert injector._rng.getstate() == core.injector._rng.getstate()
    assert injector.frequency_factor == core.injector.frequency_factor
