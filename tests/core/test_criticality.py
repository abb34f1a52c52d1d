"""Criticality Detection Logic (CDL)."""

import pytest

from repro.core.criticality import (
    CriticalityDetector,
    DEFAULT_CRITICALITY_THRESHOLD,
)
from repro.core.tep import TimingErrorPredictor
from repro.isa.instruction import DynInst, StaticInst
from repro.isa.opcodes import OpClass, PipeStage


def _inst(pc=0x1000):
    return DynInst(0, StaticInst(pc, OpClass.IALU, dest=1))


@pytest.fixture
def tep():
    return TimingErrorPredictor()


def test_paper_threshold_default():
    assert DEFAULT_CRITICALITY_THRESHOLD == 8


def test_rejects_bad_threshold(tep):
    with pytest.raises(ValueError):
        CriticalityDetector(tep, threshold=0)


def test_below_threshold_not_critical(tep):
    cdl = CriticalityDetector(tep)
    inst = _inst()
    inst.tep_key = tep.key_for(inst.pc, 0)
    tep.train(inst.tep_key, PipeStage.ISSUE, True)
    assert cdl.observe_broadcast(inst, 7) is False
    assert not tep.predict(inst.pc, 0).critical


def test_at_threshold_marks_tep_entry(tep):
    cdl = CriticalityDetector(tep)
    inst = _inst()
    inst.tep_key = tep.key_for(inst.pc, 0)
    tep.train(inst.tep_key, PipeStage.ISSUE, True)
    assert cdl.observe_broadcast(inst, 8) is True
    assert tep.predict(inst.pc, 0).critical


def test_without_key_observation_counts_but_marks_nothing(tep):
    cdl = CriticalityDetector(tep)
    inst = _inst()
    assert cdl.observe_broadcast(inst, 20) is True
    assert cdl.observations == 1


def test_mark_rate(tep):
    cdl = CriticalityDetector(tep, threshold=4)
    inst = _inst()
    cdl.observe_broadcast(inst, 2)
    cdl.observe_broadcast(inst, 5)
    cdl.observe_broadcast(inst, 9)
    assert cdl.mark_rate == pytest.approx(2 / 3)


def test_mark_rate_without_observations(tep):
    assert CriticalityDetector(tep).mark_rate == 0.0


def test_custom_threshold(tep):
    cdl = CriticalityDetector(tep, threshold=2)
    inst = _inst()
    inst.tep_key = tep.key_for(inst.pc, 0)
    tep.train(inst.tep_key, PipeStage.MEM, True)
    cdl.observe_broadcast(inst, 2)
    assert tep.predict(inst.pc, 0).critical


def test_landed_marks_count_only_marks_on_a_resident_entry(tep):
    cdl = CriticalityDetector(tep, threshold=2)
    inst = _inst()
    inst.tep_key = tep.key_for(inst.pc, 0)
    assert cdl.observe_broadcast(inst, 5) is True  # no entry: lands nowhere
    tep.train(inst.tep_key, PipeStage.ISSUE, True)
    assert cdl.observe_broadcast(inst, 5) is True
    assert cdl.observe_broadcast(inst, 1) is False
    assert (cdl.critical_marks, cdl.landed_marks) == (2, 1)


def test_sim_stats_count_landed_marks_over_the_measured_window():
    """CDS at CT = 2 lands marks on gcc, and ``critical_marks_landed``
    counts only those of the measured window. At the paper's CT = 8 no
    mark lands there, and a scheme without CDS never marks."""
    from repro.core.schemes import SchemeKind
    from repro.harness.runner import RunSpec, measure, run_one, warm_core
    from repro.uarch.config import CoreConfig

    def spec(scheme, threshold):
        return RunSpec("gcc", scheme, 0.97, 3000, 1500, seed=1,
                       config=CoreConfig(criticality_threshold=threshold))

    cds = spec(SchemeKind.CDS, 2)
    core = warm_core(cds)
    at_boundary = core.cdl.landed_marks
    stats = measure(core, cds).stats
    assert at_boundary > 0
    assert stats.critical_marks_landed == core.cdl.landed_marks - at_boundary
    assert stats.critical_marks_landed > 0
    assert run_one(spec(SchemeKind.CDS, 8)).stats.critical_marks_landed == 0
    assert run_one(spec(SchemeKind.ABS, 2)).stats.critical_marks_landed == 0
