"""MRE and TVP predictor variants (the designs the TEP combines)."""

import pytest

from repro.core.predictors import (
    MostRecentEntryPredictor,
    TimingViolationPredictor,
    make_predictor,
)
from repro.core.tep import TimingErrorPredictor
from repro.isa.opcodes import PipeStage


class TestMre:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            MostRecentEntryPredictor(0)

    def test_predicts_recent_violator(self):
        mre = MostRecentEntryPredictor(4)
        mre.train(mre.key_for(0x100, 0), PipeStage.ISSUE, True)
        prediction = mre.predict(0x100, 0)
        assert prediction is not None
        assert prediction.stage is PipeStage.ISSUE

    def test_single_fault_is_enough(self):
        # unlike counter-based designs, MRE predicts after one violation
        mre = MostRecentEntryPredictor(4)
        mre.train(0x100, PipeStage.MEM, True)
        assert mre.predict(0x100, 0) is not None

    def test_clean_execution_evicts(self):
        mre = MostRecentEntryPredictor(4)
        mre.train(0x100, PipeStage.ISSUE, True)
        mre.train(0x100, None, False)
        assert mre.predict(0x100, 0) is None

    def test_lru_replacement(self):
        mre = MostRecentEntryPredictor(2)
        mre.train(0x100, PipeStage.ISSUE, True)
        mre.train(0x200, PipeStage.ISSUE, True)
        mre.predict(0x100, 0)  # refresh 0x100
        mre.train(0x300, PipeStage.ISSUE, True)  # evicts 0x200
        assert mre.predict(0x100, 0) is not None
        assert mre.predict(0x200, 0) is None
        assert mre.predict(0x300, 0) is not None

    def test_history_ignored(self):
        mre = MostRecentEntryPredictor(4)
        mre.train(mre.key_for(0x100, 0b1010), PipeStage.ISSUE, True)
        assert mre.predict(0x100, 0b0101) is not None

    def test_criticality_sticky_on_refault(self):
        mre = MostRecentEntryPredictor(4)
        mre.train(0x100, PipeStage.ISSUE, True)
        mre.mark_critical(0x100)
        mre.train(0x100, PipeStage.ISSUE, True)
        assert mre.predict(0x100, 0).critical

    def test_occupancy_and_reset(self):
        mre = MostRecentEntryPredictor(4)
        mre.train(0x100, PipeStage.ISSUE, True)
        assert mre.occupancy == pytest.approx(0.25)
        mre.reset()
        assert mre.occupancy == 0.0


class TestTvp:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            TimingViolationPredictor(100)
        with pytest.raises(ValueError):
            TimingViolationPredictor(threshold=0)

    def test_needs_threshold_faults(self):
        tvp = TimingViolationPredictor(threshold=2, history_bits=0)
        key = tvp.key_for(0x100, 0)
        tvp.train(key, PipeStage.ISSUE, True)
        assert tvp.predict(0x100, 0) is None  # one fault: below threshold
        tvp.train(key, PipeStage.ISSUE, True)
        assert tvp.predict(0x100, 0) is not None

    def test_untagged_aliasing(self):
        # two PCs mapping to the same counter share a prediction — the
        # aliasing weakness the TEP's tags remove
        tvp = TimingViolationPredictor(n_entries=16, history_bits=0,
                                       threshold=1)
        alias = 0x100 + (16 << 2)
        assert tvp.key_for(0x100, 0) == tvp.key_for(alias, 0)
        tvp.train(tvp.key_for(0x100, 0), PipeStage.ISSUE, True)
        assert tvp.predict(alias, 0) is not None

    def test_counter_decay(self):
        tvp = TimingViolationPredictor(threshold=1, history_bits=0)
        key = tvp.key_for(0x100, 0)
        tvp.train(key, PipeStage.ISSUE, True)
        tvp.train(key, None, False)
        assert tvp.predict(0x100, 0) is None

    def test_history_changes_index(self):
        tvp = TimingViolationPredictor(history_bits=4)
        assert tvp.key_for(0x100, 0) != tvp.key_for(0x100, 0b1111)

    def test_occupancy_and_reset(self):
        tvp = TimingViolationPredictor(n_entries=16, threshold=1)
        tvp.train(3, PipeStage.ISSUE, True)
        assert tvp.occupancy == pytest.approx(1 / 16)
        tvp.reset()
        assert tvp.occupancy == 0.0


class TestFactory:
    def test_builds_all_kinds(self):
        assert isinstance(make_predictor("tep"), TimingErrorPredictor)
        assert isinstance(make_predictor("MRE"), MostRecentEntryPredictor)
        assert isinstance(make_predictor("tvp"), TimingViolationPredictor)

    def test_kwargs_forwarded(self):
        assert make_predictor("mre", n_entries=8).n_entries == 8
        assert make_predictor("tep", n_entries=64).config.n_entries == 64

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_predictor("oracle")


def test_predictor_quality_ordering():
    """End to end: TEP >= MRE >> TVP in prediction coverage (DESIGN.md)."""
    from repro.core.schemes import SchemeKind
    from repro.harness.runner import RunSpec, run_one

    coverage = {}
    for kind in ("tep", "mre", "tvp"):
        result = run_one(
            RunSpec("astar", SchemeKind.ABS, 0.97, 3000, 1500,
                    predictor=kind)
        )
        stats = result.stats
        coverage[kind] = (
            stats.faults_predicted / stats.faults_total
            if stats.faults_total else 1.0
        )
    assert coverage["tep"] >= coverage["mre"] - 0.05
    assert coverage["mre"] > coverage["tvp"]


def test_mark_critical_says_whether_the_mark_landed():
    mre = MostRecentEntryPredictor(4)
    assert mre.mark_critical(0x100) is False  # not resident
    mre.train(0x100, PipeStage.ISSUE, True)
    assert mre.mark_critical(0x100) is True
    tvp = TimingViolationPredictor()
    assert tvp.mark_critical(None) is False
    assert tvp.mark_critical(tvp.key_for(0x100, 0)) is True  # untagged
    tep = TimingErrorPredictor()
    key = tep.key_for(0x100, 0)
    assert tep.mark_critical(key) is False
    tep.train(key, PipeStage.ISSUE, True)
    assert tep.mark_critical(key) is True
