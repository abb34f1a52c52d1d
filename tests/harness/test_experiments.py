"""Experiment definitions (small-scale smoke + structure checks)."""

import math

import pytest

from repro.harness import experiments
from repro.harness.experiments import SchedulingSweep
from repro.core.schemes import SchemeKind
from repro.faults.timing import VDD_LOW_FAULT

_FAST = dict(n_instructions=1200, warmup=600, seed=2)
_BENCH = ["astar", "sjeng"]


@pytest.fixture(scope="module")
def sweep():
    return SchedulingSweep(VDD_LOW_FAULT, benchmarks=_BENCH, **_FAST)


class TestSweep:
    def test_results_cached(self, sweep):
        a = sweep.result("astar", SchemeKind.EP)
        b = sweep.result("astar", SchemeKind.EP)
        assert a is b

    def test_relative_overheads_structure(self, sweep):
        series = sweep.relative_overheads("perf")
        assert set(series) == {"ABS", "FFS", "CDS"}
        for by_bench in series.values():
            for value in by_bench.values():
                assert value >= 0.0


class TestFigures:
    def test_fig4_has_averages(self):
        result = experiments.fig4(benchmarks=_BENCH, **_FAST)
        assert set(result.data["averages"]) == {"ABS", "FFS", "CDS"}
        assert "Figure 4" in result.render()

    def test_fig8_uses_high_fault_voltage(self):
        result = experiments.fig8(benchmarks=["astar"], **_FAST)
        assert result.data["vdd"] == pytest.approx(0.97)

    def test_schemes_beat_ep_on_average(self):
        result = experiments.fig4(benchmarks=_BENCH, **_FAST)
        for avg in result.data["averages"].values():
            if not math.isnan(avg):
                assert avg < 1.0  # below the EP baseline


class TestTable1:
    def test_rows_and_render(self):
        result = experiments.table1(benchmarks=["astar"], **_FAST)
        entry = result.data["astar"]
        assert entry["ipc"] > 0
        assert 0.97 in entry and 1.04 in entry
        assert entry[0.97]["fr"] > entry[1.04]["fr"]
        assert "Table 1" in result.render()

    def test_razor_worse_than_ep(self):
        result = experiments.table1(benchmarks=["sjeng"], **_FAST)
        at_097 = result.data["sjeng"][0.97]
        assert at_097["razor"][0] > at_097["ep"][0]


class TestCircuitExperiments:
    def test_table2_structure(self):
        result = experiments.table2()
        assert set(result.data) == {"ABS", "FFS", "CDS"}
        assert result.data["CDS"]["sched"].area > result.data["ABS"]["sched"].area
        assert "Table 2" in result.render()

    def test_table3_reports_four_components(self):
        result = experiments.table3()
        assert set(result.data) == {
            "IssueQSelect", "ALU", "AGen", "ForwardCheck"
        }
        assert result.data["ALU"].n_gates > result.data["AGen"].n_gates

    def test_fig7_commonality_in_band(self):
        result = experiments.fig7(seed=3)
        for component, avg in result.data["averages"].items():
            assert 0.7 < avg <= 1.0
        series = result.data["series"]
        # vortex is the most input-local benchmark in every component
        for component in ("IssueQSelect", "AGen", "ForwardCheck", "ALU"):
            vortex = series["vortex"][component]
            assert vortex == max(s[component] for s in series.values())


def test_experiment_registry_complete():
    assert set(experiments.EXPERIMENTS) == {
        "table1", "fig4", "fig5", "fig8", "fig9",
        "table2", "table3", "fig7", "headline", "calibration", "shmoo",
    }


def test_shmoo_grid():
    result = experiments.shmoo(
        n_instructions=800, warmup=400, benchmarks=["astar"],
        vdds=(1.10, 0.97), overclocks=(1.0, 1.06),
    )
    assert len(result.data) == 4
    nominal = result.data[(1.10, 1.0)]
    assert nominal["fault_rate"] == 0.0
    assert nominal["throughput"] == pytest.approx(1.0)
    assert result.data[(0.97, 1.0)]["fault_rate"] > 0
    assert "Shmoo" in result.render()


def test_calibration_report():
    result = experiments.calibration(benchmarks=["astar"], **_FAST)
    assert "astar" in result.data["rows"]
    assert 0 <= result.data["mean_ipc_err"] < 1.0
    assert "Calibration" in result.render()


def test_headline_runs_each_voltage_sweep_once(monkeypatch):
    """The two figures at one voltage read one sweep: 2 voltages x 2
    benchmarks x 5 schemes is 20 simulations, not 40, and the numbers
    equal the figures computed one by one. Every measured window, a
    kernel lane or a scalar run, becomes a result in ``measured_result``,
    so the spy counts simulations on both tiers there."""
    from repro.harness import runner
    from repro.snapshot import batch

    measured_result, runs = runner.measured_result, []

    def spy(spec, *counters, **kwargs):
        runs.append(spec.key())
        return measured_result(spec, *counters, **kwargs)

    monkeypatch.setattr(runner, "measured_result", spy)
    monkeypatch.setattr(batch, "measured_result", spy)
    args = (600, 300, 1, ["astar", "bzip2"])
    data = experiments.headline(*args).data
    assert len(runs) == len(set(runs)) == 20
    for name, fig_fn in (("perf@1.04V", experiments.fig4),
                         ("ED@1.04V", experiments.fig5),
                         ("perf@0.97V", experiments.fig8),
                         ("ED@0.97V", experiments.fig9)):
        averages = fig_fn(*args).data["averages"]
        assert data[name]["per_scheme"] == {
            scheme: 1.0 - avg for scheme, avg in averages.items()
        }


def _seed_statistics(**kwargs):
    from repro.harness.multiseed import run_seeds

    result = run_seeds("astar", SchemeKind.ABS, 0.97, seeds=2, **kwargs)
    return {name: getattr(result, name).values
            for name in ("perf_overhead", "ed_overhead", "ipc", "fault_rate")}


_TINY = dict(n_instructions=600, warmup=300)
#: every driver that asks run_many for kernel lanes, at a tiny size
_DRIVERS = {
    "table1": lambda: experiments.table1(benchmarks=["astar"], **_TINY),
    "fig4": lambda: experiments.fig4(benchmarks=["astar"], **_TINY),
    "fig8": lambda: experiments.fig8(benchmarks=["astar"], **_TINY),
    "calibration": lambda: experiments.calibration(
        benchmarks=["astar"], **_TINY),
    "shmoo": lambda: experiments.shmoo(
        benchmarks=["astar"], vdds=(1.04, 0.97), overclocks=(1.0, 1.06),
        **_TINY),
    "headline": lambda: experiments.headline(benchmarks=["astar"], **_TINY),
    "run_seeds": lambda: _seed_statistics(**_TINY),
}


@pytest.mark.parametrize("driver", sorted(_DRIVERS))
def test_driver_runs_kernel_lanes_equal_to_scalar(driver, monkeypatch):
    """Each driver's data with kernel lanes equals its data with the
    kernel unavailable (every window scalar), and some window of the
    first run was a kernel lane."""
    from repro.snapshot import batch
    from repro.uarch import batchkernel

    if batchkernel.load_kernel() is None:
        pytest.skip("no compiled batch kernel")
    run_batch, reports = batch.run_batch, []

    def spy(specs, snapshot_dir, report=None, **kwargs):
        reports.append(report or batch.BatchReport())
        return run_batch(specs, snapshot_dir, reports[-1], **kwargs)

    monkeypatch.setattr(batch, "run_batch", spy)

    def data():
        out = _DRIVERS[driver]()
        return getattr(out, "data", out)

    with_lanes = data()
    assert sum(report.vector_lanes for report in reports) > 0
    monkeypatch.setattr(batchkernel, "load_kernel", lambda: None)
    assert data() == with_lanes
