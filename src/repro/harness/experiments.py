"""Experiment definitions: one function per table/figure of the paper.

Every experiment returns a result object with the raw data (``data``) and a
``render()`` method producing the text report; the CLI and the benchmark
suite are thin wrappers over these.

The scheduling experiments share simulation runs through a
:class:`SchedulingSweep`, which runs (benchmark x scheme) at one supply
voltage and caches the results — Figure 4 and 5 (and 8 and 9) use the same
sweep. :func:`prefetch` fills several sweeps with one
:func:`~repro.harness.parallel.run_many`, so a benchmark's windows at
every supply share one kernel call.
"""

from repro.core.schemes import SchemeKind
from repro.faults.timing import VDD_HIGH_FAULT, VDD_LOW_FAULT, VDD_NOMINAL
from repro.harness import paper_data
from repro.harness.parallel import DRIVER_LANES, run_many
from repro.harness.runner import RunSpec
from repro.harness.tables import format_bar_series, format_table
from repro.workloads.profiles import profile_names

_PROPOSED = (SchemeKind.ABS, SchemeKind.FFS, SchemeKind.CDS)
#: a figure's schemes: the fault-free baseline, EP and the proposed three
_FIGURE_SCHEMES = (SchemeKind.FAULT_FREE, SchemeKind.EP) + _PROPOSED


class ExperimentResult:
    """Raw data plus a text rendering for one experiment."""

    def __init__(self, name, data, text):
        self.name = name
        self.data = data
        self._text = text

    def render(self):
        """The plain-text report."""
        return self._text

    def __repr__(self):
        return f"ExperimentResult({self.name})"


class SchedulingSweep:
    """Caches (benchmark, scheme) simulation results at one voltage.

    ``jobs``/``cache``/``cache_dir`` configure the batch engine
    (:func:`repro.harness.parallel.run_many`) used to fill the sweep:
    points requested in bulk (:func:`prefetch` over several sweeps,
    :meth:`prefetch` over this one, or implicitly
    :meth:`relative_overheads`) fan out over ``jobs`` worker processes,
    and with ``cache`` enabled every point is persisted to — and replayed
    from — the on-disk result cache. Every driver in this module runs
    each eligible point as a lane of the compiled batch kernel
    (:data:`~repro.harness.parallel.DRIVER_LANES`), bit-identical to its
    scalar run; only a missing compiler keeps them scalar. The windows of
    one benchmark share a stream whatever their scheme and supply, so a
    driver that fills its sweeps together runs one kernel call per
    benchmark.
    """

    def __init__(self, vdd, n_instructions=10000, warmup=4000, seed=1,
                 benchmarks=None, jobs=1, cache=False, cache_dir=None):
        self.vdd = vdd
        self.n_instructions = n_instructions
        self.warmup = warmup
        self.seed = seed
        self.benchmarks = list(benchmarks or profile_names())
        self.jobs = jobs
        self.cache = cache
        self.cache_dir = cache_dir
        self._cache = {}

    def spec(self, benchmark, scheme):
        """The :class:`RunSpec` of one sweep point."""
        return RunSpec(
            benchmark, scheme, self.vdd,
            self.n_instructions, self.warmup, self.seed,
        )

    def _run_many(self, specs):
        return run_many(
            specs, jobs=self.jobs, cache=self.cache,
            cache_dir=self.cache_dir, batch_lanes=DRIVER_LANES,
        )

    def prefetch(self, schemes):
        """Fill the (benchmark x scheme) grid through the batch engine."""
        prefetch([(self, schemes)])

    def result(self, benchmark, scheme):
        """Run (or fetch) one simulation point."""
        key = (benchmark, scheme)
        if key not in self._cache:
            self._cache[key] = self._run_many([self.spec(*key)])[0]
        return self._cache[key]

    def baseline(self, benchmark):
        """The fault-free baseline at this voltage."""
        return self.result(benchmark, SchemeKind.FAULT_FREE)

    def perf_overhead(self, benchmark, scheme):
        """Cycle overhead of a scheme vs the fault-free baseline."""
        return self.result(benchmark, scheme).perf_overhead(
            self.baseline(benchmark)
        )

    def ed_overhead(self, benchmark, scheme):
        """Energy-delay overhead of a scheme vs the fault-free baseline."""
        return self.result(benchmark, scheme).ed_overhead(
            self.baseline(benchmark)
        )

    def relative_overheads(self, metric="perf"):
        """{scheme_name: {benchmark: overhead normalized to EP}}.

        Benchmarks where the EP overhead is non-positive (possible at very
        low fault rates with measurement noise) are skipped — a ratio to a
        <=0 denominator is meaningless.
        """
        self.prefetch(_FIGURE_SCHEMES)
        fn = self.perf_overhead if metric == "perf" else self.ed_overhead
        series = {s.name: {} for s in _PROPOSED}
        for benchmark in self.benchmarks:
            ep = fn(benchmark, SchemeKind.EP)
            if ep <= 0:
                continue
            for scheme in _PROPOSED:
                series[scheme.name][benchmark] = max(
                    fn(benchmark, scheme), 0.0
                ) / ep
        return series


def prefetch(grids):
    """Fill several sweeps' grids with one :func:`run_many`.

    ``grids`` holds ``(sweep, schemes)`` pairs; every (benchmark x
    scheme) point of each sweep's grid not yet cached runs, with the
    first sweep's engine settings. Points of one benchmark at several
    supplies share a stream, so they share a kernel call.
    """
    missing = [
        (sweep, (benchmark, scheme))
        for sweep, schemes in grids
        for benchmark in sweep.benchmarks
        for scheme in schemes
        if (benchmark, scheme) not in sweep._cache
    ]
    if not missing:
        return
    results = missing[0][0]._run_many(
        [sweep.spec(*point) for sweep, point in missing])
    for (sweep, point), result in zip(missing, results):
        sweep._cache[point] = result


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
def table1(n_instructions=10000, warmup=4000, seed=1, benchmarks=None,
           sweeps=None, jobs=1, cache=False, cache_dir=None):
    """Reproduce Table 1: IPC, fault rates, Razor and EP overheads.

    ``sweeps`` optionally supplies precomputed
    {vdd: :class:`SchedulingSweep`} so runs are shared with the figure
    experiments.
    """
    benchmarks = list(benchmarks or profile_names())
    rows = []
    data = {}
    if sweeps is None:
        sweeps = {
            vdd: SchedulingSweep(vdd, n_instructions, warmup, seed,
                                 benchmarks, jobs=jobs, cache=cache,
                                 cache_dir=cache_dir)
            for vdd in (VDD_HIGH_FAULT, VDD_LOW_FAULT)
        }
    # the fault-free IPC column runs at the nominal supply, on the same
    # streams as the sweeps: one kernel call per benchmark fills all three
    nominal = SchedulingSweep(VDD_NOMINAL, n_instructions, warmup, seed,
                              benchmarks, jobs=jobs, cache=cache,
                              cache_dir=cache_dir)
    table1_schemes = (SchemeKind.FAULT_FREE, SchemeKind.RAZOR, SchemeKind.EP)
    prefetch([(sweep, table1_schemes) for sweep in sweeps.values()]
             + [(nominal, (SchemeKind.FAULT_FREE,))])
    for benchmark in benchmarks:
        ipc = nominal.baseline(benchmark).ipc
        entry = {"ipc": ipc}
        row = [benchmark, round(ipc, 2)]
        for vdd in (VDD_HIGH_FAULT, VDD_LOW_FAULT):
            sweep = sweeps[vdd]
            razor = sweep.result(benchmark, SchemeKind.RAZOR)
            fr = razor.fault_rate * 100
            razor_ov = (
                sweep.perf_overhead(benchmark, SchemeKind.RAZOR) * 100,
                sweep.ed_overhead(benchmark, SchemeKind.RAZOR) * 100,
            )
            ep_ov = (
                sweep.perf_overhead(benchmark, SchemeKind.EP) * 100,
                sweep.ed_overhead(benchmark, SchemeKind.EP) * 100,
            )
            entry[vdd] = {"fr": fr, "razor": razor_ov, "ep": ep_ov}
            row.extend([
                round(fr, 2),
                f"({razor_ov[0]:.1f},{razor_ov[1]:.1f})",
                f"({ep_ov[0]:.2f},{ep_ov[1]:.2f})",
            ])
        paper = paper_data.PAPER_TABLE1[benchmark]
        row.append(f"[paper ipc={paper.ipc}, fr={paper.fr_high}/{paper.fr_low}]")
        rows.append(row)
        data[benchmark] = entry
    text = format_table(
        ["bench", "IPC", "FR%@0.97", "Razor@0.97", "EP@0.97",
         "FR%@1.04", "Razor@1.04", "EP@1.04", "paper"],
        rows,
        title="Table 1: fault rates and Razor/EP overhead (perf%, ED%)",
    )
    return ExperimentResult("table1", data, text)


# ----------------------------------------------------------------------
# Figures 4/5 (1.04V) and 8/9 (0.97V)
# ----------------------------------------------------------------------
def _sweep(vdd, n_instructions, warmup, seed, benchmarks, jobs, cache,
           cache_dir):
    """A figure's sweep: every profile at 1.04 V, high-FR set at 0.97 V."""
    if benchmarks is None:
        benchmarks = (profile_names() if vdd == VDD_LOW_FAULT
                      else paper_data.HIGH_FR_BENCHMARKS)
    return SchedulingSweep(vdd, n_instructions, warmup, seed, benchmarks,
                           jobs=jobs, cache=cache, cache_dir=cache_dir)


def _figure(metric, vdd, name, title, n_instructions, warmup, seed,
            benchmarks, sweep=None, jobs=1, cache=False, cache_dir=None):
    if sweep is None:
        sweep = _sweep(vdd, n_instructions, warmup, seed, benchmarks, jobs,
                       cache, cache_dir)
    benchmarks = sweep.benchmarks
    series = sweep.relative_overheads(metric)
    averages = {
        name_: (sum(vals.values()) / len(vals) if vals else float("nan"))
        for name_, vals in series.items()
    }
    for name_, avg in averages.items():
        series[name_]["AVERAGE"] = avg
    text = format_bar_series(
        title, list(benchmarks) + ["AVERAGE"], series
    )
    return ExperimentResult(
        name, {"series": series, "averages": averages, "vdd": vdd}, text
    )


def fig4(n_instructions=10000, warmup=4000, seed=1, benchmarks=None,
         sweep=None, jobs=1, cache=False, cache_dir=None):
    """Figure 4: performance overhead vs EP at 1.04V (lower is better)."""
    return _figure(
        "perf", VDD_LOW_FAULT, "fig4",
        "Figure 4: relative performance overhead vs EP (VDD=1.04V)",
        n_instructions, warmup, seed, benchmarks, sweep,
        jobs=jobs, cache=cache, cache_dir=cache_dir,
    )


def fig5(n_instructions=10000, warmup=4000, seed=1, benchmarks=None,
         sweep=None, jobs=1, cache=False, cache_dir=None):
    """Figure 5: ED overhead vs EP at 1.04V."""
    return _figure(
        "ed", VDD_LOW_FAULT, "fig5",
        "Figure 5: relative ED overhead vs EP (VDD=1.04V)",
        n_instructions, warmup, seed, benchmarks, sweep,
        jobs=jobs, cache=cache, cache_dir=cache_dir,
    )


def fig8(n_instructions=10000, warmup=4000, seed=1, benchmarks=None,
         sweep=None, jobs=1, cache=False, cache_dir=None):
    """Figure 8: performance overhead vs EP at 0.97V."""
    return _figure(
        "perf", VDD_HIGH_FAULT, "fig8",
        "Figure 8: relative performance overhead vs EP (VDD=0.97V)",
        n_instructions, warmup, seed, benchmarks, sweep,
        jobs=jobs, cache=cache, cache_dir=cache_dir,
    )


def fig9(n_instructions=10000, warmup=4000, seed=1, benchmarks=None,
         sweep=None, jobs=1, cache=False, cache_dir=None):
    """Figure 9: ED overhead vs EP at 0.97V."""
    return _figure(
        "ed", VDD_HIGH_FAULT, "fig9",
        "Figure 9: relative ED overhead vs EP (VDD=0.97V)",
        n_instructions, warmup, seed, benchmarks, sweep,
        jobs=jobs, cache=cache, cache_dir=cache_dir,
    )


# ----------------------------------------------------------------------
# Table 2 / Table 3 / Figure 7 (circuit-level)
# ----------------------------------------------------------------------
def table2():
    """Reproduce Table 2: VTE area/power overheads."""
    from repro.power.overhead import SchedulerOverheadModel

    model = SchedulerOverheadModel()
    rows = []
    data = {}
    for scheme, sched, core in model.table2():
        paper = paper_data.PAPER_TABLE2[scheme]
        rows.append([
            scheme,
            f"{sched.area:.2%}", f"{sched.dynamic:.2%}",
            f"{sched.leakage:.2%}",
            f"{core.area:.3%}", f"{core.dynamic:.3%}", f"{core.leakage:.3%}",
            f"[paper sched {paper['sched']}]",
        ])
        data[scheme] = {"sched": sched, "core": core}
    text = format_table(
        ["scheme", "area", "dyn", "leak", "core area", "core dyn",
         "core leak", "paper"],
        rows,
        title="Table 2: VTE area/power overhead vs baseline scheduler",
    )
    return ExperimentResult("table2", data, text)


def table3(mapped=True):
    """Reproduce Table 3: synthesized component characteristics."""
    from repro.circuits.builders import (
        build_agen,
        build_alu,
        build_forward_check,
        build_issue_select,
    )
    from repro.circuits.synthesis import synthesize

    builders = {
        "IssueQSelect": build_issue_select,
        "ALU": build_alu,
        "AGen": build_agen,
        "ForwardCheck": build_forward_check,
    }
    rows = []
    data = {}
    for name, builder in builders.items():
        netlist, _ = builder()
        report = synthesize(netlist, mapped=mapped)
        paper_gates, paper_depth = paper_data.PAPER_TABLE3[name]
        rows.append([
            name, report.n_gates, report.depth, round(report.area, 1),
            f"[paper {paper_gates}/{paper_depth}]",
        ])
        data[name] = report
    text = format_table(
        ["module", "gates", "depth", "area um^2", "paper gates/depth"],
        rows,
        title=f"Table 3: synthesized components ({'NAND-mapped' if mapped else 'native'})",
    )
    return ExperimentResult("table3", data, text)


def fig7(seed=7):
    """Reproduce Figure 7: sensitized-path commonality per component."""
    from repro.circuits.builders import (
        build_agen,
        build_alu,
        build_forward_check,
        build_issue_select,
    )
    from repro.circuits.sensitization import (
        toggle_sets_per_pc,
        weighted_commonality,
    )
    from repro.workloads.operand_streams import (
        FIG7_COMPONENTS,
        SPEC2000INT_PROFILES,
        StreamBuilder,
    )

    builders = {
        "IssueQSelect": build_issue_select,
        "AGen": build_agen,
        "ForwardCheck": build_forward_check,
        "ALU": build_alu,
    }
    series = {name: {} for name in SPEC2000INT_PROFILES}
    averages = {}
    for component in FIG7_COMPONENTS:
        netlist, _ = builders[component]()
        values = []
        for bench, profile in SPEC2000INT_PROFILES.items():
            stream = StreamBuilder(profile, seed=seed).stream_for(component)
            sets = toggle_sets_per_pc(netlist, stream)
            value = weighted_commonality(sets)
            series[bench][component] = value
            values.append(value)
        averages[component] = sum(values) / len(values)
    text = format_bar_series(
        "Figure 7: sensitized-path commonality "
        f"(paper avgs: {paper_data.PAPER_FIG7_AVG})",
        list(FIG7_COMPONENTS),
        series,
    )
    return ExperimentResult(
        "fig7", {"series": series, "averages": averages}, text
    )


# ----------------------------------------------------------------------
# headline claims (abstract / Section 5.2 / Section S2)
# ----------------------------------------------------------------------
def headline(n_instructions=10000, warmup=4000, seed=1, benchmarks=None,
             sweeps=None, jobs=1, cache=False, cache_dir=None):
    """Average overhead reductions vs EP, compared to the paper's claims.

    ``sweeps`` optionally maps vdd -> precomputed :class:`SchedulingSweep`;
    the two figures at one voltage share one sweep either way.
    """
    sweeps = {vdd: (sweeps or {}).get(vdd) or _sweep(
        vdd, n_instructions, warmup, seed, benchmarks, jobs, cache,
        cache_dir) for vdd in (VDD_LOW_FAULT, VDD_HIGH_FAULT)}
    # both supplies in one run_many: a benchmark's windows share a call
    prefetch([(sweep, _FIGURE_SCHEMES) for sweep in sweeps.values()])
    results = {}
    for name, fig_fn, claim_key, vdd in (
        ("perf@1.04V", fig4, "perf_reduction_low_fr", VDD_LOW_FAULT),
        ("ED@1.04V", fig5, "ed_reduction_low_fr", VDD_LOW_FAULT),
        ("perf@0.97V", fig8, "perf_reduction_high_fr", VDD_HIGH_FAULT),
        ("ED@0.97V", fig9, "ed_reduction_high_fr", VDD_HIGH_FAULT),
    ):
        fig = fig_fn(n_instructions, warmup, seed, benchmarks,
                     sweep=sweeps[vdd])
        best = min(fig.data["averages"].values())
        reduction = 1.0 - best
        results[name] = {
            "measured_reduction": reduction,
            "paper_reduction": paper_data.PAPER_CLAIMS[claim_key],
            "per_scheme": {
                k: 1.0 - v for k, v in fig.data["averages"].items()
            },
        }
    rows = [
        [name, f"{r['measured_reduction']:.0%}", f"{r['paper_reduction']:.0%}"]
        for name, r in results.items()
    ]
    text = format_table(
        ["metric", "measured avg reduction", "paper"],
        rows,
        title="Headline: average overhead reduction vs Error Padding",
    )
    return ExperimentResult("headline", results, text)


# ----------------------------------------------------------------------
# calibration report (not a paper artifact; quality gate for the repro)
# ----------------------------------------------------------------------
def calibration(n_instructions=10000, warmup=4000, seed=1, benchmarks=None,
                jobs=1, cache=False, cache_dir=None):
    """Measured vs paper fault-free IPC and fault rates per benchmark."""
    benchmarks = list(benchmarks or profile_names())
    rows = []
    data = {}
    grid = [
        RunSpec(benchmark, scheme, vdd, n_instructions, warmup, seed)
        for benchmark in benchmarks
        for scheme, vdd in (
            (SchemeKind.FAULT_FREE, VDD_NOMINAL),
            (SchemeKind.RAZOR, VDD_LOW_FAULT),
            (SchemeKind.RAZOR, VDD_HIGH_FAULT),
        )
    ]
    points = run_many(grid, jobs=jobs, cache=cache, cache_dir=cache_dir,
                      batch_lanes=DRIVER_LANES)
    for i, benchmark in enumerate(benchmarks):
        paper = paper_data.PAPER_TABLE1[benchmark]
        ipc = points[3 * i].ipc
        fr_low = points[3 * i + 1].fault_rate * 100
        fr_high = points[3 * i + 2].fault_rate * 100
        ipc_err = abs(ipc - paper.ipc) / paper.ipc
        rows.append([
            benchmark,
            round(ipc, 2), paper.ipc, f"{ipc_err:.0%}",
            round(fr_low, 2), paper.fr_low,
            round(fr_high, 2), paper.fr_high,
        ])
        data[benchmark] = {
            "ipc": ipc, "ipc_paper": paper.ipc, "ipc_err": ipc_err,
            "fr_low": fr_low, "fr_high": fr_high,
        }
    mean_err = sum(d["ipc_err"] for d in data.values()) / len(data)
    text = format_table(
        ["bench", "IPC", "paper", "err", "FR%@1.04", "paper",
         "FR%@0.97", "paper"],
        rows,
        title=(
            "Calibration vs Table 1 "
            f"(mean |IPC error| = {mean_err:.1%})"
        ),
    )
    return ExperimentResult(
        "calibration", {"rows": data, "mean_ipc_err": mean_err}, text
    )


# ----------------------------------------------------------------------
# shmoo characterization (not a paper artifact; silicon-style V/f grid)
# ----------------------------------------------------------------------
def shmoo(n_instructions=4000, warmup=2000, seed=1, benchmarks=None,
          scheme=SchemeKind.ABS, vdds=(1.10, 1.04, 0.97),
          overclocks=(1.00, 1.04, 1.08), jobs=1, cache=False,
          cache_dir=None):
    """Voltage/frequency grid: fault rate and net throughput per cell.

    Net throughput is IPC x frequency factor, normalized to the fault-free
    nominal corner — the classic silicon shmoo, answering "which (V, f)
    corners are profitable under this fault-tolerance scheme?".
    """
    benchmark = (benchmarks or ["bzip2"])[0]
    cells = [(vdd, factor) for vdd in vdds for factor in overclocks]
    specs = [
        RunSpec(benchmark, SchemeKind.FAULT_FREE, VDD_NOMINAL,
                n_instructions, warmup, seed)
    ] + [
        RunSpec(benchmark, scheme, vdd, n_instructions, warmup, seed,
                overclock=factor)
        for vdd, factor in cells
    ]
    points = run_many(specs, jobs=jobs, cache=cache, cache_dir=cache_dir,
                      batch_lanes=DRIVER_LANES)
    nominal = points[0]
    rows = []
    data = {}
    for (vdd, factor), result in zip(cells, points[1:]):
        throughput = result.ipc * factor / nominal.ipc
        rows.append([
            vdd, factor, f"{result.fault_rate:.2%}",
            round(throughput, 3),
            "+" if throughput > 1.0 else ("=" if throughput == 1 else "-"),
        ])
        data[(vdd, factor)] = {
            "fault_rate": result.fault_rate,
            "throughput": throughput,
        }
    scheme_name = getattr(scheme, "name", str(scheme))
    text = format_table(
        ["VDD", "f", "fault rate", "net throughput", ""],
        rows,
        title=(
            f"Shmoo: {benchmark} under {scheme_name} "
            "(throughput normalized to fault-free nominal corner)"
        ),
    )
    return ExperimentResult("shmoo", data, text)


#: All experiments by name (used by the CLI).
EXPERIMENTS = {
    "calibration": calibration,
    "shmoo": shmoo,
    "table1": table1,
    "fig4": fig4,
    "fig5": fig5,
    "fig8": fig8,
    "fig9": fig9,
    "table2": table2,
    "table3": table3,
    "fig7": fig7,
    "headline": headline,
}
