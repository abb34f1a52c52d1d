"""One workload of the end-to-end benchmark, run in this interpreter.

``run.py`` starts this script in a fresh interpreter for every workload
(and for every set-up probe), so imports, program builds and the kernel
compile are paid here and timed as set-up::

    python benchmarks/e2e/workload.py --workload NAME --seed N \
        [--seconds S] [--repeats R] [--quick] [--trace DIR] [--setup-only]

It repeats the workload's unit of work, each time in fresh campaign,
result-cache and snapshot directories, so every repeat does the same
work. It checks every repeat's output and prints one JSON object as its
last line of standard output. The environment (``PYTHONPATH``,
``REPRO_KERNEL_CACHE``, ``TMPDIR``) is set by ``run.py``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

#: every simulation measures 6000 instructions after prime_caches and a
#: 3000-instruction warmup, so the modelled caches start warm
N_INSTRUCTIONS = 6000
WARMUP = 3000
LANES = 16
JOBS = 2  # pool jobs and fleet workers: nproc of the reference box

# Grids: (benchmarks, schemes, vdds, draws per point). The two voltages
# give high (~8%) and low (~2%) fault rates; the four benchmarks differ
# in memory behaviour. CDS stays out of the kernel grid: it falls back
# to the scalar tier for a whole batch and would swamp the kernel layers.
# Every point simulates its own synthetic program, built from the seed,
# and one program's cost varies 8-21% between seeds; a unit of 16
# independent points averages most of that out.
KERNEL_GRID = (("gcc", "bzip2", "mcf", "astar"), ("EP", "ABS"),
               (0.97, 1.04), 32)
# the same points, first two draws: a subset of the kernel grid's draws
SCALAR_GRID = KERNEL_GRID[:3] + (2,)
QUICK = {
    "campaign_kernel": (("gcc",), ("ABS",), (0.97, 1.04), 16),
    "campaign_scalar": (("gcc",), ("ABS",), (0.97,), 4),
    "fleet_kernel": (("gcc",), ("ABS",), (0.97, 1.04), 16),
    "paper_headline": ("astar", "bzip2"),
}


class Workload:
    """A named unit of work, how to set it up, and how to check it."""

    name = None
    kernel = False  # needs the compiled batch kernel

    def __init__(self, seed, quick):
        self.seed = seed
        self.quick = quick

    def setup(self):
        """Import and build everything a unit needs (timed as set-up)."""

    def run(self, workdir):
        """Run one unit in ``workdir``; returns its output."""
        raise NotImplementedError

    def check(self, output):
        """``(errors, digests)`` of one unit's output."""
        raise NotImplementedError

    def reference(self, workdir, output):
        """``(errors, notes)`` from comparing ``output`` with another run."""
        return [], []

    def claims(self, output):
        """``{claim: [measured, paper]}`` to print beside the metrics."""
        return None


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------
def campaign_spec(seed, grid):
    from repro.campaign.plan import CampaignSpec

    benchmarks, schemes, vdds, draws = grid
    # fixed N: the stopping rule cannot change the amount of work
    return CampaignSpec(
        "e2e", benchmarks, schemes, vdds, n_instructions=N_INSTRUCTIONS,
        warmup=WARMUP, master_seed=seed, min_seeds=draws, max_seeds=draws,
        batch_size=LANES,
    )


def pool_campaign(directory, spec, lanes):
    """``run_campaign`` with a fresh result cache and snapshot store."""
    from repro.campaign import executor

    executor.run_campaign(
        os.path.join(directory, "campaign"), spec, jobs=1, cache=True,
        cache_dir=os.path.join(directory, "cache"), snapshots=True,
        snapshot_dir=os.path.join(directory, "snapshots"), batch_lanes=lanes,
    )
    return os.path.join(directory, "campaign")


def read_runs(directory):
    """``{(point, index): run event}`` of a campaign journal."""
    runs = {}
    with open(os.path.join(directory, "journal.jsonl")) as fh:
        for line in fh:
            event = json.loads(line)
            if event["event"] == "run":
                runs[(event["point"], event["index"])] = event
    return runs


def rounding_only(a, b):
    """True when ``a`` and ``b`` differ at most in float rounding."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            rounding_only(a[k], b[k]) for k in a)
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
    return a == b


def compare_runs(directory, ref_dir, label):
    """``(errors, notes)`` for ``ref_dir``'s run events vs ``directory``'s.

    The batch kernel sums a lane's energy terms in another order than
    the scalar core, so ``ed_overhead`` can differ in its last digit
    between tiers. Such draws are counted as a note; any other
    difference is an error.
    """
    runs, ref = read_runs(directory), read_runs(ref_dir)
    if not ref:
        return [f"{label}: the reference journaled no draws"], []
    differ = [key for key, event in ref.items() if runs.get(key) != event]
    bad = [key for key in differ if not rounding_only(runs.get(key), ref[key])]
    if bad:
        return [f"{label}: {len(bad)} of {len(ref)} draws differ, "
                f"first {bad[0]}"], []
    if differ:
        return [], [f"{label}: {len(differ)} of {len(ref)} draws differ "
                    f"only in float rounding, first {differ[0]}"]
    return [], []


class Campaign(Workload):
    """A campaign through ``run_campaign``; ``lanes`` picks the tier."""

    grid = KERNEL_GRID
    lanes = LANES
    kernel = True

    def setup(self):
        from repro.campaign import executor  # noqa: F401
        from repro.harness.runner import build_core

        if self.quick:
            self.grid = QUICK[self.name]
        self.spec = campaign_spec(self.seed, self.grid)
        for point in self.spec.points():
            build_core(self.spec.pair_specs(point, 0)[0])
        if self.kernel:
            import repro.snapshot.batch  # noqa: F401
            import repro.uarch.batchcore  # noqa: F401

    def expected_results(self):
        return len(self.spec.points()) * self.spec.max_seeds

    def run(self, workdir):
        return pool_campaign(workdir, self.spec, self.lanes)

    def check(self, directory):
        from repro.campaign.report import build_report

        errors = []
        blobs = {}
        for key, name in (("journal", "journal.jsonl"),
                          ("report", "report.json")):
            with open(os.path.join(directory, name), "rb") as fh:
                blobs[key] = fh.read()
        events = [json.loads(line) for line in blobs["journal"].splitlines()]
        failed = [e["point"] for e in events
                  if e["event"] == "point" and e.get("failure")]
        if failed:
            errors.append(f"failed points: {failed}")
        if not events or events[-1] != {"event": "done"}:
            errors.append("journal does not end in a done event")
        try:
            report = json.loads(blobs["report"])
        except ValueError as exc:
            errors.append(f"report.json does not parse: {exc}")
        else:
            if report != build_report(directory):
                errors.append("report.json is not the fold of journal.jsonl")
        digests = {k: hashlib.sha256(v).hexdigest() for k, v in blobs.items()}
        return errors, digests


class KernelCampaign(Campaign):
    name = "campaign_kernel"

    def reference(self, workdir, output):
        # a sample of the grid, one draw per point, on the scalar tier
        benchmarks, schemes, vdds, _ = self.grid
        grid = (benchmarks[-2:], schemes[-1:], vdds, 1)
        ref = pool_campaign(workdir, campaign_spec(self.seed, grid), None)
        return compare_runs(output, ref, "kernel vs scalar tier")


class ScalarCampaign(Campaign):
    name = "campaign_scalar"
    grid = SCALAR_GRID
    lanes = None
    kernel = False

    def reference(self, workdir, output):
        ref = pool_campaign(workdir, self.spec, LANES)
        return compare_runs(output, ref, "scalar vs kernel tier")


class Fleet(Campaign):
    """``fleet_run`` of the kernel campaign with two local workers."""

    name = "fleet_kernel"

    def setup(self):
        super().setup()
        from repro.fleet import service  # noqa: F401

        # fleet workers read the lane count from their environment
        os.environ["REPRO_BATCH_LANES"] = str(LANES)

    def run(self, workdir):
        from repro.fleet import service

        directory = os.path.join(workdir, "fleet")
        service.fleet_run(
            directory, self.spec, workers=JOBS, cache=True,
            cache_dir=os.path.join(workdir, "cache"), snapshots=True,
            snapshot_dir=os.path.join(workdir, "snapshots"),
        )
        return directory

    def reference(self, workdir, output):
        # the first benchmark's points through the pool, on the same tier:
        # the draws must match exactly (run.py compares the whole journal
        # and report with campaign_kernel's when both workloads ran)
        benchmarks, schemes, vdds, draws = self.grid
        grid = (benchmarks[:1], schemes, vdds, draws)
        ref = pool_campaign(workdir, campaign_spec(self.seed, grid), LANES)
        errors, notes = compare_runs(output, ref, "fleet vs pool")
        return errors + notes, []  # one tier: even rounding is an error


# ----------------------------------------------------------------------
# the paper's headline figures
# ----------------------------------------------------------------------
class Headline(Workload):
    """``experiments.headline`` over every benchmark, both voltages.

    One call builds every benchmark's program from the same seed, and its
    cost moves by about 19% (IQR) from seed to seed, so a unit
    regenerates the headline at two seeds, ``2s - 1`` and ``2s``.
    """

    name = "paper_headline"

    def setup(self):
        from repro.core.schemes import SchemeKind
        from repro.harness import experiments, paper_data
        from repro.harness.runner import RunSpec, build_core
        from repro.workloads.profiles import profile_names

        seeds = [2 * self.seed - 1, 2 * self.seed]
        self.seeds = seeds[:1] if self.quick else seeds
        self.benchmarks = list(QUICK[self.name]) if self.quick else None
        low = self.benchmarks or profile_names()
        high = self.benchmarks or paper_data.HIGH_FR_BENCHMARKS
        # FAULT_FREE, EP and the three proposed schemes per benchmark
        self.expected = 5 * (len(low) + len(high)) * len(self.seeds)
        for seed in self.seeds:
            for vdd, names in ((experiments.VDD_LOW_FAULT, low),
                               (experiments.VDD_HIGH_FAULT, high)):
                for benchmark in names:
                    build_core(RunSpec(benchmark, SchemeKind.EP, vdd,
                                       N_INSTRUCTIONS, WARMUP, seed))

    def expected_results(self):
        return self.expected

    def run(self, workdir):
        from repro.harness import experiments

        return [
            experiments.headline(
                N_INSTRUCTIONS, WARMUP, seed, self.benchmarks, jobs=JOBS,
                cache=True, cache_dir=os.path.join(workdir, "cache"),
            ).data
            for seed in self.seeds
        ]

    def check(self, datas):
        errors = []
        for data in datas:
            values = [r["measured_reduction"] for r in data.values()]
            if len(values) != 4 or not all(map(math.isfinite, values)):
                errors.append(f"headline reductions are not 4 finite "
                              f"numbers: {values}")
        blob = json.dumps(datas, sort_keys=True).encode()
        return errors, {"data": hashlib.sha256(blob).hexdigest()}

    def claims(self, datas):
        # paper_reduction is paper_data.PAPER_CLAIMS' figure for the row
        return {
            name: [statistics.mean(d[name]["measured_reduction"]
                                   for d in datas),
                   row["paper_reduction"]]
            for name, row in datas[0].items()
        }


WORKLOADS = {cls.name: cls
             for cls in (KernelCampaign, ScalarCampaign, Headline, Fleet)}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
class FirstResult:
    """When a unit's first result became durable, and how many it wrote.

    Campaigns: the first ``run`` event written by ``Journal.append``
    (when status and the dashboard first show data). The headline: the
    first result written by ``ResultCache.store``.
    """

    def __init__(self):
        self.start = self.first = None
        self.count = 0

    def arm(self):
        self.start = time.perf_counter()
        self.first = None
        self.count = 0

    def seen(self):
        self.count += 1
        if self.first is None:
            self.first = time.perf_counter()

    def install(self, workload):
        if isinstance(workload, Headline):
            from repro.harness.parallel import ResultCache as owner
            attr, is_result = "store", lambda args: True
        else:
            from repro.campaign.journal import Journal as owner
            attr = "append"
            is_result = lambda args: args[1].get("event") == "run"  # noqa

        original = getattr(owner, attr)

        def probed(*args, **kwargs):
            out = original(*args, **kwargs)
            if is_result(args):
                self.seen()
            return out
        setattr(owner, attr, probed)


def flip_byte(path):
    """Flip one bit of the middle byte of ``path`` (self-test hook)."""
    with open(path, "r+b") as fh:
        data = bytearray(fh.read())
        data[len(data) // 2] ^= 1
        fh.seek(0)
        fh.write(data)


def peak_rss_mb():
    """Largest resident set of this process or any child it waited for."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def measure(workload, args):
    """Run the repeats; returns the JSON-ready result dict."""
    probe = FirstResult()
    probe.install(workload)
    tracing = None
    if args.trace:
        import trace

        tracing = trace.Tracing()
    repeats, errors, digests = [], [], None
    output = last = None
    start = time.perf_counter()
    while True:
        walls = [r["wall_s"] for r in repeats]
        elapsed = time.perf_counter() - start
        if repeats and len(repeats) >= args.repeats and (
                elapsed + statistics.median(walls) > args.seconds):
            break
        # in traced mode every other unit is traced, so the two halves
        # see the same drift and their ratio is the tracing overhead
        traced = tracing is not None and len(repeats) % 2 == 1
        workdir = tempfile.mkdtemp(prefix=f"rep{len(repeats)}-")
        spans = os.path.join(args.trace, f"rep{len(repeats)}") if traced \
            else None
        if traced:
            tracing.start(spans)
        probe.arm()
        try:
            output = workload.run(workdir)
        finally:
            wall = time.perf_counter() - probe.start
            if traced:
                tracing.stop()
        repeat = {
            "wall_s": wall,
            "first_result_s": (probe.first or time.perf_counter())
            - probe.start,
            "results": probe.count,
            "traced": traced,
        }
        if traced:
            import trace

            repeat["layers"], repeat["table"] = trace.analyse(
                trace.load_spans(spans), os.getpid())
        unit_errors, unit_digests = workload.check(output)
        if probe.count != workload.expected_results():
            unit_errors.append(f"{probe.count} results, expected "
                               f"{workload.expected_results()}")
        errors += [f"repeat {len(repeats)}: {e}" for e in unit_errors]
        if digests is not None and unit_digests != digests:
            errors.append(f"repeat {len(repeats)}: output differs from "
                          "repeat 0 (nondeterministic)")
        digests = digests or unit_digests
        repeats.append(repeat)
        if last is not None:  # the last unit's output feeds the reference
            shutil.rmtree(last, ignore_errors=True)
        last = workdir
    rss = peak_rss_mb()
    if args.flip:
        flip_byte(os.path.join(output, args.flip))
        errors += workload.check(output)[0]
    ref_errors, notes = workload.reference(tempfile.mkdtemp(prefix="ref-"),
                                           output)
    errors += ref_errors
    return {
        "claims": workload.claims(output),
        "notes": notes,
        "repeats": repeats,
        "peak_rss_mb": rss,
        "digests": digests,
        "errors": errors,
        "expected_results": workload.expected_results(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", metavar="DIR",
                        help="trace every other unit, spans under DIR")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--flip", metavar="FILE",
                        help="self-test: flip a byte of FILE in the last "
                             "unit's output before checking it")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.quick)
    out = {"workload": args.workload}
    try:
        workload.setup()
        if workload.kernel:
            from repro.uarch.batchkernel import load_kernel

            began = time.perf_counter()
            available = load_kernel() is not None
            out["kernel_build_s"] = time.perf_counter() - began
            if not available:
                # refuse to time the numpy or scalar tier in its place
                raise RuntimeError("the compiled batch kernel is unavailable")
        out["setup_s"] = time.perf_counter() - _T0
        if not args.setup_only:
            out.update(measure(workload, args))
    except Exception:  # noqa: BLE001 — reported to run.py, which fails
        out.setdefault("errors", []).append(traceback.format_exc())
    print(json.dumps(out))
    return 1 if out.get("errors") else 0


if __name__ == "__main__":
    sys.exit(main())
