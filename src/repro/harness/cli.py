"""Command-line interface: regenerate any table or figure of the paper.

Examples::

    repro-timing table1 --instructions 20000
    repro-timing fig4 --benchmarks astar sjeng
    repro-timing all --instructions 5000 --warmup 2000
    repro-timing campaign run --dir out/c1 --benchmarks astar --schemes ABS
    repro-timing campaign resume --dir out/c1 --jobs 4
"""

import argparse
import sys

from repro.harness import experiments


def _known_benchmarks():
    """All resolvable benchmark names (SPEC profiles + microbenchmarks)."""
    from repro.workloads.microbench import MICROBENCH_PROFILES
    from repro.workloads.profiles import SPEC2006_PROFILES

    return sorted(SPEC2006_PROFILES) + sorted(MICROBENCH_PROFILES)


def _known_schemes():
    from repro.core.schemes import SchemeKind

    return [kind.name for kind in SchemeKind]


def _validate_benchmarks(names):
    """Exit code (or None) after eagerly checking benchmark names.

    A bad name used to surface as a ``KeyError`` from deep inside
    ``get_profile`` mid-run; fail fast with the known list instead.
    """
    if not names:
        return None
    known = _known_benchmarks()
    bad = sorted(set(names) - set(known))
    if bad:
        print(
            f"unknown benchmark(s): {', '.join(bad)}\n"
            f"known benchmarks: {', '.join(known)}",
            file=sys.stderr,
        )
        return 2
    return None


def _validate_schemes(names):
    """Exit code (or None) after eagerly checking scheme names."""
    from repro.core.schemes import make_scheme

    bad = []
    for name in names:
        try:
            make_scheme(name)
        except (ValueError, KeyError):
            bad.append(name)
    if bad:
        print(
            f"unknown scheme(s): {', '.join(bad)}\n"
            f"known schemes: {', '.join(_known_schemes())}",
            file=sys.stderr,
        )
        return 2
    return None


def _validate_telemetry_interval(interval):
    """Exit code (or None) after eagerly checking --telemetry-interval.

    A negative window would only blow up once the first simulation
    builds its TelemetryConfig; reject it up front like bad benchmark
    or scheme names.
    """
    if interval is None or interval >= 0:
        return None
    print(
        f"--telemetry-interval must be >= 0 cycles (0 = off), "
        f"got {interval}",
        file=sys.stderr,
    )
    return 2


def _validate_endpoint(host, port, allow_ephemeral=True):
    """Exit code (or None) after eagerly checking a host/port pair."""
    if not str(host).strip():
        print(
            "--host must be a non-empty host name or address "
            "(e.g. 127.0.0.1)",
            file=sys.stderr,
        )
        return 2
    low = 0 if allow_ephemeral else 1
    if not low <= port <= 65535:
        hint = "0 (pick an ephemeral port) or 1..65535" if allow_ephemeral \
            else "1..65535"
        print(f"--port must be {hint}, got {port}", file=sys.stderr)
        return 2
    return None


def _parse_connect(value):
    """``(host, port)`` from a HOST:PORT string; ValueError with a hint."""
    host, sep, port_text = value.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"--connect expects HOST:PORT (e.g. 127.0.0.1:7777), "
            f"got {value!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"--connect port must be an integer, got {port_text!r}"
        ) from None
    if not 1 <= port <= 65535:
        raise ValueError(f"--connect port must be 1..65535, got {port}")
    return host, port


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-timing",
        description=(
            "Reproduce the evaluation of 'Efficiently Tolerating Timing "
            "Violations in Pipelined Microprocessors' (DAC 2013)."
        ),
        epilog=(
            "Statistical campaigns (grids of seeds with confidence-driven "
            "stopping) live under the 'campaign' subcommand: "
            "repro-timing campaign {plan,run,resume,report,status} --dir "
            "DIR ... Distributed campaigns live under 'fleet': "
            "repro-timing fleet {serve,worker,run,status} ..."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(experiments.EXPERIMENTS) + ["all", "run"],
        help="which table/figure to regenerate, or 'run' for a single "
             "simulation point",
    )
    parser.add_argument(
        "--list-benchmarks", action="store_true",
        help="print the known benchmark names and exit",
    )
    parser.add_argument(
        "--instructions", type=int, default=10000,
        help="committed instructions measured per run (paper: 1M)",
    )
    parser.add_argument(
        "--warmup", type=int, default=4000,
        help="warmup instructions before measurement",
    )
    parser.add_argument("--seed", type=int, default=1, help="master seed")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for simulation grids (0 = all cores; "
             "default 1 = serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache location (default: $REPRO_CACHE_DIR or "
             "./.sim_cache)",
    )
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the experiment's data as JSON (one file; with "
             "'all', a {name} placeholder is substituted)",
    )
    parser.add_argument(
        "--benchmarks", nargs="*", default=None,
        help="subset of benchmarks (default: the paper's set)",
    )
    single = parser.add_argument_group("single-run options (experiment=run)")
    single.add_argument("--scheme", default="ABS",
                        help="fault-handling scheme (default ABS)")
    single.add_argument("--vdd", type=float, default=0.97,
                        help="supply voltage (default 0.97)")
    single.add_argument("--overclock", type=float, default=1.0,
                        help="cycle-time shrink factor (default 1.0)")
    single.add_argument("--predictor", default="tep",
                        choices=["tep", "mre", "tvp"],
                        help="violation predictor design")
    single.add_argument("--trace", type=int, default=0, metavar="N",
                        help="print a pipeline timeline of N instructions")
    return parser


def _run_single(args):
    """Run one simulation point and print its summary (+optional trace)."""
    from repro.harness.export import write_json
    from repro.harness.runner import RunSpec, build_core, measure, warm_core
    from repro.uarch.pipetrace import PipeTracer

    benchmark = (args.benchmarks or ["bzip2"])[0]
    spec = RunSpec(
        benchmark, args.scheme, args.vdd, args.instructions, args.warmup,
        args.seed, predictor=args.predictor, overclock=args.overclock,
    )
    # warm by hand so the tracer records the warmup too; the measured
    # window is the shared one, so the result equals run_one(spec)
    core = build_core(spec)
    tracer = PipeTracer(core) if args.trace else None
    result = measure(warm_core(spec, core), spec)
    stats, energy = result.stats, result.energy
    print(f"{spec!r}")
    for key, value in stats.as_dict().items():
        print(f"  {key:20s} {value}")
    print(f"  {'energy_pJ':20s} {energy.total:.1f}")
    print(f"  {'edp':20s} {energy.edp:.3e}")
    if tracer is not None:
        print()
        first = stats.committed + spec.warmup - args.trace
        print(tracer.render(first_seq=max(0, first), count=args.trace))
    if args.json:
        path = args.json.replace("{name}", "run")
        write_json(result, path)
        print(f"[wrote {path}]")
    return result


def _run(name, args):
    fn = experiments.EXPERIMENTS[name]
    if name in ("table2", "table3"):
        result = fn()
    elif name == "fig7":
        result = fn(seed=args.seed)
    else:
        result = fn(
            n_instructions=args.instructions,
            warmup=args.warmup,
            seed=args.seed,
            benchmarks=args.benchmarks,
            jobs=args.jobs,
            cache=not args.no_cache,
            cache_dir=args.cache_dir,
        )
    print(result.render())
    print()
    if args.json:
        from repro.harness.export import write_json

        path = args.json.replace("{name}", name)
        write_json(result, path)
        print(f"[wrote {path}]")
    return result


# ----------------------------------------------------------------------
# trace subcommand
# ----------------------------------------------------------------------
def _trace_parser():
    parser = argparse.ArgumentParser(
        prog="repro-timing trace",
        description=(
            "Telemetry capture on a single simulation point: structured "
            "event tracing (Chrome/Perfetto or JSONL export) and "
            "cycle-windowed interval metrics (CSV/JSON export). See "
            "docs/observability.md."
        ),
    )
    verbs = parser.add_subparsers(dest="verb", required=True)
    run = verbs.add_parser(
        "run", help="record pipeline events; export a Perfetto/JSONL trace"
    )
    metrics = verbs.add_parser(
        "metrics", help="record interval metrics; export a CSV/JSON table"
    )
    for sub in (run, metrics):
        sub.add_argument("--benchmark", default="bzip2",
                         help="benchmark to simulate (default bzip2)")
        sub.add_argument("--scheme", default="CDS",
                         help="fault-handling scheme (default CDS)")
        sub.add_argument("--vdd", type=float, default=0.97,
                         help="supply voltage (default 0.97)")
        sub.add_argument("--instructions", type=int, default=10000,
                         help="measured instructions")
        sub.add_argument("--warmup", type=int, default=2000,
                         help="warmup instructions (not recorded)")
        sub.add_argument("--seed", type=int, default=1, help="run seed")
        sub.add_argument("--overclock", type=float, default=1.0,
                         help="cycle-time shrink factor")
        sub.add_argument("--predictor", default="tep",
                         choices=["tep", "mre", "tvp"],
                         help="violation predictor design")
        sub.add_argument("--interval", type=int, default=500,
                         metavar="CYCLES",
                         help="metrics window size in cycles")
        sub.add_argument("--storm", action="store_true",
                         help="run under the default fault storm")
        sub.add_argument("--profile", action="store_true",
                         help="also print the simulator self-profile")
        sub.add_argument("--out", default=None, metavar="FILE",
                         help="output path (default: trace.json / "
                              "events.jsonl / metrics.csv|json)")
    run.add_argument("--format", choices=["perfetto", "jsonl"],
                     default="perfetto", help="trace export format")
    run.add_argument("--event-capacity", type=int, default=65536,
                     help="event ring-buffer capacity (oldest evicted)")
    metrics.add_argument("--format", choices=["csv", "json"], default="csv",
                         help="metrics export format")
    return parser


def _trace_main(argv):
    args = _trace_parser().parse_args(argv)
    code = _validate_benchmarks([args.benchmark])
    if code is None:
        code = _validate_schemes([args.scheme])
    if code is not None:
        return code
    from repro.harness.runner import RunSpec, run_one
    from repro.telemetry import TelemetryConfig

    storm = None
    if args.storm:
        from repro.faults.storm import default_storm

        storm = default_storm()
    config = TelemetryConfig(
        metrics=True,
        interval=args.interval,
        events=args.verb == "run",
        event_capacity=getattr(args, "event_capacity", 65536),
        profile=args.profile,
    )
    spec = RunSpec(
        args.benchmark, args.scheme, args.vdd, args.instructions,
        args.warmup, args.seed, predictor=args.predictor,
        overclock=args.overclock, storm=storm, telemetry=config,
    )
    result = run_one(spec)
    telem = result.telemetry
    print(f"{spec!r}")
    print(
        f"  {result.stats.committed} committed in {result.stats.cycles} "
        f"cycles (ipc {result.ipc:.3f}, fault_rate {result.fault_rate:.4f})"
    )
    if args.verb == "run":
        print(
            f"  events: {telem.events_emitted} emitted, "
            f"{telem.events_dropped} dropped, counts "
            f"{dict(sorted(telem.event_counts.items()))}"
        )
        if args.format == "perfetto":
            from repro.telemetry import validate_trace, write_perfetto

            path = args.out or "trace.json"
            trace = write_perfetto(
                path, telem.events, series=telem.metrics,
                name=f"{args.benchmark}/{args.scheme}",
            )
            problems = validate_trace(trace)
            if problems:
                for problem in problems:
                    print(f"invalid trace: {problem}", file=sys.stderr)
                return 1
            print(
                f"[wrote {path}: {len(trace['traceEvents'])} trace events; "
                "open in https://ui.perfetto.dev]"
            )
        else:
            from repro.telemetry import write_jsonl

            path = args.out or "events.jsonl"
            write_jsonl(telem.events, path)
            print(f"[wrote {path}: {len(telem.events)} events]")
    else:
        series = telem.metrics
        print(f"  metrics: {len(series)} windows of {series.interval} cycles")
        summary = series.summary()
        for name in ("ipc", "fault_rate", "replay_rate"):
            entry = summary[name]
            print(
                f"    {name:12s} mean {entry['mean']:.4f} "
                f"[{entry['min']:.4f}..{entry['max']:.4f}]"
            )
        path = args.out or f"metrics.{args.format}"
        payload = (
            series.to_csv() if args.format == "csv" else series.to_json()
        )
        with open(path, "w") as fh:
            fh.write(payload)
            if not payload.endswith("\n"):
                fh.write("\n")
        print(f"[wrote {path}]")
    if args.profile and telem.profile is not None:
        profile = telem.profile
        print(f"  self-profile: {profile['wall_seconds']:.3f}s wall")
        for label, entry in profile["stages"].items():
            print(
                f"    {label:12s} {entry['seconds']:.3f}s "
                f"({entry['calls']} calls)"
            )
        print(f"    {'other':12s} {profile['other_seconds']:.3f}s")
    return 0


# ----------------------------------------------------------------------
# verify subcommand
# ----------------------------------------------------------------------
def _verify_parser():
    from repro.faults.storm import StormConfig

    parser = argparse.ArgumentParser(
        prog="repro-timing verify",
        description=(
            "Runtime verification: lockstep golden-model checking, "
            "fault-storm stress runs, and repro-bundle replay. Any "
            "divergence or hang is captured as a minimized, replayable "
            "JSON bundle. See docs/robustness.md."
        ),
    )
    verbs = parser.add_subparsers(dest="verb", required=True)
    lockstep = verbs.add_parser(
        "lockstep",
        help="lockstep-check a (benchmark x scheme x vdd) grid",
    )
    storm = verbs.add_parser(
        "storm",
        help="fault-storm stress runs under the lockstep checker",
    )
    for sub in (lockstep, storm):
        sub.add_argument("--benchmarks", nargs="+",
                         default=["astar", "bzip2"],
                         help="benchmarks to check")
        sub.add_argument("--schemes", nargs="+",
                         default=["FAULT_FREE", "ABS", "FFS", "CDS"],
                         help="schemes to check")
        sub.add_argument("--vdds", nargs="+", type=float,
                         default=[1.10, 0.97],
                         help="supply voltages to check")
        sub.add_argument("--instructions", type=int, default=4000,
                         help="measured instructions per run")
        sub.add_argument("--warmup", type=int, default=1000,
                         help="warmup instructions per run")
        sub.add_argument("--seed", type=int, default=1, help="base seed")
        sub.add_argument("--seeds", type=int, default=1,
                         help="consecutive seeds per grid point")
        sub.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes (0 = all cores)")
        sub.add_argument("--bundle-dir", default="repro_bundles",
                         help="where failing runs drop repro bundles")
    for name in StormConfig.FIELDS:
        storm.add_argument(
            f"--{name.replace('_', '-')}", type=float, default=None,
            help=f"override the default-storm {name}",
        )
    replay = verbs.add_parser(
        "replay-bundle", help="re-run a repro bundle and diff the failure"
    )
    replay.add_argument("bundle", help="path of the bundle JSON")
    replay.add_argument("--full", action="store_true",
                        help="replay the original spec instead of the "
                             "minimized one")
    return parser


def _verify_main(argv):
    import json

    args = _verify_parser().parse_args(argv)
    if args.verb == "replay-bundle":
        from repro.verify.bundle import replay_bundle

        try:
            report = replay_bundle(args.bundle, minimized=not args.full)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot replay {args.bundle}: {exc!r}", file=sys.stderr)
            return 2
        print(json.dumps(report, indent=2, sort_keys=True))
        if report["identical"]:
            print("replay: failure reproduced byte-identically")
            return 0
        if report["reproduced"]:
            print("replay: failure kind reproduced but detail differs "
                  "(model drift? check model_version)", file=sys.stderr)
        else:
            print("replay: failure did NOT reproduce", file=sys.stderr)
        return 1

    code = _validate_benchmarks(args.benchmarks)
    if code is None:
        code = _validate_schemes(args.schemes)
    if code is not None:
        return code
    storm = None
    if args.verb == "storm":
        from repro.faults.storm import StormConfig, default_storm

        storm = default_storm()
        overrides = {
            name: getattr(args, name)
            for name in StormConfig.FIELDS
            if getattr(args, name) is not None
        }
        if overrides:
            knobs = storm.to_dict()
            knobs.update(overrides)
            storm = StormConfig.from_dict(knobs)
    from repro.harness.parallel import run_many
    from repro.harness.runner import RunSpec

    specs = []
    for benchmark in args.benchmarks:
        for scheme in args.schemes:
            for vdd in args.vdds:
                for s in range(args.seeds):
                    spec = RunSpec(
                        benchmark, scheme, vdd, args.instructions,
                        args.warmup, args.seed + s,
                        verify=True, storm=storm,
                    )
                    spec.repro_dir = args.bundle_dir
                    specs.append(spec)
    results = run_many(specs, jobs=args.jobs)
    failures = 0
    for spec, result in zip(specs, results):
        tag = (f"{spec.benchmark}/{spec.scheme.name}/vdd={spec.vdd!r}"
               f"/seed={spec.seed}")
        if getattr(result, "is_failure", False):
            failures += 1
            print(f"FAIL {tag}: {result.kind} -> {result.bundle_path}")
        else:
            verification = getattr(result, "verification", {}) or {}
            print(
                f"ok   {tag}: {verification.get('commits', '?')} commits, "
                f"digest {verification.get('digest', '?')}, "
                f"safety_net={result.stats.safety_net_replays}, "
                f"storm_faults={result.stats.storm_faults}"
            )
    print(
        f"verify {args.verb}: {len(specs) - failures}/{len(specs)} runs "
        f"clean, {failures} failure(s)"
        + (f" (bundles in {args.bundle_dir})" if failures else "")
    )
    return 1 if failures else 0


# ----------------------------------------------------------------------
# campaign subcommand
# ----------------------------------------------------------------------
def _target(text):
    """One ``METRIC=HALFWIDTH`` stopping target as a (metric, float) pair."""
    metric, _, value = text.partition("=")
    try:
        return metric, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected METRIC=HALFWIDTH, got {text!r}"
        ) from None


#: ``(CampaignSpec field, flag, help, argparse keywords)`` of every grid
#: knob ``campaign plan|run`` and ``fleet serve|run`` take. The flags are
#: declared, read back into a spec, and spelled on a dashboard fork's
#: command line from this table alone. A flag left out keeps the
#: constructor's default; a field missing here is set by manifest only.
SPEC_FLAGS = (
    ("name", "--name", "campaign name (report header)",
     dict(default="campaign")),
    ("benchmarks", "--benchmarks", "benchmark axis of the grid",
     dict(nargs="+", default=["astar", "bzip2"])),
    ("schemes", "--schemes", "scheme axis of the grid",
     dict(nargs="+", default=["EP", "ABS", "FFS", "CDS"])),
    ("vdds", "--vdds", "supply-voltage axis of the grid",
     dict(nargs="+", type=float)),
    ("n_instructions", "--instructions", "measured instructions per run",
     dict(type=int)),
    ("warmup", "--warmup", "warmup instructions per run", dict(type=int)),
    ("master_seed", "--seed", "master seed of the per-point seed streams",
     dict(type=int)),
    ("min_seeds", "--seeds-min", "minimum seed draws per grid point",
     dict(type=int)),
    ("max_seeds", "--seeds-max", "maximum seed draws per grid point",
     dict(type=int)),
    ("batch_size", "--batch", "seed draws per sequential batch",
     dict(type=int)),
    ("targets", "--half-width", "stopping targets, e.g. perf_overhead=0.02 "
     "fault_rate=0.005 (default: those two)",
     dict(nargs="*", type=_target, metavar="METRIC=HW")),
    ("predictor", "--predictor", "violation predictor design",
     dict(choices=["tep", "mre", "tvp"])),
    ("telemetry_interval", "--telemetry-interval",
     "collect cycle-windowed interval metrics on every scheme run at this "
     "window size and aggregate them in the report (0 = off)",
     dict(type=int, metavar="CYCLES")),
)


def _add_spec_options(parser):
    for field, flag, help_text, options in SPEC_FLAGS:
        parser.add_argument(flag, dest=field, help=help_text, **options)


def _add_exec_options(parser):
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (0 = all cores)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache location")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-run timeout in seconds (default: none)")
    parser.add_argument("--retries", type=int, default=2,
                        help="bounded retries for failed/hung batches")
    parser.add_argument("--batch-lanes", type=int, default=None, metavar="N",
                        help="run draws and baselines as batch-engine "
                             "lanes, at most N per kernel call (default: "
                             "$REPRO_BATCH_LANES, else 0 = off; results "
                             "are bit-identical either way)")
    parser.add_argument("--no-snapshot", action="store_true",
                        help="disable warmup snapshot forking (always "
                             "re-simulate warmups)")
    parser.add_argument("--snapshot-dir", default=None, metavar="DIR",
                        help="warmup snapshot cache location (default: "
                             "$REPRO_SNAPSHOT_DIR, the result cache root, "
                             "or <dir>/snapshots when --no-cache)")


def _campaign_parser():
    parser = argparse.ArgumentParser(
        prog="repro-timing campaign",
        description=(
            "Statistical fault-injection campaigns: plan a (benchmark x "
            "scheme x vdd) grid, measure each point over a derived seed "
            "stream until its confidence intervals meet the targets, "
            "journal everything for crash-safe resume, and report "
            "(mean, CI, n) aggregates. See docs/campaigns.md."
        ),
    )
    verbs = parser.add_subparsers(dest="verb", required=True)
    plan = verbs.add_parser("plan", help="write the campaign manifest")
    plan.add_argument("--dir", required=True, help="campaign directory")
    _add_spec_options(plan)
    run = verbs.add_parser("run", help="plan (if needed) and execute")
    run.add_argument("--dir", required=True, help="campaign directory")
    _add_spec_options(run)
    _add_exec_options(run)
    resume = verbs.add_parser("resume", help="continue a killed campaign")
    resume.add_argument("--dir", required=True, help="campaign directory")
    _add_exec_options(resume)
    report = verbs.add_parser("report", help="rebuild report.json/.md")
    report.add_argument("--dir", required=True, help="campaign directory")
    status = verbs.add_parser(
        "status",
        help="per-point draw counts, CI half-widths, and stopping state",
    )
    status.add_argument("--dir", required=True, help="campaign directory")
    status.add_argument("--json", action="store_true",
                        help="print the status dict as JSON")
    status.add_argument("--follow", action="store_true",
                        help="live-refresh until the campaign completes "
                             "(Ctrl-C to stop)")
    status.add_argument("--interval", type=float, default=0.5, metavar="S",
                        help="journal poll interval with --follow "
                             "(default 0.5)")
    return parser


def _campaign_spec(args):
    from repro.campaign import CampaignSpec

    given = {field: getattr(args, field) for field, *_rest in SPEC_FLAGS}
    return CampaignSpec(**{k: v for k, v in given.items() if v is not None})


def campaign_plan_line(spec):
    """The ``campaign plan`` command that plans ``spec`` exactly, or None.

    Every flag of :data:`SPEC_FLAGS` is spelled out. A field without a
    flag (explicit ``seeds``, ``z``, ``overclock``, ``verify``, a
    ``storm``, the ``draw_mode``) that differs from its default has no
    command line; such a spec is planned from its :meth:`to_dict` form.
    """
    import shlex

    data = spec.to_dict()
    default = type(spec)(spec.name, spec.benchmarks, spec.schemes).to_dict()
    flagged = {field for field, *_rest in SPEC_FLAGS}
    if any(data[field] != default[field]
           for field in spec.FIELDS if field not in flagged):
        return None
    argv = ["repro-timing", "campaign", "plan", "--dir", "<new-dir>"]
    for field, flag, _help, options in SPEC_FLAGS:
        value = data[field]
        if isinstance(value, dict):
            value = [f"{key}={item}" for key, item in value.items()]
        if "nargs" in options:
            argv += [flag] + [str(item) for item in value]
        else:
            argv.append(f"{flag}={value}")
    return shlex.join(argv)


def _print_report_summary(report):
    print(
        f"campaign {report['campaign']!r}: "
        f"{report['points_done']}/{report['points_total']} points, "
        f"{report['runs_total']} seed draws "
        f"({report['sims_total']} simulations), "
        f"complete={report['complete']}"
    )


def _campaign_main(argv):
    import os

    from repro.campaign import (
        CampaignError, read_manifest, run_campaign, write_manifest,
        write_reports,
    )

    args = _campaign_parser().parse_args(argv)
    if args.verb in ("plan", "run"):
        code = _validate_benchmarks(args.benchmarks)
        if code is None:
            code = _validate_schemes(args.schemes)
        if code is None:
            code = _validate_telemetry_interval(args.telemetry_interval)
        if code is not None:
            return code
    if args.verb == "status":
        import json

        from repro.campaign import build_status, render_status

        if args.follow:
            from repro.dashboard import follow_status

            try:
                return follow_status(args.dir, interval=args.interval)
            except FileNotFoundError:
                print(f"no campaign manifest in {args.dir}",
                      file=sys.stderr)
                return 2
        try:
            status = build_status(args.dir)
        except FileNotFoundError:
            print(f"no campaign manifest in {args.dir}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            print(render_status(status))
        return 0
    if args.verb == "plan":
        try:
            spec = _campaign_spec(args).validate()
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        write_manifest(args.dir, spec)
        points = spec.points()
        print(
            f"planned {len(points)} grid points x "
            f"{spec.min_seeds}..{spec.max_seeds} seeds -> "
            f"{os.path.join(args.dir, 'manifest.json')}"
        )
        return 0
    if args.verb == "report":
        try:
            read_manifest(args.dir)
        except FileNotFoundError:
            print(f"no campaign manifest in {args.dir}", file=sys.stderr)
            return 2
        report = write_reports(args.dir)
        _print_report_summary(report)
        print(f"[wrote {os.path.join(args.dir, 'report.json')} and .md]")
        return 0
    # run / resume
    spec = None
    if args.verb == "run":
        try:
            read_manifest(args.dir)
        except FileNotFoundError:
            spec = _campaign_spec(args)
    try:
        report = run_campaign(
            args.dir, spec=spec, jobs=args.jobs,
            cache=not args.no_cache, cache_dir=args.cache_dir,
            resume=args.verb == "resume", timeout=args.timeout,
            retries=args.retries, snapshots=not args.no_snapshot,
            snapshot_dir=args.snapshot_dir, batch_lanes=args.batch_lanes,
        )
    except (CampaignError, ValueError, FileNotFoundError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    _print_report_summary(report)
    print(f"[wrote {os.path.join(args.dir, 'report.json')} and .md]")
    return 0


# ----------------------------------------------------------------------
# dashboard subcommand
# ----------------------------------------------------------------------
def _dashboard_parser():
    parser = argparse.ArgumentParser(
        prog="repro-timing dashboard",
        description=(
            "Live results service: serve a campaign directory (live, "
            "killed, or finished; single-pool or fleet) as a web "
            "dashboard with JSON endpoints and a Server-Sent-Events "
            "stream. See docs/observability.md ('Live dashboard')."
        ),
    )
    verbs = parser.add_subparsers(dest="verb", required=True)
    serve = verbs.add_parser(
        "serve", help="serve the dashboard for a campaign directory"
    )
    serve.add_argument("--dir", required=True, help="campaign directory")
    serve.add_argument("--host", default="127.0.0.1",
                       help="address to listen on (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="port to listen on (default 0 = ephemeral; "
                            "the bound port lands in dashboard.json)")
    serve.add_argument("--poll-interval", type=float, default=0.5,
                       metavar="S",
                       help="journal poll cadence in seconds "
                            "(default 0.5)")
    return parser


def _dashboard_main(argv):
    args = _dashboard_parser().parse_args(argv)
    code = _validate_endpoint(args.host, args.port)
    if code is not None:
        return code
    if args.poll_interval <= 0:
        print(f"--poll-interval must be > 0, got {args.poll_interval}",
              file=sys.stderr)
        return 2
    from repro.campaign import read_manifest
    from repro.dashboard import serve_dashboard

    try:
        read_manifest(args.dir)
    except FileNotFoundError:
        print(f"no campaign manifest in {args.dir}", file=sys.stderr)
        return 2
    return serve_dashboard(
        args.dir, host=args.host, port=args.port,
        poll_interval=args.poll_interval,
    )


# ----------------------------------------------------------------------
# fleet subcommand
# ----------------------------------------------------------------------
def _add_fleet_cache_options(parser, server):
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache location")
    if server:  # the coordinator decides whether workers fork snapshots
        parser.add_argument("--no-snapshot", action="store_true",
                            help="disable warmup snapshot forking")
    parser.add_argument("--snapshot-dir", default=None, metavar="DIR",
                        help="warmup snapshot cache location")


def _add_fleet_security_options(parser, server):
    parser.add_argument("--secret", default=None, metavar="SECRET",
                        help="shared fleet secret (HMAC handshake); "
                             "prefer --secret-file or $REPRO_FLEET_SECRET "
                             "over putting it in argv")
    parser.add_argument("--secret-file", default=None, metavar="FILE",
                        help="file holding the shared fleet secret")
    if server:
        parser.add_argument("--tls-cert", default=None, metavar="PEM",
                            help="serve TLS with this certificate chain")
        parser.add_argument("--tls-key", default=None, metavar="PEM",
                            help="private key for --tls-cert")
        parser.add_argument("--tls-ca", default=None, metavar="PEM",
                            help="require client certificates signed by "
                                 "this CA (mutual TLS)")
    else:
        parser.add_argument("--tls-ca", default=None, metavar="PEM",
                            help="connect over TLS, trusting only this CA "
                                 "(for a self-signed coordinator, its own "
                                 "certificate)")
        parser.add_argument("--tls-cert", default=None, metavar="PEM",
                            help="client certificate (mutual TLS)")
        parser.add_argument("--tls-key", default=None, metavar="PEM",
                            help="private key for --tls-cert")


def _validate_fleet_security(args):
    """Fail fast on unusable secret/TLS arguments; the resolved secret.

    Raises :class:`~repro.fleet.security.SecurityError` — an unreadable
    ``--secret-file`` or a ``--tls-cert`` without its key must die at
    the CLI with a clear message, not minutes later inside a serve loop
    or a worker's reconnect storm.
    """
    from repro.fleet.security import resolve_secret, validate_tls_args

    secret = resolve_secret(args.secret, args.secret_file)
    validate_tls_args(args.tls_cert, args.tls_key, args.tls_ca)
    return secret


def _fleet_parser():
    parser = argparse.ArgumentParser(
        prog="repro-timing fleet",
        description=(
            "Distributed campaigns: a coordinator leases seed draws to "
            "workers over TCP, streams their journal entries into "
            "per-worker shards, and merges a journal/report "
            "byte-identical to a single-pool 'campaign run'. See "
            "docs/campaigns.md ('Running on a fleet')."
        ),
    )
    verbs = parser.add_subparsers(dest="verb", required=True)
    serve = verbs.add_parser(
        "serve", help="run the coordinator for a campaign directory"
    )
    serve.add_argument("--dir", required=True, help="campaign directory")
    _add_spec_options(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="address to listen on (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="port to listen on (default 0 = ephemeral; "
                            "the bound port lands in coordinator.json)")
    serve.add_argument("--resume", action="store_true",
                       help="continue a campaign with journaled progress")
    serve.add_argument("--heartbeat-timeout", type=float, default=15.0,
                       metavar="S",
                       help="seconds of worker silence before its leases "
                            "are revoked and re-leased (default 15)")
    _add_fleet_cache_options(serve, server=True)
    _add_fleet_security_options(serve, server=True)
    worker = verbs.add_parser(
        "worker", help="join a coordinator and execute leased draws"
    )
    worker.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="coordinator endpoint")
    worker.add_argument("--dir", default=None,
                        help="campaign directory to read the coordinator "
                             "endpoint from (alternative to --connect)")
    worker.add_argument("--name", default=None,
                        help="worker name (shard journal name; default "
                             "<hostname>-<pid>)")
    _add_fleet_cache_options(worker, server=False)
    _add_fleet_security_options(worker, server=False)
    worker.add_argument("--reconnect-attempts", type=int, default=None,
                        metavar="N",
                        help="consecutive failed connections before "
                             "giving up (default 5; progress refills "
                             "the budget)")
    worker.add_argument("--reconnect-delay", type=float, default=None,
                        metavar="S",
                        help="base reconnect backoff in seconds "
                             "(default 0.5, doubling per attempt)")
    worker.add_argument("--reconnect-max-delay", type=float, default=None,
                        metavar="S",
                        help="reconnect backoff ceiling (default 8)")
    worker.add_argument("--throttle", type=float, default=0.0, metavar="S",
                        help="artificial per-draw delay — a straggler "
                             "dial for work-stealing experiments")
    worker.add_argument("--batch-lanes", type=int, default=None, metavar="N",
                        help="run a lease's draws and baselines as batch-"
                             "engine lanes, at most N per kernel call "
                             "(default: $REPRO_BATCH_LANES, else 0 = off)")
    run = verbs.add_parser(
        "run", help="coordinator + N local workers, one command"
    )
    run.add_argument("--dir", required=True, help="campaign directory")
    _add_spec_options(run)
    run.add_argument("--workers", type=int, default=2, metavar="N",
                     help="local worker subprocesses (default 2); with "
                          "--min-workers/--max-workers this is only the "
                          "starting size of an elastic pool")
    run.add_argument("--min-workers", type=int, default=None, metavar="N",
                     help="elastic pool floor (enables autoscaling)")
    run.add_argument("--max-workers", type=int, default=None, metavar="N",
                     help="elastic pool ceiling (enables autoscaling)")
    run.add_argument("--no-steal", action="store_true",
                     help="disable work-stealing of straggler lease tails")
    run.add_argument("--host", default="127.0.0.1",
                     help="address to listen on (default 127.0.0.1)")
    run.add_argument("--port", type=int, default=0,
                     help="port to listen on (default 0 = ephemeral)")
    run.add_argument("--resume", action="store_true",
                     help="continue a campaign with journaled progress")
    run.add_argument("--heartbeat-timeout", type=float, default=15.0,
                     metavar="S", help="worker-silence revocation timeout")
    _add_fleet_cache_options(run, server=True)
    _add_fleet_security_options(run, server=True)
    status = verbs.add_parser(
        "status", help="per-point progress of a fleet campaign"
    )
    status.add_argument("--dir", default=None,
                        help="campaign directory (live query via its "
                             "coordinator.json when possible, shard "
                             "replay otherwise)")
    status.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="ask a live coordinator directly")
    status.add_argument("--json", action="store_true",
                        help="print the status dict as JSON")
    status.add_argument("--tls-ca", default=None, metavar="PEM",
                        help="the coordinator serves TLS; trust this CA")
    status.add_argument("--follow", action="store_true",
                        help="live-refresh from the journals/ledger until "
                             "the campaign completes (requires --dir)")
    status.add_argument("--interval", type=float, default=0.5, metavar="S",
                        help="journal poll interval with --follow "
                             "(default 0.5)")
    return parser


def _fleet_endpoint(args):
    """``(host, port)`` for worker/status verbs; ValueError with a hint."""
    if args.connect:
        return _parse_connect(args.connect)
    if args.dir:
        from repro.fleet import read_endpoint

        try:
            endpoint = read_endpoint(args.dir)
        except FileNotFoundError:
            raise ValueError(
                f"no coordinator.json in {args.dir} — is a coordinator "
                "serving this campaign? (or pass --connect HOST:PORT)"
            ) from None
        return endpoint["host"], endpoint["port"]
    raise ValueError("pass --connect HOST:PORT or --dir DIR")


def _render_fleet_extras(status):
    lines = []
    workers = status.get("workers")
    if workers is not None:
        shown = ", ".join(
            f"{name} ({info['last_seen_s']}s ago)"
            for name, info in workers.items()
        ) or "none"
        lines.append(f"  workers: {shown}")
    leases = status.get("leases")
    if leases is not None:
        for lease in leases:
            lines.append(
                f"  lease {lease['lease']}: {lease['point']} "
                f"-> {lease['worker']} ({len(lease['pending'])} pending)"
            )
    audit = status.get("audit")
    if audit:
        shown = ", ".join(f"{k}={v}" for k, v in sorted(audit.items()))
        lines.append(f"  audit: {shown}")
    return "\n".join(lines)


def _fleet_main(argv):
    import json
    import os

    args = _fleet_parser().parse_args(argv)
    if args.verb in ("serve", "run"):
        code = _validate_benchmarks(args.benchmarks)
        if code is None:
            code = _validate_schemes(args.schemes)
        if code is None:
            code = _validate_telemetry_interval(args.telemetry_interval)
        if code is None:
            code = _validate_endpoint(args.host, args.port)
        if code is not None:
            return code
    if args.verb == "run" and args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    if args.verb == "run":
        low, high = args.min_workers, args.max_workers
        if low is not None and low < 1:
            print(f"--min-workers must be >= 1, got {low}",
                  file=sys.stderr)
            return 2
        if (low is not None and high is not None and low > high):
            print(
                f"--min-workers ({low}) must be <= --max-workers ({high})",
                file=sys.stderr,
            )
            return 2
    secret = None
    if args.verb in ("serve", "worker", "run"):
        from repro.fleet.security import SecurityError

        try:
            secret = _validate_fleet_security(args)
        except SecurityError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.verb == "worker" and args.name is not None:
        from repro.fleet.coordinator import valid_worker_name

        if not valid_worker_name(args.name):
            print(
                f"invalid worker name {args.name!r}: 1-64 characters "
                "from [A-Za-z0-9._-], not starting with '.' or '_'",
                file=sys.stderr,
            )
            return 2

    if args.verb == "status":
        from repro.fleet.service import query_status

        if args.follow:
            if not args.dir:
                print("--follow needs --dir (it tails the journals and "
                      "lease ledger on disk)", file=sys.stderr)
                return 2
            from repro.dashboard import follow_status

            try:
                return follow_status(
                    args.dir, fleet=True, interval=args.interval
                )
            except FileNotFoundError:
                print(f"no campaign manifest in {args.dir}",
                      file=sys.stderr)
                return 2
        status = None
        if args.connect or args.dir:
            try:
                host, port = _fleet_endpoint(args)
                status = query_status(host, port, tls_ca=args.tls_ca)
            except (ValueError, OSError, RuntimeError) as exc:
                if args.connect or not args.dir:
                    print(str(exc), file=sys.stderr)
                    return 2
        else:
            print("pass --connect HOST:PORT or --dir DIR", file=sys.stderr)
            return 2
        if status is None:
            # no live coordinator: what --follow and /api/fleet show
            from repro.dashboard import CampaignView
            from repro.dashboard.follow import render_view

            try:
                view = CampaignView(args.dir)
            except FileNotFoundError:
                print(f"no campaign manifest in {args.dir}",
                      file=sys.stderr)
                return 2
            view.refresh()
            if args.json:
                status = {**view.status(), **view.fleet_status()}
                print(json.dumps(status, indent=2, sort_keys=True))
            else:
                print(render_view(view, fleet=True))
            return 0
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0
        from repro.campaign import render_status

        print(render_status(status))
        extras = _render_fleet_extras(status)
        if extras:
            print(extras)
        return 0

    if args.verb == "worker":
        from repro.fleet import run_worker

        try:
            host, port = _fleet_endpoint(args)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        kwargs = {}
        if args.reconnect_attempts is not None:
            kwargs["reconnect_attempts"] = args.reconnect_attempts
        if args.reconnect_delay is not None:
            kwargs["reconnect_delay"] = args.reconnect_delay
        if args.reconnect_max_delay is not None:
            kwargs["reconnect_max_delay"] = args.reconnect_max_delay
        return run_worker(
            host, port, name=args.name, cache=not args.no_cache,
            cache_dir=args.cache_dir, snapshot_dir=args.snapshot_dir,
            secret=secret, tls_ca=args.tls_ca, tls_cert=args.tls_cert,
            tls_key=args.tls_key, throttle=args.throttle,
            batch_lanes=args.batch_lanes, **kwargs,
        )

    # serve / run
    from repro.campaign import CampaignError, read_manifest
    from repro.fleet import FleetError

    spec = None
    try:
        read_manifest(args.dir)
    except FileNotFoundError:
        if args.resume:
            print(f"no campaign manifest in {args.dir}", file=sys.stderr)
            return 2
        spec = _campaign_spec(args)
    try:
        if args.verb == "serve":
            from repro.fleet import serve_fleet

            report = serve_fleet(
                args.dir, spec=spec, host=args.host, port=args.port,
                resume=args.resume, cache=not args.no_cache,
                cache_dir=args.cache_dir, snapshots=not args.no_snapshot,
                snapshot_dir=args.snapshot_dir,
                heartbeat_timeout=args.heartbeat_timeout,
                secret=secret, tls_cert=args.tls_cert,
                tls_key=args.tls_key, tls_ca=args.tls_ca,
            )
        else:
            from repro.fleet import fleet_run

            report = fleet_run(
                args.dir, spec=spec, workers=args.workers, host=args.host,
                port=args.port, resume=args.resume,
                cache=not args.no_cache, cache_dir=args.cache_dir,
                snapshots=not args.no_snapshot,
                snapshot_dir=args.snapshot_dir,
                heartbeat_timeout=args.heartbeat_timeout,
                secret=secret, tls_cert=args.tls_cert,
                tls_key=args.tls_key, tls_ca=args.tls_ca,
                min_workers=args.min_workers,
                max_workers=args.max_workers,
                steal=not args.no_steal,
            )
    except (FleetError, CampaignError, ValueError,
            FileNotFoundError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    _print_report_summary(report)
    print(f"[wrote {os.path.join(args.dir, 'report.json')} and .md]")
    return 0


def main(argv=None):
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if "--list-benchmarks" in argv:
        print("\n".join(_known_benchmarks()))
        return 0
    if argv[:1] == ["campaign"]:
        return _campaign_main(argv[1:])
    if argv[:1] == ["fleet"]:
        return _fleet_main(argv[1:])
    if argv[:1] == ["dashboard"]:
        return _dashboard_main(argv[1:])
    if argv[:1] == ["verify"]:
        return _verify_main(argv[1:])
    if argv[:1] == ["trace"]:
        return _trace_main(argv[1:])
    args = _build_parser().parse_args(argv)
    code = _validate_benchmarks(args.benchmarks)
    if code is not None:
        return code
    if args.experiment == "run":
        code = _validate_schemes([args.scheme])
        if code is not None:
            return code
        _run_single(args)
        return 0
    names = (
        sorted(experiments.EXPERIMENTS) if args.experiment == "all"
        else [args.experiment]
    )
    for name in names:
        _run(name, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
