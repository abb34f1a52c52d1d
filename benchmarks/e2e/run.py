#!/usr/bin/env python3
"""End-to-end benchmark of the simulator's user-facing entry points.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed 1]
        [--seconds S] [--repeats N] [--trace [0|1]] [--quick] [--json OUT]

Workloads (see README.md for why each one exists):

* ``campaign_kernel``: ``run_campaign`` on the compiled batch kernel;
* ``campaign_scalar``: the same API with batching off;
* ``paper_headline``: ``experiments.headline``, the paper's figures;
* ``fleet_kernel``: ``fleet_run`` of campaign_kernel's grid, 2 workers.

The load is a closed loop with one client. Each workload runs in fresh
interpreters (``workload.py``): set-up probes first, then one process
that repeats the workload's unit of work until ``--seconds`` would be
exceeded (at least ``--repeats`` times) and checks every output.
``--trace 1`` traces every other unit and reports per-layer metrics
instead of end-to-end ones. Lines read
``<workload> <metric> <median> <unit> (n=..., IQR ...)``; the last line
of standard output is one JSON object. The exit code is 0 only when
every output check passed.

Only files inside the checkout are read or written: working directories
live under ``.e2e_work/`` at the repository root and are removed at exit.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from workload import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: end-to-end metrics and their units, in print order
E2E = (("wall_s", "s"), ("results_per_s", "1/s"), ("peak_rss_mb", "MiB"),
       ("setup_s", "s"))
#: printed beside them, but reported with the per-layer metrics: one
#: point's warmup and baseline, too seed-dependent for a bound
LATENCY = ("first_result_s", "s")
#: set-up probes per workload, besides the measuring process's own set-up
SETUP_PROBES = 3
#: a workload's children must end within --seconds plus this many
#: seconds, or they are killed with their process groups
SLACK = 120


def layer_unit(name):
    if name.endswith("inst_per_s"):
        return "inst/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "coverage", "overhead")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def spread(values):
    """``(median, interquartile range)`` as ``statistics.quantiles`` gives."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def child(name, args, work, extra, deadline):
    """Run ``workload.py`` for ``name`` in a fresh, isolated interpreter.

    Every ``REPRO_*`` variable of the caller is dropped, so no cache
    directory, lane count or kernel switch leaks in; the kernel cache and
    the temp dir are new and empty.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["REPRO_KERNEL_CACHE"] = tempfile.mkdtemp(prefix="kernel-", dir=work)
    env["TMPDIR"] = tempfile.mkdtemp(prefix="tmp-", dir=work)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", name, "--seed", str(args.seed)] + extra
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:  # fleet workers or pool processes it may have left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        return {"errors": ["killed at the deadline"]}
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"errors": [f"exited {proc.returncode} without a result"]}


def load_pins():
    with open(os.path.join(HERE, "baseline.json")) as fh:
        baseline = json.load(fh)
    return baseline["seed"], baseline["digests"]


def run_workload(name, args, work):
    """Measure one workload; returns its summary dict."""
    deadline = time.monotonic() + args.seconds + SLACK
    probes = []
    if not args.trace:
        probes = [child(name, args, work, ["--setup-only"], deadline)
                  for _ in range(SETUP_PROBES)]
    # a traced run needs an untraced unit and a traced one at least
    units = max(2, args.repeats) if args.trace else args.repeats
    extra = ["--seconds", str(args.seconds), "--repeats", str(units)]
    if args.trace:
        extra += ["--trace", tempfile.mkdtemp(prefix="spans-", dir=work)]
    main = child(name, args, work, extra, deadline)
    errors = [e for r in probes + [main] for e in r.get("errors", [])]

    pin_seed, pins = load_pins()
    pin = pins.get(name)
    if args.seed != pin_seed or args.quick:
        pin_note = f"skipped (pinned at seed {pin_seed}, full size)"
    elif pin is None:
        pin_note = "skipped (no digest pinned)"
    elif main.get("digests") != pin:
        pin_note = "MISMATCH"
        errors.append(f"outputs {main.get('digests')} differ from the "
                      f"pinned {pin}")
    else:
        pin_note = "match"

    repeats = main.get("repeats", [])
    plain = [r for r in repeats if not r["traced"]]
    traced = [r for r in repeats if r["traced"]]
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "results_per_s": [r["results"] / r["wall_s"] for r in plain],
        "peak_rss_mb": [main["peak_rss_mb"]] if "peak_rss_mb" in main else [],
        "setup_s": [r["setup_s"] for r in probes + [main] if "setup_s" in r],
    }
    layers = {LATENCY[0]: [r[LATENCY[0]] for r in plain]}
    if traced:
        for metric in traced[0]["layers"]:
            layers[metric] = [r["layers"][metric] for r in traced]
        layers["uarch.batchkernel.build_s"] = [main.get("kernel_build_s", 0.0)]
        layers["trace.overhead"] = [
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(samples["wall_s"]) - 1.0
        ]
    expected = main.get("expected_results", 1)
    attempted = max(1, expected * len(repeats))
    failed = attempted if errors else sum(
        max(0, expected - r["results"]) for r in repeats)
    return {
        "samples": samples,
        "layers": layers,
        "table": merged_table(traced),
        "claims": main.get("claims"),
        "notes": main.get("notes", []),
        "digests": main.get("digests"),
        "pin": pin_note,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
    }


def cross_check(summaries):
    """A fleet run must write campaign_kernel's journal and report."""
    fleet = summaries.get("fleet_kernel")
    pool = summaries.get("campaign_kernel")
    if fleet is None:
        return
    if pool is None:
        fleet["cross"] = "skipped (campaign_kernel not selected)"
    elif fleet["digests"] == pool["digests"]:
        fleet["cross"] = "match"
    else:
        fleet["cross"] = "MISMATCH"
        fleet["errors"].append("journal.jsonl or report.json differs from "
                               "campaign_kernel's")
        fleet["failed"] = fleet["attempted"]


def merged_table(traced):
    """Per-span-name ``[calls, inclusive_s, self_s]``, mean per unit."""
    table = {}
    for repeat in traced:
        for span, row in repeat["table"].items():
            acc = table.setdefault(span, [0.0, 0.0, 0.0])
            for i, value in enumerate(row):
                acc[i] += value / len(traced)
    return table


def show(name, metric, unit, values):
    """Print one metric's line; returns its JSON entry."""
    median, iqr = spread(values)
    print(f"{name} {metric} {median:.6g} {unit} "
          f"(n={len(values)}, IQR {iqr:.4g})")
    return {"value": median, "unit": unit}


def report(name, summary, args):
    """Print one workload's lines; returns its ``{metric: entry}``."""
    if args.trace:
        wanted = [(m, layer_unit(m)) for m in sorted(summary["layers"])]
        values = summary["layers"]
        print(f"{name} layer (mean per traced unit): calls inclusive_s self_s")
        rows = sorted(summary["table"].items(), key=lambda kv: -kv[1][1])
        for span, (calls, incl, own) in rows:
            print(f"  {span:<44} {calls:9.1f} {incl:10.4f} {own:10.4f}")
    else:
        wanted = list(E2E)
        values = summary["samples"]
    metrics = {metric: show(name, metric, unit, values[metric])
               for metric, unit in wanted if values.get(metric)}
    latency = summary["layers"].get(LATENCY[0])
    if not args.trace and latency:
        show(name, *LATENCY, latency)
    error_rate = summary["failed"] / summary["attempted"]
    print(f"{name} error_rate {error_rate:.4g} fraction "
          f"(n={summary['attempted']}, failed {summary['failed']})")
    print(f"{name} pinned digests: {summary['pin']}")
    if "cross" in summary:
        print(f"{name} outputs vs campaign_kernel: {summary['cross']}")
    for claim, (measured, paper) in (summary["claims"] or {}).items():
        print(f"{name} {claim} reduction vs EP: measured {measured:.0%}, "
              f"paper {paper:.0%}")
    for note in summary["notes"]:
        print(f"{name} NOTE {note}")
    for error in summary["errors"]:
        print(f"{name} ERROR {error}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1,
                        help="campaign master seed; the headline runs "
                             "seeds 2s-1 and 2s")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measuring budget per workload")
    parser.add_argument("--repeats", type=int, default=1,
                        help="at least this many units per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="shrink every workload to a few seconds")
    parser.add_argument("--json", metavar="OUT",
                        help="also write every sample and table to OUT")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"run.py: no simulator sources at {SRC}/repro; "
                 "run from a full checkout of the repository")

    names = args.workload or list(WORKLOADS)
    os.makedirs(os.path.join(ROOT, ".e2e_work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".e2e_work"))
    try:
        summaries = {name: run_workload(name, args, work) for name in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cross_check(summaries)

    metrics = {}
    for name, summary in summaries.items():
        for metric, entry in report(name, summary, args).items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = entry
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summaries, fh, indent=2, sort_keys=True)
    correct = not any(s["errors"] for s in summaries.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
