#!/usr/bin/env python3
"""Alternating A/B of two commits on the end-to-end benchmark.

    python3 benchmarks/ab.py PARENT CHANGE [--pairs 10] [--workload W]...
        [--first-seed 1] [--root DIR] [--out BENCH_ab.json]

Both commits are exported (``git archive | tar -x``) as sibling trees
under one root, so neither side runs from the git checkout. For each
workload, pair ``i`` runs ``benchmarks/e2e/run.py --workload W --seed s
--seconds S`` once in each tree on seed ``s = first_seed + i``, with
``S`` the ``run_seconds`` of ``BENCHMARK.json``; the side that goes
first alternates from pair to pair. Each leg's last output line is its
JSON summary.

Per workload and end-to-end metric of ``BENCHMARK.json``, the output
records both sides' values and medians, the parent's quartile distance,
the pairs the change won and the verdict of the rule in
``benchmarks/e2e/README.md`` ("Comparing two commits"):

* ``gain``: the change wins at least nine pairs in ten and its median
  is better than the parent's by more than the parent's quartile
  distance;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's relative bound;
* ``unresolved``: the parent's quartile distance is wider than that
  bound, so neither call can be made, unless every run of the change
  beats every run of the parent;
* ``none`` otherwise.

The output names both commits and, per side, the git tree of ``src``
and of each path of ``BENCHMARK.json``, which is what the legs ran: a
merged commit whose ``git rev-parse HEAD:src`` matches is the measured
code even when the compared commit was a throwaway one. Workloads an
existing ``--out`` file holds for the same trees are kept, so a long
A/B can be split into runs. The exit code is 1 when a leg read
``correct: false`` or failed an operation. Only the standard library is
used.
"""

import argparse
import functools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: a gain needs this share of pair wins (nine in ten)
WIN_SHARE = 0.9


def rev_parse(name):
    """The object id of ``name`` (a commit, or ``commit:path``)."""
    return subprocess.run(["git", "-C", ROOT, "rev-parse", name],
                          stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()


def export_tree(repo, commit, dest):
    """Write the files of ``commit`` in ``repo`` to the new dir ``dest``."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", repo, "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise subprocess.CalledProcessError(archive.returncode, "git archive")


def run_leg(tree, workload, seed, seconds):
    """One ``run.py`` run in ``tree``; returns its last-line JSON summary."""
    cmd = [sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                              text=True, timeout=4 * seconds + 600)
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        error = "timed out"
    except (IndexError, ValueError):
        error = f"exited {proc.returncode} without a summary"
    return {"correct": False, "failed": 1, "metrics": {}, "error": error}


def quartile_distance(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent, change, better, bound):
    """The README's rule over pairs ``(parent[i], change[i])``."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    spread = quartile_distance(parent)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    apart = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound * abs(p_med) and not apart:
        call = "unresolved"
    elif sign * (p_med - c_med) > bound * abs(p_med):
        call = "regression"
    elif (wins >= math.ceil(WIN_SHARE * len(parent))
          and sign * (c_med - p_med) > spread):
        call = "gain"
    else:
        call = "none"
    return {
        "parent_median": p_med, "change_median": c_med,
        "ratio": c_med / p_med if p_med else None,
        "parent_quartile_distance": spread, "change_wins": wins,
        "pairs": len(parent), "verdict": call,
        "parent": parent, "change": change,
    }


def compare(trees, workloads, pairs, seconds, first_seed, metrics,
            log=functools.partial(print, flush=True)):
    """Run the pairs over ``trees`` (``{"parent": dir, "change": dir}``).

    ``metrics`` lists ``BENCHMARK.json``'s end-to-end entries. Returns
    ``{workload: {"seeds", "failed_legs", "metrics"}}``.
    """
    out = {}
    for workload in workloads:
        legs = {"parent": [], "change": []}
        failed = []
        seeds = [first_seed + i for i in range(pairs)]
        for i, seed in enumerate(seeds):
            order = ("change", "parent") if i % 2 else ("parent", "change")
            for side in order:
                leg = run_leg(trees[side], workload, seed, seconds)
                legs[side].append(leg)
                ok = leg.get("correct") and not leg.get("failed")
                if not ok:
                    failed.append({"side": side, "seed": seed,
                                   "error": leg.get("error")})
                wall = leg.get("metrics", {}).get("wall_s", {}).get("value")
                log(f"{workload} seed {seed} {side}: wall_s {wall} "
                    f"{'ok' if ok else 'FAILED'}")
        table = {}
        for metric in metrics:
            name = metric["name"]
            values = {side: [leg.get("metrics", {}).get(name, {}).get("value")
                             for leg in legs[side]] for side in legs}
            if None in values["parent"] + values["change"]:
                continue
            table[name] = verdict(values["parent"], values["change"],
                                  metric["better"], metric["bound"])
        out[workload] = {"seeds": seeds, "failed_legs": failed,
                         "metrics": table}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="compare this workload (repeatable; default: "
                             "every workload of BENCHMARK.json)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--root", help="export the trees to DIR/parent and "
                                       "DIR/change, and keep them")
    parser.add_argument("--out", default="BENCH_ab.json")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    commits = {side: rev_parse(commit) for side, commit in
               (("parent", args.parent), ("change", args.change))}
    measured = {side: {path: rev_parse(f"{commit}:{path}")
                       for path in ["src"] + bench["paths"]}
                for side, commit in commits.items()}
    root = args.root or tempfile.mkdtemp(prefix="ab-")
    try:
        trees = {side: os.path.join(root, side) for side in commits}
        for side, commit in commits.items():
            export_tree(ROOT, commit, trees[side])
        results = compare(trees, workloads, args.pairs,
                          bench["run_seconds"], args.first_seed,
                          bench["end_to_end"])
    finally:
        if not args.root:
            shutil.rmtree(root, ignore_errors=True)

    record = {"parent": commits["parent"], "change": commits["change"],
              "trees": measured, "workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            old = json.load(fh)
        if old.get("trees") == measured:
            record["workloads"] = old["workloads"]
    for workload, result in results.items():
        record["workloads"][workload] = dict(
            result, seconds=bench["run_seconds"], cpus=os.cpu_count(),
            machine=platform.machine())
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for workload, result in results.items():
        for name, row in result["metrics"].items():
            print(f"{workload} {name}: parent {row['parent_median']:.4g} "
                  f"change {row['change_median']:.4g} "
                  f"wins {row['change_wins']}/{row['pairs']} "
                  f"{row['verdict']}")
    return 1 if any(r["failed_legs"] for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
