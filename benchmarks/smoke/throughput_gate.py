"""telemetry-smoke: disabled telemetry keeps the scalar loop within 5%.

The reference is the base commit, measured on the same runner in
alternating legs. From the checkout root, with the history fetched::

    python benchmarks/smoke/throughput_gate.py BASE

exports ``BASE`` and ``HEAD`` with ``benchmarks/ab.py``'s
``export_tree`` and runs ten pairs of legs, the
base first in even pairs and the change first in odd ones. Each leg is
a fresh interpreter with ``PYTHONPATH=<tree>/src`` that runs this
checkout's ``throughput_smoke.measure()`` (the best of 21 bzip2/ABS
windows of 3000 committed instructions) and reports its inst/s, so both
trees are timed by the same code and ``throughput_smoke``'s imports
must resolve in both. The decision is ``ab.verdict`` over the pairs
with a 5% bound: the gate passes on ``none`` and ``gain`` and fails on
``regression`` (the change's median is more than 5% below the base's).
On ``unresolved`` (the base's own quartile distance is wider than 5% of
its median, so a 5% slowdown cannot be told from the runner's noise) it
says so and fails only when the change was slower in at least nine
pairs in ten, the mirror of ``ab.py``'s nine wins for a gain.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

BENCHMARKS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCHMARKS)
import ab  # noqa: E402

#: how far the change's median inst/s may fall below the base's
BOUND = 0.05
PAIRS = 10
#: windows per leg: on a shared 2-CPU host the legs' quartile distance
#: read 6.2-6.3% at the best of 7 (``throughput_smoke``'s default) and
#: 1.9-3.4% at the best of 21
ROUNDS = 21
#: one leg: argv[1] is this checkout's benchmarks/, argv[2] the rounds;
#: repro comes from PYTHONPATH
LEG = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
       "import repro, throughput_smoke; "
       "print(json.dumps([throughput_smoke.measure(int(sys.argv[2]))[0], "
       "repro.__file__]))")


def measure_leg(tree):
    """Best inst/s of ``throughput_smoke.measure()`` on ``tree``'s src."""
    src = os.path.join(os.path.realpath(tree), "src")
    out = subprocess.run([sys.executable, "-c", LEG, BENCHMARKS,
                          str(ROUNDS)],
                         env=dict(os.environ, PYTHONPATH=src),
                         stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    rate, where = json.loads(out.splitlines()[-1])
    if not os.path.realpath(where).startswith(src + os.sep):
        raise RuntimeError(f"the leg on {tree} imported repro from {where}")
    return rate


def compare(trees, pairs=PAIRS, leg=measure_leg, log=print):
    """``ab.verdict`` of ``pairs`` alternating legs over ``trees``.

    ``trees`` maps ``"base"`` and ``"change"`` to what ``leg`` measures.
    """
    rates = {"base": [], "change": []}
    for i in range(pairs):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            rates[side].append(leg(trees[side]))
            log(f"pair {i} {side}: {rates[side][-1]:.0f} inst/s")
    return ab.verdict(rates["base"], rates["change"], "higher", BOUND)


def passes(row):
    """The gate's decision on a :func:`compare` row."""
    if row["verdict"] == "unresolved":
        losses = sum(c < p for p, c in zip(row["parent"], row["change"]))
        return losses < math.ceil(ab.WIN_SHARE * row["pairs"])
    return row["verdict"] != "regression"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    args = parser.parse_args(argv)
    commits = {"base": ab.rev_parse(args.base), "change": ab.rev_parse("HEAD")}
    with tempfile.TemporaryDirectory(prefix="throughput-gate-") as root:
        trees = {side: os.path.join(root, side) for side in commits}
        for side, commit in commits.items():
            ab.export_tree(ab.ROOT, commit, trees[side])
        row = compare(trees)
    spread = row["parent_quartile_distance"] / row["parent_median"]
    print(f"base {commits['base'][:12]} {row['parent_median']:.0f} inst/s "
          f"(quartile distance {spread:.1%}), change "
          f"{commits['change'][:12]} {row['change_median']:.0f} inst/s, "
          f"ratio {row['ratio']:.3f}, {row['change_wins']}/{row['pairs']} "
          f"pairs won: {row['verdict']}")
    if row["verdict"] == "unresolved":
        print(f"the base's spread is wider than the {BOUND:.0%} bound, so "
              "this runner cannot tell such a slowdown from noise; the "
              "gate fails only a change slower in nine pairs in ten")
    return 0 if passes(row) else 1


if __name__ == "__main__":
    sys.exit(main())
