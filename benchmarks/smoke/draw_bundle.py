"""verify-smoke: write the repro bundle of a corrupted campaign draw.

Runs one storm draw with its own measurement seed under the checker,
with a corruption that fails it, and prints the path of the bundle it
writes under ``draw_bundles/``; the job then replays that bundle,
minimized and in full. From the checkout root::

    bundle=$(python benchmarks/smoke/draw_bundle.py)
"""

from repro.core.schemes import SchemeKind
from repro.faults.storm import default_storm
from repro.harness.runner import RunSpec
from repro.verify.driver import run_checked


def main():
    spec = RunSpec(
        "astar", SchemeKind.ABS, 0.97, n_instructions=600, warmup=200,
        seed=5, verify=True, storm=default_storm(), measurement_seed=11,
        corruption={"kind": "value_xor", "seq": 420},
    )
    spec.repro_dir = "draw_bundles"
    print(run_checked(spec).bundle_path)


if __name__ == "__main__":
    main()
