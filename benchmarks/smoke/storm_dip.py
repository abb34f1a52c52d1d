"""telemetry-smoke: a fault storm's interval metrics show the IPC dip.

Reads ``metrics.json``, which the job's ``trace metrics --storm
--interval 200 --format json --out metrics.json`` step writes. From the
checkout root::

    python benchmarks/smoke/storm_dip.py
"""

import json

from repro.telemetry import MetricsSeries


def main():
    with open("metrics.json") as fh:
        series = MetricsSeries.from_dict(json.load(fh))
    ipc = series.column("ipc")
    dips = [v for v in ipc if v < 0.6 * max(ipc)]
    assert dips, ipc  # the burst windows must be visible
    print("storm dip OK: min", min(ipc), "max", max(ipc))


if __name__ == "__main__":
    main()
