"""campaign-smoke: the report rebuilt from a 2-point campaign's journal.

Reads ``campaign_out/report.json``, which the job's earlier steps
(``campaign run`` and ``campaign report --dir campaign_out``) write.
From the checkout root::

    python benchmarks/smoke/campaign_report.py
"""

import json


def main():
    with open("campaign_out/report.json") as fh:
        report = json.load(fh)
    assert report["complete"], report
    assert report["points_done"] == 2, report
    for point in report["points"]:
        for metric, entry in point["metrics"].items():
            assert {"mean", "halfwidth", "n", "kind"} <= set(entry)
    print("campaign smoke OK:", report["runs_total"], "seed draws")


if __name__ == "__main__":
    main()
