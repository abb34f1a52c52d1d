"""telemetry-smoke: the recorded Perfetto trace passes the schema check.

Reads ``trace.json``, which the job's ``trace run --format perfetto
--instructions 4000 --out trace.json`` step writes. From the checkout
root::

    python benchmarks/smoke/trace_schema.py
"""

import json

from repro.telemetry import validate_trace


def main():
    with open("trace.json") as fh:
        trace = json.load(fh)
    problems = validate_trace(trace)
    assert not problems, problems
    counts = trace["otherData"]["event_counts"]
    assert counts.get("retire", 0) >= 4000, counts
    print("trace OK:", len(trace["traceEvents"]), "trace events")


if __name__ == "__main__":
    main()
