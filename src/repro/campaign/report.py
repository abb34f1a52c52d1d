"""Campaign report builder: JSON + Markdown aggregates.

Rebuilds everything from the campaign directory (manifest + journals),
so it can run standalone (``campaign report``) on a live, killed, or
finished campaign. Every reported metric carries the ``(mean,
halfwidth, n)`` triple — the statistical qualification the paper's
point-estimate tables lack — and the Markdown rendering mirrors the
Table 1 / Figure 4 presentation: benchmarks as rows, schemes as
columns, one block per supply voltage.

Output is deterministic: no timestamps, sorted keys, stable point
order — an interrupted-then-resumed campaign produces a byte-identical
``report.json`` to an uninterrupted one (pinned by
``tests/campaign/test_executor.py``).
"""

import json
import os

from repro.campaign.journal import fold_directory, read_manifest
from repro.campaign.plan import METRICS, CampaignSpec
from repro.campaign.stats import PointAccumulator

REPORT_JSON = "report.json"
REPORT_MD = "report.md"


def build_report(directory):
    """Aggregate the campaign directory's folded journals into a dict."""
    manifest = read_manifest(directory)
    spec = CampaignSpec.from_dict(manifest["spec"])
    return report_from_state(spec, fold_directory(directory))


def report_from_state(spec, state):
    """Fold a replayed :class:`~repro.campaign.journal.JournalState`.

    The aggregation core of :func:`build_report`, factored out so live
    views (the dashboard's ``CampaignView``, ``--follow`` mode) produce
    byte-identical aggregates to an offline ``campaign report`` rebuild
    of the same journal.
    """
    points = []
    for point in spec.points():
        completion = state.completed.get(point.id)
        records = state.runs.get(point.id, [])
        if completion is not None:
            summary = completion["summary"]
            n = completion["n"]
            stopped = completion["stopped"]
        elif records:
            acc = PointAccumulator(z=spec.z)
            for record in records:
                acc.push(record["metrics"], record["counts"])
            summary, n, stopped = acc.summary(), acc.n, "incomplete"
        else:
            continue
        entry = {
            "point": point.id,
            "benchmark": point.benchmark,
            "scheme": point.scheme.name,
            "vdd": point.vdd,
            "n": n,
            "stopped": stopped,
            "metrics": summary,
        }
        if completion is not None and completion.get("failure"):
            entry["failure"] = completion["failure"]
        summaries = [r["telemetry"] for r in records if r.get("telemetry")]
        if summaries:
            entry["telemetry"] = _pool_telemetry(summaries)
        points.append(entry)

    by_scheme = {}
    for entry in points:
        if not entry["metrics"]:
            continue  # failed before any complete draw: nothing to pool
        scheme = by_scheme.setdefault(entry["scheme"], {})
        vdd = scheme.setdefault(repr(entry["vdd"]), {})
        for metric in METRICS:
            vdd.setdefault(metric, []).append(entry["metrics"][metric]["mean"])
    for scheme in by_scheme.values():
        for vdd in scheme.values():
            for metric, means in vdd.items():
                vdd[metric] = sum(means) / len(means)

    return {
        "campaign": spec.name,
        "spec": spec.to_dict(),
        "complete": state.done,
        "points_total": len(spec.points()),
        "points_done": len(state.completed),
        "runs_total": state.total_runs,
        "sims_total": 2 * state.total_runs,  # each draw pairs a baseline
        "points": points,
        "by_scheme": by_scheme,
    }


def _pool_telemetry(summaries):
    """Average per-draw interval-metrics summaries into one per-point view.

    Means average over draws; mins/maxes take the envelope, so the
    pooled ``min``/``max`` still bound every window of every draw (the
    dip a single storm burst caused stays visible after pooling).
    """
    n = len(summaries)
    pooled = {
        "draws": n,
        "interval": summaries[0]["interval"],
        "windows": sum(s["windows"] for s in summaries) / n,
    }
    for name in summaries[0]:
        if name in ("draws", "interval", "windows", "dropped_events"):
            continue
        pooled[name] = {
            "min": min(s[name]["min"] for s in summaries),
            "mean": sum(s[name]["mean"] for s in summaries) / n,
            "max": max(s[name]["max"] for s in summaries),
        }
    if "dropped_events" in summaries[0]:
        # a scalar tally, not a {min, mean, max} envelope: total trace
        # truncation across the point's draws
        pooled["dropped_events"] = sum(
            s.get("dropped_events", 0) for s in summaries
        )
    return pooled


def _cell(metrics, metric):
    if not metrics:
        return "FAILED"  # point aborted before its first complete draw
    entry = metrics[metric]
    half = entry["halfwidth"]
    if half is None:
        return f"{entry['mean']:.4f} (n={entry['n']})"
    return f"{entry['mean']:.4f} ±{half:.4f} (n={entry['n']})"


def render_markdown(report):
    """Human-readable rendering of :func:`build_report`'s dict."""
    spec = report["spec"]
    lines = [
        f"# Campaign report: {report['campaign']}",
        "",
        f"- grid: {len(spec['benchmarks'])} benchmarks x "
        f"{len(spec['schemes'])} schemes x {len(spec['vdds'])} vdds "
        f"({report['points_done']}/{report['points_total']} points done, "
        f"complete={str(report['complete']).lower()})",
        f"- draws: {report['runs_total']} seed draws "
        f"({report['sims_total']} simulations incl. paired baselines)",
        f"- stopping: targets {json.dumps(spec['targets'], sort_keys=True)} "
        f"at z={spec['z']}, seeds {spec['min_seeds']}..{spec['max_seeds']} "
        f"in batches of {spec['batch_size']}",
        "",
    ]
    schemes = spec["schemes"]
    for vdd in spec["vdds"]:
        rows = [p for p in report["points"] if p["vdd"] == vdd]
        if not rows:
            continue
        lines.append(f"## vdd = {vdd!r} — cycle overhead vs fault-free")
        lines.append("")
        lines.append("| benchmark | " + " | ".join(schemes) + " |")
        lines.append("|---" * (len(schemes) + 1) + "|")
        for benchmark in spec["benchmarks"]:
            cells = []
            for scheme in schemes:
                match = [
                    p for p in rows
                    if p["benchmark"] == benchmark and p["scheme"] == scheme
                ]
                cells.append(
                    _cell(match[0]["metrics"], "perf_overhead")
                    if match else "—"
                )
            lines.append(f"| {benchmark} | " + " | ".join(cells) + " |")
        lines.append("")
        lines.append(f"## vdd = {vdd!r} — fault rate (Wilson 95% CI)")
        lines.append("")
        lines.append("| benchmark | " + " | ".join(schemes) + " |")
        lines.append("|---" * (len(schemes) + 1) + "|")
        for benchmark in spec["benchmarks"]:
            cells = []
            for scheme in schemes:
                match = [
                    p for p in rows
                    if p["benchmark"] == benchmark and p["scheme"] == scheme
                ]
                cells.append(
                    _cell(match[0]["metrics"], "fault_rate")
                    if match else "—"
                )
            lines.append(f"| {benchmark} | " + " | ".join(cells) + " |")
        lines.append("")
    telem_points = [p for p in report["points"] if p.get("telemetry")]
    if telem_points:
        lines.append(
            "## Interval telemetry — per-window mean [min..max], "
            "pooled over draws"
        )
        lines.append("")
        lines.append(
            "| point | interval | windows | ipc | fault_rate "
            "| replay_rate |"
        )
        lines.append("|---" * 6 + "|")
        for p in telem_points:
            t = p["telemetry"]
            cells = [p["point"], str(t["interval"]), f"{t['windows']:.1f}"]
            for name in ("ipc", "fault_rate", "replay_rate"):
                entry = t.get(name)
                cells.append(
                    f"{entry['mean']:.4f} "
                    f"[{entry['min']:.4f}..{entry['max']:.4f}]"
                    if entry else "—"
                )
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    return "\n".join(lines)


def write_reports(directory):
    """Build and persist ``report.json`` + ``report.md``; return the dict."""
    report = build_report(directory)
    json_path = os.path.join(directory, REPORT_JSON)
    tmp = json_path + ".tmp.%d" % os.getpid()
    with open(tmp, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, json_path)
    md_path = os.path.join(directory, REPORT_MD)
    tmp = md_path + ".tmp.%d" % os.getpid()
    with open(tmp, "w") as fh:
        fh.write(render_markdown(report) + "\n")
    os.replace(tmp, md_path)
    return report
