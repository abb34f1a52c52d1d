"""In-progress campaign introspection: per-point draw counts and CIs.

``campaign status`` (and ``fleet status`` on a merged or sharded fleet
directory) answers "how far along is this study?" without touching the
executor: fold the journals, rebuild each point's accumulator, and
report its draw count, every target metric's current CI half-width
against its target, and the stopping-rule state. Works on a live,
killed, or finished campaign, single-pool or fleet — the journals are
the single source of truth.
"""

from repro.campaign.journal import fold_directory, read_manifest
from repro.campaign.plan import CampaignSpec
from repro.campaign.stats import PointAccumulator


def build_status(directory):
    """Status dict for the campaign rooted at ``directory``.

    Reads ``manifest.json`` (:class:`FileNotFoundError` if absent) and
    folds ``journal.jsonl`` plus any fleet shard journals
    (:func:`~repro.campaign.journal.fold_directory`). See
    :func:`status_from_state` for the shape.
    """
    manifest = read_manifest(directory)
    spec = CampaignSpec.from_dict(manifest["spec"])
    return status_from_state(spec, fold_directory(directory))


def status_from_state(spec, state):
    """Fold a replayed :class:`~repro.campaign.journal.JournalState`.

    Returns::

        {"campaign": name, "complete": bool, "points_total": int,
         "points_done": int, "runs_total": int,
         "points": [{"point": id, "n": draws, "state": ...,
                     "stopped": reason-or-None,
                     "targets": {metric: {"halfwidth": h-or-None,
                                          "target": t, "met": bool}}}]}

    ``state`` per point is ``"pending"`` (no draws yet), ``"sampling"``
    (draws recorded, stopping rule not yet satisfied), or the recorded
    stopping reason (``"ci"``, ``"max_seeds"``, ``"failed"``).

    Shared by ``campaign status``, ``fleet status`` (live through the
    coordinator, or offline) and the dashboard's live view: each folds
    the same journal records, so all of them render identically.
    """
    points = []
    for point in spec.points():
        completion = state.completed.get(point.id)
        records = state.runs.get(point.id, [])
        acc = PointAccumulator(z=spec.z)
        for record in records:
            acc.push(record["metrics"], record["counts"])
        if completion is not None:
            point_state = completion["stopped"]
            stopped = completion["stopped"]
            n = completion["n"]
        else:
            point_state = "sampling" if acc.n else "pending"
            stopped = None
            n = acc.n
        targets = {}
        for metric, target in sorted(spec.targets.items()):
            half = acc.halfwidth(metric) if acc.n else None
            if half is not None and half == float("inf"):
                half = None
            targets[metric] = {
                "halfwidth": half,
                "target": target,
                "met": half is not None and half <= target,
            }
        points.append({
            "point": point.id,
            "n": n,
            "state": point_state,
            "stopped": stopped,
            "targets": targets,
        })
    return {
        "campaign": spec.name,
        "complete": state.done,
        "points_total": len(points),
        "points_done": len(state.completed),
        "runs_total": state.total_runs,
        "points": points,
    }


def render_status(status):
    """Human-readable rendering of :func:`build_status`'s dict."""
    lines = [
        f"campaign {status['campaign']!r}: "
        f"{status['points_done']}/{status['points_total']} points done, "
        f"{status['runs_total']} draws journaled, "
        f"complete={str(status['complete']).lower()}",
    ]
    width = max((len(p["point"]) for p in status["points"]), default=5)
    for point in status["points"]:
        cells = []
        for metric, entry in point["targets"].items():
            half = entry["halfwidth"]
            shown = "inf" if half is None else f"{half:.4f}"
            mark = "<=" if entry["met"] else ">"
            cells.append(f"{metric} {shown} {mark} {entry['target']}")
        lines.append(
            f"  {point['point']:<{width}}  n={point['n']:<3} "
            f"{point['state']:<9} " + "  ".join(cells)
        )
    return "\n".join(lines)
