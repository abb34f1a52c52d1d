"""In-memory live model of one campaign directory.

:class:`CampaignView` folds the records a
:class:`~repro.dashboard.watcher.JournalWatcher` emits into exactly the
state the offline tools rebuild from scratch — and then answers every
dashboard question from memory. Nothing is mirrored: journal and shard
records go through :meth:`~repro.campaign.journal.JournalState.fold`,
the fold ``campaign status``, ``campaign report`` and the fleet merge
use, and ``status()`` / ``report()`` call :func:`repro.campaign.status.
status_from_state` / :func:`repro.campaign.report.report_from_state`.
A live view is therefore byte-identical (as sorted-key JSON) to a cold
rebuild of the same directory — pinned by
``tests/dashboard/test_view.py`` and ``tests/campaign/test_fold.py``.
The fold is idempotent, so a journal rotation (the coordinator's atomic
merge) that makes the watcher re-read a file from byte zero converges
to the same state instead of double-counting.

The lease ledger feeds a fleet-health side model through
:class:`~repro.fleet.ledger.LedgerState` (the fold behind
:meth:`~repro.fleet.ledger.LeaseLedger.replay`): open leases, per-worker
grant/complete/revoke tallies, steal and autoscale event logs, and the
coordinator's security audit counters.
"""

import os

from repro.campaign.journal import (
    COORDINATOR_SHARD,
    JournalState,
    read_manifest,
)
from repro.campaign.plan import CampaignSpec
from repro.campaign.report import report_from_state
from repro.campaign.stats import PointAccumulator
from repro.campaign.status import status_from_state
from repro.dashboard.watcher import SOURCE_LEDGER, JournalWatcher
from repro.fleet.ledger import WORKER_TALLIES, LedgerState


class CampaignView:
    """Incrementally folded view of a campaign directory.

    Construct, then call :meth:`refresh` on whatever cadence the
    consumer ticks at; every query method reads the folded state only.
    ``version`` increments exactly when a refresh changed anything —
    the figure cache and SSE broadcaster key on it.
    """

    def __init__(self, directory, watcher=None):
        self.directory = str(directory)
        manifest = read_manifest(self.directory)
        self.spec = CampaignSpec.from_dict(manifest["spec"])
        self.model_version = manifest.get("model_version")
        self.watcher = watcher or JournalWatcher(self.directory)
        self.state = JournalState()
        self.ledger = LedgerState()
        self.version = 0
        self._draws = {}  # worker -> (point, index) run keys in its shard

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def refresh(self):
        """Poll the watcher and fold; returns the number of new records."""
        changed = 0
        for source, shard, record in self.watcher.poll():
            if source == SOURCE_LEDGER:
                changed += self.ledger.fold(record)
                continue
            changed += self.state.fold(record)
            if (shard not in (None, COORDINATOR_SHARD) and record
                    and record.get("event") == "run"):
                # the coordinator appends to a worker's shard only the
                # draws it accepted from that worker, so the distinct
                # keys there are its draws, whenever the view attached
                keys = self._draws.setdefault(shard, set())
                key = (record.get("point"), record.get("index"))
                changed += key not in keys
                keys.add(key)
        if changed:
            self.version += 1
        return changed

    # ------------------------------------------------------------------
    # queries (shared offline aggregation — byte-identical by reuse)
    # ------------------------------------------------------------------
    def status(self):
        """``campaign status`` dict of the folded state."""
        return status_from_state(self.spec, self.state)

    def report(self):
        """``campaign report`` dict of the folded state."""
        return report_from_state(self.spec, self.state)

    def points(self):
        """Per-point progress + headline summaries for ``/api/points``."""
        status = self.status()
        by_id = {
            entry["point"]: entry for entry in self.report()["points"]
        }
        for point in status["points"]:
            entry = by_id.get(point["point"])
            point["metrics"] = entry["metrics"] if entry else None
        return status

    # ------------------------------------------------------------------
    def convergence(self, point_id):
        """CI half-width after each draw, per target metric.

        The sequential-stopping story as a figure: for draw counts
        1..n, the half-width every target metric had at that point of
        the stream (``None`` while still infinite), plus the target
        lines. Deterministic — pure arithmetic over journaled draws.
        """
        records = self.state.runs.get(point_id, [])
        acc = PointAccumulator(z=self.spec.z)
        series = {metric: [] for metric in self.spec.targets}
        for record in records:
            acc.push(record["metrics"], record["counts"])
            for metric in series:
                half = acc.halfwidth(metric)
                series[metric].append(
                    half if half == half and half != float("inf") else None
                )
        return {
            "point": point_id,
            "n": len(records),
            "targets": dict(sorted(self.spec.targets.items())),
            "halfwidths": series,
        }

    def telemetry(self, point_id):
        """Per-draw interval-telemetry summaries for sparklines.

        One row per journaled draw that carried a telemetry summary:
        ``{"index", "windows", <metric>: {min, mean, max}}``. Empty
        ``rows`` when the campaign ran without ``--telemetry-interval``.
        """
        rows = []
        interval = None
        for record in self.state.runs.get(point_id, []):
            summary = record.get("telemetry")
            if not summary:
                continue
            interval = summary.get("interval", interval)
            row = {"index": record["index"],
                   "windows": summary.get("windows")}
            for name, entry in summary.items():
                if isinstance(entry, dict) and "mean" in entry:
                    row[name] = entry
                elif name == "dropped_events":
                    row[name] = entry
            rows.append(row)
        return {"point": point_id, "interval": interval, "rows": rows}

    # ------------------------------------------------------------------
    def point_detail(self, point_id):
        """Drill-down dict for ``/api/point/<id>`` (None if unknown).

        Links every artifact the draw trail left behind: journaled
        snapshot keys (downloadable when the snapshot cache is local),
        repro bundles dropped by failed verified runs, and any Perfetto
        traces exported into the campaign's ``traces/`` directory.
        """
        point = next(
            (p for p in self.spec.points() if p.id == point_id), None
        )
        if point is None:
            return None
        records = self.state.runs.get(point_id, [])
        completion = self.state.completed.get(point_id)
        draws = [
            {
                "index": r["index"],
                "seed": r["seed"],
                "metrics": r["metrics"],
                "counts": r["counts"],
                "snapshot": r.get("snapshot"),
                "telemetry": bool(r.get("telemetry")),
            }
            for r in records
        ]
        snapshots = sorted({
            r["snapshot"] for r in records if r.get("snapshot")
        })
        detail = {
            "point": point_id,
            "benchmark": point.benchmark,
            "scheme": point.scheme.name,
            "vdd": point.vdd,
            "n": len(records),
            "completed": completion is not None,
            "stopped": completion["stopped"] if completion else None,
            "failure": (completion or {}).get("failure"),
            "summary": completion["summary"] if completion else None,
            "draws": draws,
            "convergence": self.convergence(point_id),
            "artifacts": {
                "snapshots": snapshots,
                "bundles": self._artifact_files("bundles"),
                "traces": self._artifact_files("traces"),
            },
            "fork": self.fork_spec(point_id),
        }
        return detail

    def _artifact_files(self, subdir):
        try:
            names = sorted(os.listdir(os.path.join(self.directory, subdir)))
        except OSError:
            return []
        return [n for n in names if not n.startswith(".")]

    # ------------------------------------------------------------------
    def fork_spec(self, point_id):
        """A ready-to-run single-point campaign spec forked from a point.

        ``campaign_spec`` is the manifest spec with the grid collapsed to
        the one point and every statistical knob inherited; ``run_spec``
        is draw 0's full ``RunSpec.to_dict()``; ``cli`` is the ``campaign
        plan`` line that plans exactly ``campaign_spec``, or ``None``
        when the spec sets a knob the CLI has no flag for (see
        :func:`~repro.harness.cli.campaign_plan_line`) — the
        replay/what-if loop: tweak a knob, plan, run.
        """
        from repro.harness.cli import campaign_plan_line

        point = next(
            (p for p in self.spec.points() if p.id == point_id), None
        )
        if point is None:
            return None
        forked = CampaignSpec.from_dict(dict(
            self.spec.to_dict(), name=f"{self.spec.name}-fork",
            benchmarks=[point.benchmark], schemes=[point.scheme],
            vdds=[point.vdd],
        ))
        return {
            "campaign_spec": forked.to_dict(),
            "run_spec": self.spec.pair_specs(point, 0)[0].to_dict(),
            "cli": campaign_plan_line(forked),
        }

    # ------------------------------------------------------------------
    def fleet_status(self):
        """Fleet-health dict for ``/api/fleet`` (journals + ledger only).

        Built entirely from on-disk artifacts, so it works on a live,
        killed, or finished fleet without touching the coordinator —
        the multi-viewer answer to ``fleet status``.
        """
        ledger = self.ledger
        workers = {}
        for name in sorted(set(ledger.workers) | set(self._draws)):
            tallies = ledger.workers.get(name)
            workers[name] = dict(
                tallies or dict.fromkeys(WORKER_TALLIES, 0),
                draws=len(self._draws.get(name, ())),
            )
        return {
            "workers": workers,
            "open_leases": [ledger.open[k] for k in sorted(ledger.open)],
            "leases_granted": ledger.totals["granted"],
            "leases_completed": ledger.totals["completed"],
            "leases_revoked": ledger.totals["revoked"],
            "steals": list(ledger.steals),
            "scale_events": list(ledger.scale_events),
            "audit": (
                dict(ledger.audit) if ledger.audit is not None else None
            ),
            "endpoint": self._endpoint(),
        }

    def _endpoint(self):
        try:
            from repro.fleet.coordinator import read_endpoint

            return read_endpoint(self.directory)
        except (OSError, ValueError):
            return None
