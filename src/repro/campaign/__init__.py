"""Statistical fault-injection campaign engine.

A *campaign* turns the batch engine (:func:`repro.harness.parallel.
run_many`) into a statistical study: a declarative :class:`CampaignSpec`
expands a (benchmark x scheme x vdd) grid, each grid point is measured
over a derived stream of seeds until its confidence intervals are tight
enough (sequential Monte Carlo), every completed run is journaled to an
append-only log so a killed campaign resumes exactly where it stopped,
and the report builder aggregates (mean, CI, n) tuples the way the
paper's Table 1 / Figure 4 present point estimates.

Layers
------
:mod:`repro.campaign.plan`
    Grid planning, seed-stream derivation, metric extraction.
:mod:`repro.campaign.stats`
    Normal and Wilson interval math plus the per-point accumulator.
:mod:`repro.campaign.journal`
    Crash-safe campaign directory: manifest + append-only JSONL
    journals, and the one fold every reader applies to them.
:mod:`repro.campaign.scheduler`
    The draw-level batch iterator + stopping rule one grid point is
    measured through — driven synchronously by the executor and leased
    from by the fleet coordinator (:mod:`repro.fleet`).
:mod:`repro.campaign.executor`
    The sequential executor with confidence-driven stopping, per-run
    timeout, and bounded retry, and the campaign opener it shares with
    the fleet coordinator.
:mod:`repro.campaign.report`
    JSON + Markdown report builder.
:mod:`repro.campaign.status`
    Per-point progress/CI status of a live or killed campaign.

See ``docs/campaigns.md`` for the on-disk layout and a worked resume
example.
"""

from repro.campaign.executor import CampaignError, measure_point, run_campaign
from repro.campaign.journal import Journal, read_manifest, write_manifest
from repro.campaign.plan import CampaignSpec, GridPoint, derive_seed
from repro.campaign.report import build_report, report_from_state, write_reports
from repro.campaign.scheduler import PointScheduler
from repro.campaign.stats import PointAccumulator
from repro.campaign.status import build_status, render_status, status_from_state

__all__ = [
    "CampaignError",
    "CampaignSpec",
    "GridPoint",
    "Journal",
    "PointAccumulator",
    "PointScheduler",
    "build_report",
    "build_status",
    "derive_seed",
    "measure_point",
    "read_manifest",
    "render_status",
    "report_from_state",
    "run_campaign",
    "status_from_state",
    "write_manifest",
    "write_reports",
]
