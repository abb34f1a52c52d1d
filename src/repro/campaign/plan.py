"""Faultload and grid planning for fault-injection campaigns.

A :class:`CampaignSpec` declares *what* to study — the benchmark x scheme
x vdd grid, the simulated window, and the statistical stopping rule — and
expands it into :class:`GridPoint` objects whose per-seed
:class:`~repro.harness.runner.RunSpec` pairs (scheme run + fault-free
baseline of the same seed) feed the batch engine.

Seeds are not enumerated by hand: each (point, index) draws from a
deterministic seed stream derived by hashing the campaign's master seed
with the point identity (:func:`derive_seed`), so a campaign is fully
reproducible from its manifest and two campaigns with different master
seeds are statistically independent.
"""

import hashlib

from repro.core.schemes import SchemeKind, scheme_kind
from repro.faults.storm import StormConfig
from repro.harness.runner import RunSpec
from repro.record import Record
from repro.workloads.profiles import get_profile


def derive_seed(master_seed, *parts):
    """Deterministic positive 31-bit seed for a (master, *parts) identity.

    Hash-based so streams for different grid points (or different
    indices within one point) are independent, and stable across
    processes and interpreter versions.
    """
    text = ":".join([str(master_seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**31 - 1) + 1


class GridPoint:
    """One (benchmark, scheme, vdd) cell of the campaign grid."""

    def __init__(self, benchmark, scheme, vdd):
        self.benchmark = benchmark
        self.scheme = scheme_kind(scheme)
        self.vdd = float(vdd)

    @property
    def id(self):
        """Stable string identity used by the journal and the report."""
        return f"{self.benchmark}/{self.scheme.name}/{self.vdd!r}"

    def __repr__(self):
        return f"GridPoint({self.id})"

    def __eq__(self, other):
        return isinstance(other, GridPoint) and self.id == other.id

    def __hash__(self):
        return hash(self.id)


#: Continuous headline metrics: value per seed, normal CI over seeds.
MEAN_METRICS = ("perf_overhead", "ed_overhead", "ipc")
#: Proportion metrics: pooled event counts over committed instructions,
#: Wilson CI on the pooled proportion. Maps metric -> counts key.
RATE_METRICS = {"fault_rate": "faults", "replay_rate": "replays"}
#: All headline metrics, in report order.
METRICS = MEAN_METRICS + tuple(RATE_METRICS)


def extract_metrics(result, baseline):
    """Per-run headline metrics and event counts from a paired run.

    ``result`` is the scheme run, ``baseline`` the fault-free run of the
    *same seed* (same program realization), so overheads are paired and
    seed-to-seed program variation cancels.

    Returns ``(values, counts)``: ``values`` holds one float per metric
    in :data:`METRICS`; ``counts`` holds the raw event totals that the
    Wilson intervals pool across seeds.
    """
    stats = result.stats
    values = {
        "perf_overhead": result.cycles / baseline.cycles - 1.0,
        "ed_overhead": result.edp / baseline.edp - 1.0,
        "ipc": result.ipc,
        "fault_rate": result.fault_rate,
        "replay_rate": (
            stats.replays / stats.committed if stats.committed else 0.0
        ),
    }
    counts = {
        "faults": stats.faults_total,
        "replays": stats.replays,
        "committed": stats.committed,
    }
    return values, counts


#: Default stopping targets: CI half-widths on the paper's headline
#: numbers (2% cycles overhead, half a percentage point of fault rate).
DEFAULT_TARGETS = {"perf_overhead": 0.02, "fault_rate": 0.005}


class CampaignSpec(Record):
    """Declarative description of one fault-injection campaign.

    Its manifest form (:meth:`to_dict`, :meth:`from_dict`) and ``repr``
    derive from :attr:`FIELDS`, the constructor parameters in order.

    Parameters
    ----------
    name:
        Campaign name (report header; no filesystem meaning).
    benchmarks / schemes / vdds:
        Axes of the grid. Schemes may be :class:`SchemeKind` members or
        their names; ``FAULT_FREE`` is implicit (every seed's baseline).
    n_instructions / warmup:
        Simulated window per run, as in :class:`RunSpec`.
    master_seed:
        Root of the per-point seed streams (:func:`derive_seed`).
    seeds:
        Optional explicit seed list. When given it overrides stream
        derivation *and* the stopping rule: every point runs exactly
        these seeds (``min_seeds = max_seeds = len(seeds)``).
    min_seeds / max_seeds / batch_size:
        Sequential sampling bounds: at least ``min_seeds`` per point,
        then batches of ``batch_size`` until the targets are met or
        ``max_seeds`` is reached.
    targets:
        ``{metric: half_width}`` stopping rule — a point stops once
        every listed metric's CI half-width is <= its target.
    z:
        Critical value of the intervals (1.96 = 95%).
    predictor / overclock:
        Forwarded to every :class:`RunSpec`.
    verify:
        Run every simulation (scheme and baseline) under the lockstep
        golden-model checker; a divergence marks the point failed with
        a repro bundle instead of producing numbers silently built on a
        corrupted machine.
    storm:
        Optional :class:`~repro.faults.storm.StormConfig` (or its dict
        form) applied to the scheme runs — fault-storm robustness
        campaigns. Baselines stay storm-free so overheads remain
        meaningful.
    telemetry_interval:
        When positive, every *scheme* run collects cycle-windowed
        interval metrics at this window size (see
        :class:`~repro.telemetry.config.TelemetryConfig`); each draw's
        series summary is journaled and the report aggregates them per
        point. ``0`` (default) keeps runs telemetry-free. Baselines stay
        untouched either way so their cache entries are shared with
        non-telemetry campaigns.
    draw_mode:
        What varies between a point's draws. ``"fault"`` (default): every
        draw shares one per-point warmup seed (:meth:`warmup_seed_for`)
        and varies only ``measurement_seed`` — the draws sample fault
        realizations over one program/machine realization, so all of them
        fork from a single warmup snapshot and the fault-free baseline
        collapses to one run per point. ``"program"`` (legacy): each draw
        re-seeds everything (program, trace, warmup), sampling program
        variation too. Explicit ``seeds`` force ``"program"`` — a seed
        list enumerates whole-run seeds by definition.
    """

    FIELDS = ("name", "benchmarks", "schemes", "vdds", "n_instructions",
              "warmup", "master_seed", "seeds", "min_seeds", "max_seeds",
              "batch_size", "targets", "z", "predictor", "overclock",
              "verify", "storm", "telemetry_interval", "draw_mode")

    def __init__(self, name, benchmarks, schemes, vdds=(0.97,),
                 n_instructions=6000, warmup=3000, master_seed=1,
                 seeds=None, min_seeds=3, max_seeds=12, batch_size=3,
                 targets=None, z=1.96, predictor="tep", overclock=1.0,
                 verify=False, storm=None, telemetry_interval=0,
                 draw_mode="fault"):
        self.name = name
        self.benchmarks = list(benchmarks)
        self.schemes = [scheme_kind(s) for s in schemes]
        self.vdds = [float(v) for v in vdds]
        self.n_instructions = int(n_instructions)
        self.warmup = int(warmup)
        self.master_seed = int(master_seed)
        self.seeds = list(seeds) if seeds is not None else None
        if self.seeds is not None:
            min_seeds = max_seeds = batch_size = len(self.seeds)
        self.min_seeds = max(1, int(min_seeds))
        self.max_seeds = max(self.min_seeds, int(max_seeds))
        self.batch_size = max(1, int(batch_size))
        self.targets = dict(DEFAULT_TARGETS if targets is None else targets)
        self.z = float(z)
        self.predictor = predictor
        self.overclock = float(overclock)
        self.verify = bool(verify)
        self.storm = StormConfig.load(storm)
        self.telemetry_interval = max(0, int(telemetry_interval))
        if draw_mode not in ("fault", "program"):
            raise ValueError(
                f"draw_mode must be 'fault' or 'program', got {draw_mode!r}"
            )
        #: explicit seed lists enumerate whole-run seeds: force legacy mode
        self.draw_mode = "program" if self.seeds is not None else draw_mode
        #: where failed runs drop their repro bundles — execution detail
        #: set by the executor, not part of the manifest
        self.repro_dir = None
        #: warmup snapshot cache directory (``None`` disables forking) —
        #: execution detail set by the executor, not part of the manifest
        self.snapshot_dir = None

    # ------------------------------------------------------------------
    def validate(self):
        """Raise ``ValueError`` naming any unknown benchmark or metric.

        (Scheme names are validated on construction by :func:`scheme_kind`.)
        """
        for benchmark in self.benchmarks:
            try:
                get_profile(benchmark)
            except KeyError as exc:
                raise ValueError(str(exc)) from None
        for metric in self.targets:
            if metric not in METRICS:
                raise ValueError(
                    f"unknown target metric {metric!r}; "
                    f"known: {sorted(METRICS)}"
                )
        return self

    def points(self):
        """The grid in deterministic (benchmark, scheme, vdd) order."""
        return [
            GridPoint(benchmark, scheme, vdd)
            for benchmark in self.benchmarks
            for scheme in self.schemes
            for vdd in self.vdds
        ]

    def seed_for(self, point, index):
        """Seed of draw ``index`` of ``point``'s stream."""
        if self.seeds is not None:
            return self.seeds[index]
        return derive_seed(self.master_seed, point.id, index)

    def warmup_seed_for(self, point):
        """The per-point warmup seed shared by all ``"fault"``-mode draws."""
        return derive_seed(self.master_seed, point.id, "warmup")

    def pair_specs(self, point, index):
        """(scheme RunSpec, fault-free baseline RunSpec) for one draw.

        In ``"fault"`` draw mode every draw of a point carries the same
        ``seed`` (so program, trace, and warmup are one shared
        realization — one snapshot) and a per-draw ``measurement_seed``
        (independent fault realizations over the measured window). The
        baseline's measured window is deterministic given the trace, so
        it carries no measurement seed at all: all indices produce the
        *same* baseline spec, which the batch engine and result cache
        collapse to a single simulation per point.
        """
        if self.draw_mode == "fault":
            seed = self.warmup_seed_for(point)
            measurement_seed = self.seed_for(point, index)
        else:
            seed = self.seed_for(point, index)
            measurement_seed = None
        common = dict(
            vdd=point.vdd, n_instructions=self.n_instructions,
            warmup=self.warmup, seed=seed, predictor=self.predictor,
            overclock=self.overclock, verify=self.verify,
        )
        telemetry = None
        if self.telemetry_interval:
            from repro.telemetry import TelemetryConfig

            telemetry = TelemetryConfig(
                metrics=True, interval=self.telemetry_interval, events=False
            )
        run_spec = RunSpec(
            point.benchmark, point.scheme, storm=self.storm,
            telemetry=telemetry, measurement_seed=measurement_seed, **common
        )
        base_spec = RunSpec(point.benchmark, SchemeKind.FAULT_FREE, **common)
        run_spec.repro_dir = base_spec.repro_dir = self.repro_dir
        run_spec.snapshot_dir = base_spec.snapshot_dir = self.snapshot_dir
        return (run_spec, base_spec)

    @classmethod
    def from_dict(cls, data):
        """Rebuild a spec from its manifest form.

        Manifests written before ``draw_mode`` existed enumerate whole-run
        seeds, so a missing key means the legacy ``"program"`` semantics —
        resuming an old campaign must reproduce its original draws.
        """
        return super().from_dict({"draw_mode": "program", **data})
