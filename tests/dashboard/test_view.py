"""CampaignView: byte-identity with the offline tools, fleet folding."""

import json
import os

from repro.campaign.executor import run_campaign
from repro.campaign.journal import Journal, write_manifest
from repro.campaign.plan import CampaignSpec
from repro.campaign.report import build_report
from repro.campaign.status import build_status
from repro.dashboard.view import CampaignView
from repro.fleet.ledger import LeaseLedger
from repro.fleet.merge import shard_path

_FAST = dict(n_instructions=500, warmup=250)


def _spec(**kw):
    defaults = dict(
        name="view-test", benchmarks=["astar"], schemes=["EP", "ABS"],
        vdds=[0.97], seeds=[1, 2], **_FAST,
    )
    defaults.update(kw)
    return CampaignSpec(**defaults)


def _run(point, index, overhead=0.1):
    return {
        "event": "run", "point": point, "index": index, "seed": index,
        "metrics": {"perf_overhead": overhead, "ed_overhead": 0.2,
                    "ipc": 1.0, "fault_rate": 0.01, "replay_rate": 0.0},
        "counts": {"faults": 5, "replays": 0, "committed": 500},
    }


def _dump(payload):
    return json.dumps(payload, sort_keys=True)


class TestByteIdentity:
    def test_live_view_matches_cold_rebuild_of_real_campaign(
        self, tmp_path
    ):
        """The acceptance property: view == `campaign report`, bytewise.

        A real (small) campaign run, then the view folds the same
        journal through the watcher — status and report must serialize
        byte-identically to the offline rebuild.
        """
        campaign = tmp_path / "c"
        run_campaign(campaign, spec=_spec(), cache=False, snapshots=False)
        view = CampaignView(campaign)
        view.refresh()
        assert _dump(view.report()) == _dump(build_report(campaign))
        assert _dump(view.status()) == _dump(build_status(campaign))
        report_json = json.load(open(campaign / "report.json"))
        assert _dump(view.report()) == _dump(report_json)

    def test_incremental_folding_matches_cold_rebuild_each_step(
        self, tmp_path
    ):
        spec = _spec()
        write_manifest(tmp_path, spec)
        first, second = (p.id for p in spec.points())
        view = CampaignView(tmp_path)
        with Journal(tmp_path) as journal:
            events = [
                _run(first, 0), _run(first, 1, overhead=0.14),
                {"event": "point", "point": first, "n": 2,
                 "stopped": "ci", "summary": {}},
                _run(second, 0), {"event": "done"},
            ]
            for event in events:
                journal.append(event)
                view.refresh()
                assert _dump(view.status()) == _dump(
                    build_status(tmp_path)
                )
                assert _dump(view.report()) == _dump(
                    build_report(tmp_path)
                )
        assert view.state.done

    def test_rotation_reemission_is_idempotent(self, tmp_path):
        """Re-reading a replaced journal must not double-count draws."""
        spec = _spec()
        write_manifest(tmp_path, spec)
        point = spec.points()[0].id
        view = CampaignView(tmp_path)
        with Journal(tmp_path) as journal:
            journal.append(_run(point, 0))
            journal.append(_run(point, 1))
        view.refresh()
        before = _dump(view.report())
        # merge_journals-style atomic replace: same records, new inode
        path = os.path.join(tmp_path, "journal.jsonl")
        tmp = path + ".merge"
        with open(path) as src, open(tmp, "w") as dst:
            dst.write(src.read())
        os.replace(tmp, path)
        assert view.refresh() == 0  # re-emitted records all deduped
        assert _dump(view.report()) == before

    def test_shard_records_fold_like_a_merged_journal(self, tmp_path):
        """Draws arriving via shards == the same draws in the journal."""
        spec = _spec()
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_manifest(a, spec)
        write_manifest(b, spec)
        point = spec.points()[0].id
        # directory a: draws in the canonical journal
        with Journal(a) as journal:
            journal.append(_run(point, 0))
            journal.append(_run(point, 1, overhead=0.3))
        # directory b: same draws, interleaved across two shards, out
        # of index order
        os.makedirs(b / "shards")
        with open(shard_path(b, "w2"), "w") as fh:
            fh.write(_dump(_run(point, 1, overhead=0.3)) + "\n")
        with open(shard_path(b, "w1"), "w") as fh:
            fh.write(_dump(_run(point, 0)) + "\n")
        view_a = CampaignView(a)
        view_b = CampaignView(b)
        view_a.refresh()
        view_b.refresh()
        assert _dump(view_a.report()) == _dump(view_b.report())

    def test_shard_only_directory_status_agrees_across_readers(
        self, tmp_path
    ):
        """A live fleet before its merge: every status reader agrees.

        ``campaign status`` and the view (which offline ``fleet status``
        renders) fold the same shard journals, so they report the same
        draws.
        """
        spec = _spec()
        write_manifest(tmp_path, spec)
        first, second = (p.id for p in spec.points())
        os.makedirs(tmp_path / "shards")
        shards = {
            "w0": [_run(first, 1), _run(second, 0)],
            "w1": [_run(first, 0)],
            "_coordinator": [{"event": "point", "point": first, "n": 2,
                              "stopped": "ci", "summary": {}}],
        }
        for name, events in shards.items():
            with open(shard_path(tmp_path, name), "w") as fh:
                fh.writelines(_dump(event) + "\n" for event in events)
        view = CampaignView(tmp_path)
        view.refresh()
        status = build_status(tmp_path)
        assert status["runs_total"] == 3 and status["points_done"] == 1
        assert _dump(status) == _dump(view.status())
        assert {name: info["draws"] for name, info in
                view.fleet_status()["workers"].items()} == {"w0": 2, "w1": 1}

    def test_duplicate_draw_across_journal_and_shard_deduped(
        self, tmp_path
    ):
        """First occurrence wins — the fleet's exactly-once rule."""
        spec = _spec()
        write_manifest(tmp_path, spec)
        point = spec.points()[0].id
        with Journal(tmp_path) as journal:
            journal.append(_run(point, 0, overhead=0.1))
        os.makedirs(tmp_path / "shards")
        with open(shard_path(tmp_path, "w"), "w") as fh:
            fh.write(_dump(_run(point, 0, overhead=9.9)) + "\n")
        view = CampaignView(tmp_path)
        view.refresh()
        runs = view.state.runs[point]
        assert len(runs) == 1
        assert runs[0]["metrics"]["perf_overhead"] == 0.1


class TestFleetFolding:
    def test_ledger_events_build_worker_and_lease_health(self, tmp_path):
        spec = _spec()
        write_manifest(tmp_path, spec)
        ledger = LeaseLedger(tmp_path)
        ledger.granted(1, "p", [0, 1], "w1")
        ledger.granted(2, "p", [2, 3], "w2")
        ledger.completed(1)
        ledger.stolen(3, 2, "p", [3], "w1", "w2")
        ledger.revoked(2, "heartbeat-expired")
        ledger.scaled("spawn", "w3", "queue-depth")
        ledger.audited({"auth_failures": 2, "steals": 1})
        view = CampaignView(tmp_path)
        view.refresh()
        fleet = view.fleet_status()
        assert fleet["leases_granted"] == 2
        assert fleet["leases_completed"] == 1
        assert fleet["leases_revoked"] == 1
        assert fleet["workers"]["w1"]["completed"] == 1
        assert fleet["workers"]["w2"]["revoked"] == 1
        assert fleet["workers"]["w2"]["stolen_from"] == 1
        assert [s["thief_lease"] for s in fleet["steals"]] == [3]
        assert [s["action"] for s in fleet["scale_events"]] == ["spawn"]
        assert fleet["audit"] == {"auth_failures": 2, "steals": 1}
        assert fleet["open_leases"] == []

    def test_version_bumps_only_on_change(self, tmp_path):
        spec = _spec()
        write_manifest(tmp_path, spec)
        view = CampaignView(tmp_path)
        v0 = view.version
        assert view.refresh() == 0
        assert view.version == v0
        with Journal(tmp_path) as journal:
            journal.append(_run(spec.points()[0].id, 0))
        assert view.refresh() == 1
        assert view.version == v0 + 1


class TestDrilldown:
    def test_point_detail_links_draws_and_artifacts(self, tmp_path):
        spec = _spec()
        write_manifest(tmp_path, spec)
        point = spec.points()[0].id
        with Journal(tmp_path) as journal:
            event = _run(point, 0)
            event["snapshot"] = "abc123"
            journal.append(event)
        os.makedirs(tmp_path / "bundles")
        (tmp_path / "bundles" / "fail.json").write_text("{}")
        view = CampaignView(tmp_path)
        view.refresh()
        detail = view.point_detail(point)
        assert detail["n"] == 1
        assert detail["draws"][0]["snapshot"] == "abc123"
        assert detail["artifacts"]["snapshots"] == ["abc123"]
        assert detail["artifacts"]["bundles"] == ["fail.json"]
        assert detail["convergence"]["n"] == 1
        assert view.point_detail("no/such/point") is None

    def test_convergence_series_tracks_halfwidth_per_draw(self, tmp_path):
        spec = _spec()
        write_manifest(tmp_path, spec)
        point = spec.points()[0].id
        with Journal(tmp_path) as journal:
            journal.append(_run(point, 0, overhead=0.1))
            journal.append(_run(point, 1, overhead=0.2))
        view = CampaignView(tmp_path)
        view.refresh()
        conv = view.convergence(point)
        series = conv["halfwidths"]["perf_overhead"]
        assert series[0] is None  # n=1: infinite CI, JSON-safe
        assert series[1] is not None and series[1] > 0

    def test_fork_spec_restricts_grid_to_one_point(self, tmp_path):
        spec = _spec()
        write_manifest(tmp_path, spec)
        point = spec.points()[1]
        view = CampaignView(tmp_path)
        fork = view.fork_spec(point.id)
        campaign = fork["campaign_spec"]
        assert campaign["benchmarks"] == [point.benchmark]
        assert campaign["schemes"] == [point.scheme.name]
        assert campaign["vdds"] == [point.vdd]
        assert campaign["n_instructions"] == spec.n_instructions
        # the re-emitted RunSpec round-trips through RunSpec.from_dict
        from repro.harness.runner import RunSpec

        rebuilt = RunSpec.from_dict(fork["run_spec"])
        assert rebuilt.benchmark == point.benchmark
        assert rebuilt.vdd == point.vdd
        # explicit seeds have no flag: no command line can plan this fork
        assert fork["cli"] is None

    def test_fork_run_spec_is_draw_zero(self, tmp_path):
        """The forked run spec keys like draw 0: measurement seed and
        telemetry included."""
        from repro.harness.runner import RunSpec

        spec = _spec(seeds=None, telemetry_interval=200)
        write_manifest(tmp_path, spec)
        point = spec.points()[1]
        fork = CampaignView(tmp_path).fork_spec(point.id)
        draw = spec.pair_specs(point, 0)[0]
        assert draw.measurement_seed is not None
        rebuilt = RunSpec.from_dict(json.loads(json.dumps(fork["run_spec"])))
        assert rebuilt.key() == draw.key()

    def test_fork_spec_is_plannable(self, tmp_path):
        """The forked spec feeds CampaignSpec.from_dict and validates."""
        spec = _spec()
        write_manifest(tmp_path, spec)
        view = CampaignView(tmp_path)
        fork = view.fork_spec(spec.points()[0].id)
        forked = CampaignSpec.from_dict(fork["campaign_spec"]).validate()
        assert len(forked.points()) == 1

    def test_telemetry_rows_surface_summaries(self, tmp_path):
        spec = _spec()
        write_manifest(tmp_path, spec)
        point = spec.points()[0].id
        with Journal(tmp_path) as journal:
            event = _run(point, 0)
            event["telemetry"] = {
                "interval": 100, "windows": 5,
                "ipc": {"min": 0.9, "mean": 1.0, "max": 1.1},
                "dropped_events": 3,
            }
            journal.append(event)
            journal.append(_run(point, 1))  # telemetry-free draw
        view = CampaignView(tmp_path)
        view.refresh()
        telem = view.telemetry(point)
        assert telem["interval"] == 100
        assert len(telem["rows"]) == 1
        assert telem["rows"][0]["ipc"]["mean"] == 1.0
        assert telem["rows"][0]["dropped_events"] == 3
