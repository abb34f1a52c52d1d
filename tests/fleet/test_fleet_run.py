"""End to end: a local fleet reproduces the single-pool campaign bytes."""

import json
import os
import shutil

import pytest

from repro.campaign.executor import CampaignError, run_campaign
from repro.campaign.plan import CampaignSpec
from repro.fleet import FleetError, fleet_run
from repro.fleet.merge import shard_dir, shard_path


def _spec(**overrides):
    knobs = dict(
        name="fleet-e2e", benchmarks=["astar"], schemes=["EP", "ABS"],
        vdds=[0.97], n_instructions=500, warmup=250, min_seeds=2,
        max_seeds=4, batch_size=2,
    )
    knobs.update(overrides)
    return CampaignSpec(**knobs)


def _single_pool(directory, **overrides):
    return run_campaign(
        str(directory), spec=_spec(**overrides), cache=False,
        snapshots=False,
    )


class TestFleetRun:
    def test_fleet_health_reads_the_same_live_and_cold(self, tmp_path,
                                                       capsys):
        """Per-worker draws do not depend on when a view attached.

        A view attached before the merge folded the shards first; a cold
        one folds the merged journal first. Both count each worker's
        accepted draws, and offline ``fleet status`` prints the same
        lease and worker lines as ``--follow``.
        """
        from repro.dashboard import CampaignView
        from repro.harness.cli import main

        fleet = tmp_path / "fleet"
        fleet_run(
            fleet, spec=_spec(min_seeds=4, max_seeds=4, batch_size=4,
                              n_instructions=800, warmup=400),
            workers=2, cache=False, snapshots=False, linger=0.2,
        )
        journal = fleet / "journal.jsonl"
        merged = tmp_path / "merged.jsonl"
        os.replace(journal, merged)
        attached = CampaignView(fleet)
        attached.refresh()
        os.replace(merged, journal)
        attached.refresh()
        cold = CampaignView(fleet)
        cold.refresh()
        health = cold.fleet_status()
        assert health == attached.fleet_status()
        assert sum(w["draws"] for w in health["workers"].values()) == 8
        assert main(["fleet", "status", "--dir", str(fleet)]) == 0
        out = capsys.readouterr().out
        assert "leases: " in out and "2/2 points done" in out
        for name, info in health["workers"].items():
            assert f"worker {name}: {info['draws']} draws" in out

    def test_kernel_compiles_once_before_workers_spawn(self, tmp_path,
                                                       monkeypatch,
                                                       compiler_log):
        """With lanes on and an empty kernel cache, the coordinator
        builds the kernel and both workers load it: one compiler run."""
        monkeypatch.setenv("REPRO_BATCH_LANES", "2")
        fleet_run(tmp_path / "fleet", spec=_spec(), workers=2, cache=False,
                  snapshots=False, linger=0.2)
        assert len(compiler_log.read_text().split()) == 1

    def test_report_byte_identical_to_single_pool(self, tmp_path):
        _single_pool(tmp_path / "pool")
        fleet_run(
            tmp_path / "fleet", spec=_spec(), workers=2, cache=False,
            snapshots=False, linger=0.2,
        )
        assert (tmp_path / "fleet" / "journal.jsonl").read_bytes() == (
            tmp_path / "pool" / "journal.jsonl"
        ).read_bytes()
        assert (tmp_path / "fleet" / "report.json").read_bytes() == (
            tmp_path / "pool" / "report.json"
        ).read_bytes()

    def test_draws_split_across_workers(self, tmp_path):
        fleet_run(
            tmp_path, spec=_spec(), workers=2, cache=False,
            snapshots=False, linger=0.2,
        )
        shards = sorted(
            p.name for p in (tmp_path / "shards").glob("worker*.jsonl")
        )
        assert shards == ["worker0.jsonl", "worker1.jsonl"]
        # with 2 points and one lease per point, both workers got work
        for shard in shards:
            lines = (tmp_path / "shards" / shard).read_text().splitlines()
            assert len(lines) >= 1

    @pytest.mark.parametrize("writer", ["fleet", "pool"])
    def test_rerun_of_complete_campaign_is_idempotent(self, tmp_path,
                                                      writer):
        """A fleet resume of a finished directory rewrites nothing.

        Holds whoever wrote the directory: a fleet, or a single pool
        whose ``journal.jsonl`` the fleet adopts.
        """
        if writer == "fleet":
            fleet_run(
                tmp_path, spec=_spec(), workers=1, cache=False,
                snapshots=False, linger=0.2,
            )
        else:
            _single_pool(tmp_path)
        journal = (tmp_path / "journal.jsonl").read_bytes()
        before = (tmp_path / "report.json").read_bytes()
        report = fleet_run(
            tmp_path, workers=1, resume=True, cache=False,
            snapshots=False, linger=0.2,
        )
        assert report["complete"]
        assert (tmp_path / "journal.jsonl").read_bytes() == journal
        assert (tmp_path / "report.json").read_bytes() == before

    @pytest.mark.parametrize("resumer", ["fleet", "pool"])
    @pytest.mark.parametrize("kept", [2, 3], ids=["boundary", "in-batch"])
    def test_resume_adopts_cut_single_pool_journal(self, tmp_path, resumer,
                                                   kept):
        """A fleet or a pool finishes a single-pool journal cut short.

        Each point runs two batches of two draws; the cut keeps the
        first batch, or one draw more. The adopted draws stay in the
        merge and a partly journaled batch runs only its missing draw,
        so the result is the uninterrupted single-pool run, byte for
        byte.
        """
        knobs = dict(min_seeds=3, max_seeds=6, targets={})
        _single_pool(tmp_path / "pool", **knobs)
        cut = tmp_path / "cut"
        shutil.copytree(tmp_path / "pool", cut)
        lines = (cut / "journal.jsonl").read_text().splitlines(True)
        runs = [line for line in lines if json.loads(line)["event"] == "run"]
        (cut / "journal.jsonl").write_text("".join(runs[:kept]))
        if resumer == "fleet":
            fleet_run(
                cut, workers=1, resume=True, cache=False, snapshots=False,
                linger=0.2,
            )
        else:
            run_campaign(str(cut), resume=True, cache=False,
                         snapshots=False)
        for name in ("journal.jsonl", "report.json"):
            assert (cut / name).read_bytes() == (
                tmp_path / "pool" / name
            ).read_bytes(), name

    def test_refuses_progress_without_resume(self, tmp_path):
        fleet_run(
            tmp_path, spec=_spec(), workers=1, cache=False,
            snapshots=False, linger=0.2,
        )
        with pytest.raises(FleetError, match="resume"):
            fleet_run(tmp_path, workers=1, cache=False, snapshots=False,
                      linger=0.2)

    def test_run_refuses_shard_progress_without_resume(self, tmp_path):
        """A pool sees a killed fleet's shard draws and refuses to rerun."""
        _single_pool(tmp_path / "pool")
        killed = tmp_path / "killed"
        killed.mkdir()
        shutil.copy(tmp_path / "pool" / "manifest.json", killed)
        journal = (tmp_path / "pool" / "journal.jsonl").read_text()
        os.makedirs(shard_dir(killed))
        with open(shard_path(killed, "w0"), "w") as fh:
            fh.write(journal.splitlines(True)[0])  # the first draw
        with pytest.raises(CampaignError, match="resume"):
            run_campaign(str(killed), cache=False, snapshots=False)

    def test_report_marks_campaign_complete(self, tmp_path):
        report = fleet_run(
            tmp_path, spec=_spec(), workers=2, cache=False,
            snapshots=False, linger=0.2,
        )
        assert report["complete"]
        assert report["points_done"] == 2
        on_disk = json.load(open(tmp_path / "report.json"))
        assert on_disk == report

    def test_rejects_zero_workers(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            fleet_run(tmp_path, spec=_spec(), workers=0)

    def test_shard_layout(self, tmp_path):
        fleet_run(
            tmp_path, spec=_spec(), workers=1, cache=False,
            snapshots=False, linger=0.2,
        )
        assert (tmp_path / "leases.jsonl").exists()
        assert (tmp_path / "coordinator.json").exists()
        shards = shard_dir(tmp_path)
        assert (
            json.loads(open(tmp_path / "coordinator.json").read())["pid"]
        )
        coordinator_lines = open(
            f"{shards}/_coordinator.jsonl"
        ).read().splitlines()
        # one completion per point + the done marker
        assert len(coordinator_lines) == 3
        assert json.loads(coordinator_lines[-1]) == {"event": "done"}


class TestWorkerBaseline:
    @staticmethod
    def _fleet_runs(tmp_path, monkeypatch, batch_size):
        """Schemes a one-worker scalar no-cache fleet simulated for one
        EP point of 4 draws, leased ``batch_size`` draws at a time; the
        fleet's bytes must equal the pool's."""
        import asyncio

        from repro.fleet import FleetWorker
        from repro.fleet.coordinator import FleetCoordinator
        from repro.harness import parallel

        point = dict(schemes=["EP"], min_seeds=4, max_seeds=4,
                     batch_size=batch_size)
        _single_pool(tmp_path / "pool", **point)
        run_one, runs = parallel.run_one, []

        def spy(spec):
            runs.append(spec.scheme.name)
            return run_one(spec)

        monkeypatch.setattr(parallel, "run_one", spy)

        async def go():
            coordinator = FleetCoordinator(
                tmp_path / "fleet", spec=_spec(**point), wait_delay=0.1,
                linger=0.1, cache=False, snapshots=False,
            )
            serve = asyncio.create_task(coordinator.serve())
            await coordinator.ready.wait()
            worker = FleetWorker(
                coordinator.host, coordinator.port, name="scalar",
                cache=False, batch_lanes=0,
            )
            worker_task = asyncio.create_task(worker.run())
            report = await serve
            assert await worker_task == 0
            return report

        assert asyncio.run(go())["complete"]
        for name in ("journal.jsonl", "report.json"):
            assert (tmp_path / "fleet" / name).read_bytes() == (
                tmp_path / "pool" / name
            ).read_bytes(), name
        return sorted(runs)

    def test_scalar_lease_runs_its_baseline_once(self, tmp_path,
                                                 monkeypatch):
        """A lease's one-draw chunks share one fault-free baseline run.

        Without the reuse, a no-cache scalar worker would simulate the
        point's baseline once per draw: about twice the work.
        """
        runs = self._fleet_runs(tmp_path, monkeypatch, batch_size=4)
        assert runs == ["EP"] * 4 + ["FAULT_FREE"]

    def test_point_baseline_runs_once_across_leases(self, tmp_path,
                                                    monkeypatch):
        """Two leases of one point (``batch_size=2``) still share one
        baseline: the worker keeps it for the point, not the lease."""
        runs = self._fleet_runs(tmp_path, monkeypatch, batch_size=2)
        assert runs == ["EP"] * 4 + ["FAULT_FREE"]


class TestFleetSnapshots:
    def test_snapshot_fleet_equals_pool(self, tmp_path):
        """Workers fork snapshots exactly when the coordinator does.

        The coordinator names store A, the worker relocates its own to
        B and the pool uses C. Each draw journals its snapshot key, not
        a path, so the journals still match byte for byte.
        """
        import asyncio

        from repro.fleet import FleetWorker
        from repro.fleet.coordinator import FleetCoordinator

        run_campaign(str(tmp_path / "pool"), spec=_spec(), cache=False,
                     snapshot_dir=str(tmp_path / "C"))

        async def go():
            coordinator = FleetCoordinator(
                tmp_path / "fleet", spec=_spec(), wait_delay=0.1,
                linger=0.1, cache=False, snapshot_dir=str(tmp_path / "A"),
            )
            serve = asyncio.create_task(coordinator.serve())
            await coordinator.ready.wait()
            worker = FleetWorker(
                coordinator.host, coordinator.port, name="w0", cache=False,
                snapshot_dir=str(tmp_path / "B"),
            )
            worker_task = asyncio.create_task(worker.run())
            report = await serve
            assert await worker_task == 0
            return report

        assert asyncio.run(go())["complete"]
        journal = (tmp_path / "pool" / "journal.jsonl").read_text()
        assert '"snapshot": ' in journal
        for name in ("journal.jsonl", "report.json"):
            assert (tmp_path / "fleet" / name).read_bytes() == (
                tmp_path / "pool" / name
            ).read_bytes(), name
        assert os.listdir(tmp_path / "B")
        assert not (tmp_path / "A").exists()
