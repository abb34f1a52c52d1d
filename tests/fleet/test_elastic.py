"""Elastic pools: the autoscaler policy, drain-then-exit, and e2e growth."""

import asyncio
import json

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.plan import CampaignSpec
from repro.fleet import FleetWorker, fleet_run
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.merge import shard_path
from repro.fleet.service import ElasticPool, fleet_run as _fleet_run
from repro.fleet.service import scale_decision


def _spec(**overrides):
    knobs = dict(
        name="fleet-elastic", benchmarks=["astar"], schemes=["EP", "ABS"],
        vdds=[0.97], n_instructions=500, warmup=250, min_seeds=2,
        max_seeds=2, batch_size=2,
    )
    knobs.update(overrides)
    return CampaignSpec(**knobs)


def _load(**overrides):
    load = dict(
        queue_depth=0, open_points=1, leases=1, workers=1, idle=0,
        idle_workers=[], max_wait_s=0.0, draining=[], complete=False,
    )
    load.update(overrides)
    return load


class TestScaleDecision:
    def test_holds_at_steady_state(self):
        assert scale_decision(_load(), 2, 0, 1, 4) == ("hold", None)

    def test_spawns_below_floor(self):
        action, _ = scale_decision(_load(), 1, 0, 2, 4)
        assert action == "spawn"
        # a draining worker no longer counts toward the floor
        action, _ = scale_decision(_load(), 2, 1, 2, 4)
        assert action == "spawn"

    def test_spawns_on_queued_work_with_no_idle(self):
        load = _load(queue_depth=2, idle=0)
        assert scale_decision(load, 2, 0, 1, 4) == ("spawn", None)

    def test_respects_the_ceiling(self):
        load = _load(queue_depth=5, idle=0)
        assert scale_decision(load, 4, 0, 1, 4) == ("hold", None)

    def test_no_spawn_while_a_worker_idles(self):
        # an idle worker means leasing, not pool size, is the bottleneck
        load = _load(queue_depth=1, idle=1, idle_workers=["w1"],
                     max_wait_s=0.1)
        assert scale_decision(load, 2, 0, 1, 4) == ("hold", None)

    def test_retires_a_persistently_idle_worker(self):
        load = _load(idle=1, idle_workers=["w1"], max_wait_s=2.0)
        assert scale_decision(load, 2, 0, 1, 4, idle_grace=1.0) == (
            "retire", "w1"
        )

    def test_never_retires_below_the_floor(self):
        load = _load(idle=1, idle_workers=["w0"], max_wait_s=9.0)
        assert scale_decision(load, 1, 0, 1, 4) == ("hold", None)

    def test_brief_idleness_is_not_retirement(self):
        load = _load(idle=1, idle_workers=["w1"], max_wait_s=0.2)
        assert scale_decision(load, 2, 0, 1, 4, idle_grace=1.0) == (
            "hold", None
        )

    def test_already_draining_workers_are_not_re_retired(self):
        load = _load(idle=1, idle_workers=["w1"], max_wait_s=5.0,
                     draining=["w1"])
        assert scale_decision(load, 2, 1, 1, 4) == ("hold", None)


class TestPoolValidation:
    def test_min_must_not_exceed_max(self, tmp_path):
        with pytest.raises(ValueError, match="min_workers"):
            fleet_run(tmp_path, spec=_spec(), workers=1, min_workers=3,
                      max_workers=2)

    def test_min_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="min_workers"):
            fleet_run(tmp_path, spec=_spec(), workers=1, min_workers=0,
                      max_workers=2)

    def test_elastic_pool_validates_band(self, tmp_path):
        async def go():
            coordinator = FleetCoordinator(
                tmp_path, spec=_spec(), cache=False, snapshots=False,
            )
            coordinator._prepare()
            with pytest.raises(ValueError, match="min_workers"):
                ElasticPool(coordinator, 3, 2)

        asyncio.run(go())


class TestDrainThenExit:
    def test_drained_worker_finishes_lease_and_exits_zero(self, tmp_path):
        run_campaign(
            str(tmp_path / "pool"), spec=_spec(), cache=False,
            snapshots=False,
        )
        fleet = tmp_path / "fleet"

        async def go():
            # stealing off so the in-flight lease provably stays whole
            coordinator = FleetCoordinator(
                fleet, spec=_spec(), linger=0.2, cache=False,
                snapshots=False, wait_delay=0.1, steal=False,
            )
            serve = asyncio.create_task(coordinator.serve())
            await coordinator.ready.wait()
            retiree = FleetWorker(
                coordinator.host, coordinator.port, name="retiree",
                cache=False, throttle=0.2,
            )
            retiree_task = asyncio.create_task(retiree.run())
            while not coordinator._leases:
                await asyncio.sleep(0.01)
            # retire it mid-lease: it must finish in-flight draws first
            coordinator.drain_worker("retiree")
            finisher = FleetWorker(
                coordinator.host, coordinator.port, name="finisher",
                cache=False,
            )
            finisher_task = asyncio.create_task(finisher.run())
            report = await serve
            return report, await retiree_task, await finisher_task

        report, retiree_code, finisher_code = asyncio.run(go())
        assert report["complete"]
        assert retiree_code == 0  # clean shutdown, not an error path
        assert finisher_code == 0
        # the drained worker journaled its whole in-flight lease — a
        # scale-down loses zero draws
        lines = open(shard_path(fleet, "retiree")).read().splitlines()
        assert len(lines) == 2
        assert (fleet / "journal.jsonl").read_bytes() == (
            tmp_path / "pool" / "journal.jsonl"
        ).read_bytes()


class TestElasticEndToEnd:
    def test_pool_grows_under_queued_work(self, tmp_path):
        run_campaign(
            str(tmp_path / "pool"), spec=_spec(), cache=False,
            snapshots=False,
        )
        fleet = tmp_path / "fleet"
        report = _fleet_run(
            fleet, spec=_spec(), workers=1, min_workers=1, max_workers=3,
            cache=False, snapshots=False, linger=0.2,
        )
        assert report["complete"]
        assert (fleet / "journal.jsonl").read_bytes() == (
            tmp_path / "pool" / "journal.jsonl"
        ).read_bytes()
        assert (fleet / "report.json").read_bytes() == (
            tmp_path / "pool" / "report.json"
        ).read_bytes()
        events = [
            json.loads(line)
            for line in open(fleet / "leases.jsonl")
        ]
        scales = [e for e in events if e["event"] == "scale"]
        spawns = [e for e in scales if e["action"] == "spawn"]
        assert spawns and spawns[0]["worker"] == "worker0"
        assert spawns[0]["reason"] == "initial pool"
