"""Work-stealing: straggler lease tails move; overlap stays exactly-once."""

import asyncio
import json

from repro.campaign.executor import run_campaign
from repro.campaign.plan import CampaignSpec
from repro.fleet import fleet_run
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.merge import shard_path
from repro.fleet.service import reap_workers, spawn_worker

_METRICS = {"perf_overhead": 0.1, "ed_overhead": 0.2, "ipc": 1.0,
            "fault_rate": 0.0, "replay_rate": 0.0}
_COUNTS = {"faults": 0, "replays": 0, "committed": 500}


def _spec(**overrides):
    knobs = dict(
        name="fleet-steal", benchmarks=["astar"], schemes=["EP"],
        vdds=[0.97], n_instructions=500, warmup=250, min_seeds=4,
        max_seeds=4, batch_size=4,
    )
    knobs.update(overrides)
    return CampaignSpec(**knobs)


def _ledger_events(directory):
    with open(f"{directory}/leases.jsonl") as fh:
        return [json.loads(line) for line in fh]


def _coordinator(directory, **kwargs):
    coordinator = FleetCoordinator(
        directory, spec=_spec(**kwargs.pop("spec_overrides", {})),
        linger=0.1, cache=False, snapshots=False, **kwargs
    )
    coordinator._prepare()
    return coordinator


class TestStealUnit:
    def test_idle_worker_steals_the_straggler_tail(self, tmp_path):
        async def go():
            coordinator = _coordinator(tmp_path)
            first = coordinator._grant("straggler")
            assert first["type"] == "lease"
            assert first["indices"] == [0, 1, 2, 3]
            second = coordinator._grant("idle")
            return coordinator, first, second

        coordinator, first, second = asyncio.run(go())
        # the tail (upper half) moved; the victim keeps the head
        assert second["type"] == "lease"
        assert second["indices"] == [2, 3]
        assert coordinator._leases[first["lease"]]["indices"] == {0, 1}
        assert coordinator.audit["steals"] == 1
        steals = [e for e in _ledger_events(tmp_path)
                  if e["event"] == "steal"]
        pid = coordinator._leases[second["lease"]]["point"]
        assert steals == [{
            "event": "steal", "thief_lease": second["lease"],
            "victim_lease": first["lease"], "point": pid,
            "indices": [2, 3], "worker": "idle", "victim": "straggler",
        }]

    def test_single_index_leases_are_not_stolen(self, tmp_path):
        async def go():
            coordinator = _coordinator(
                tmp_path,
                spec_overrides=dict(min_seeds=1, max_seeds=1,
                                    batch_size=1),
            )
            first = coordinator._grant("straggler")
            assert first["indices"] == [0]
            second = coordinator._grant("idle")
            return coordinator, second

        coordinator, second = asyncio.run(go())
        # a lone in-flight draw is already being executed; moving it
        # buys nothing — the idle worker waits instead
        assert second["type"] == "wait"
        assert coordinator.audit["steals"] == 0

    def test_steal_disabled_waits(self, tmp_path):
        async def go():
            coordinator = _coordinator(tmp_path, steal=False)
            coordinator._grant("straggler")
            return coordinator._grant("idle")

        assert asyncio.run(go())["type"] == "wait"

    def test_overlap_is_exactly_once_whoever_journals_first(
        self, tmp_path
    ):
        async def go():
            coordinator = _coordinator(tmp_path)
            first = coordinator._grant("straggler")
            second = coordinator._grant("idle")
            pid = coordinator._leases[second["lease"]]["point"]
            entry = {"event": "run", "point": pid, "index": 2,
                     "seed": 7, "metrics": _METRICS, "counts": _COUNTS}
            # the *victim* journals a stolen index first...
            coordinator._handle_entry("straggler", {"entry": entry})
            # ...and the thief's duplicate arrives second
            coordinator._handle_entry("idle", {"entry": dict(entry)})
            return coordinator, first, second

        coordinator, first, second = asyncio.run(go())
        # the draw credited the lease that holds it (the thief's), and
        # the duplicate was dropped before touching any shard journal
        assert coordinator._leases[second["lease"]]["indices"] == {3}
        assert coordinator._leases[first["lease"]]["indices"] == {0, 1}
        straggler_shard = open(shard_path(tmp_path, "straggler")).read()
        assert straggler_shard.count('"index": 2') == 1
        import os

        assert not os.path.exists(shard_path(tmp_path, "idle"))


class TestStealEndToEnd:
    def test_straggler_tail_is_stolen_byte_identical(self, tmp_path):
        run_campaign(
            str(tmp_path / "pool"), spec=_spec(), cache=False,
            snapshots=False,
        )
        fleet = tmp_path / "fleet"

        async def go():
            coordinator = FleetCoordinator(
                fleet, spec=_spec(), heartbeat_timeout=10.0, linger=0.2,
                cache=False, snapshots=False, wait_delay=0.1,
            )
            serve = asyncio.create_task(coordinator.serve())
            await coordinator.ready.wait()
            # a 10x-slower straggler takes the whole 4-draw lease...
            slow = spawn_worker(
                coordinator.host, coordinator.port, "slow",
                cache=False, throttle=0.4,
            )
            while not coordinator._leases:
                await asyncio.sleep(0.01)
            # ...then a fast worker joins with nothing left to lease
            fast = spawn_worker(
                coordinator.host, coordinator.port, "fast",
                cache=False,
            )
            report = await serve
            reap_workers([slow, fast])
            return report

        report = asyncio.run(go())
        assert report["complete"]
        assert (fleet / "journal.jsonl").read_bytes() == (
            tmp_path / "pool" / "journal.jsonl"
        ).read_bytes()
        assert (fleet / "report.json").read_bytes() == (
            tmp_path / "pool" / "report.json"
        ).read_bytes()
        events = _ledger_events(fleet)
        steals = [e for e in events if e["event"] == "steal"]
        assert steals, "the fast worker must have stolen the tail"
        assert steals[0]["victim"] == "slow"
        assert steals[0]["worker"] == "fast"

    def test_no_steal_events_when_disabled(self, tmp_path):
        fleet_run(
            tmp_path, spec=_spec(min_seeds=2, max_seeds=2, batch_size=2),
            workers=2, cache=False, snapshots=False, linger=0.2,
            steal=False,
        )
        events = _ledger_events(tmp_path)
        assert not [e for e in events if e["event"] == "steal"]
