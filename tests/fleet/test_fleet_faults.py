"""Fault paths: worker SIGKILL, heartbeat expiry, coordinator restart.

These run real coordinator/worker processes over localhost TCP and then
hold the merged journal to the acceptance bar: zero lost draws, zero
duplicated draws, bytes identical to a single-pool run of the same spec.
"""

import asyncio
import json
import signal

from repro.campaign.executor import run_campaign
from repro.campaign.plan import CampaignSpec
from repro.fleet import FleetWorker, fleet_run
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.merge import shard_path
from repro.fleet.protocol import read_message, send_message
from repro.fleet.service import reap_workers, spawn_worker

#: slow enough that a SIGKILL lands mid-lease, fast enough for CI
_DRAW = dict(n_instructions=8000, warmup=2000)


def _spec(**overrides):
    knobs = dict(
        name="fleet-faults", benchmarks=["astar"], schemes=["EP"],
        vdds=[0.97], min_seeds=4, max_seeds=4, batch_size=4, **_DRAW,
    )
    knobs.update(overrides)
    return CampaignSpec(**knobs)


def _single_pool(directory, **overrides):
    return run_campaign(
        str(directory), spec=_spec(**overrides), cache=False,
        snapshots=False,
    )


async def _await_journal_lines(path, n, timeout=60.0):
    deadline = asyncio.get_event_loop().time() + timeout
    while asyncio.get_event_loop().time() < deadline:
        try:
            with open(path) as fh:
                if sum(1 for line in fh if line.endswith("\n")) >= n:
                    return
        except FileNotFoundError:
            pass
        await asyncio.sleep(0.02)
    raise AssertionError(f"{path} never reached {n} journaled entries")


def _ledger_events(directory):
    with open(f"{directory}/leases.jsonl") as fh:
        return [json.loads(line) for line in fh]


def _journal_draws(directory):
    """(point, index) of every run event in the merged journal, in order."""
    draws = []
    with open(f"{directory}/journal.jsonl") as fh:
        for line in fh:
            event = json.loads(line)
            if event["event"] == "run":
                draws.append((event["point"], event["index"]))
    return draws


class TestWorkerDeath:
    def test_sigkill_mid_lease_loses_and_duplicates_nothing(self, tmp_path):
        _single_pool(tmp_path / "pool")
        fleet = tmp_path / "fleet"

        async def go():
            coordinator = FleetCoordinator(
                fleet, spec=_spec(), heartbeat_timeout=10.0, linger=0.2,
                cache=False, snapshots=False,
            )
            serve = asyncio.create_task(coordinator.serve())
            await coordinator.ready.wait()
            victim = spawn_worker(
                coordinator.host, coordinator.port, "victim",
                cache=False,
            )
            # kill the worker the moment its first draw is journaled —
            # with a 4-draw lease it is guaranteed to die mid-lease
            await _await_journal_lines(shard_path(fleet, "victim"), 1)
            victim.send_signal(signal.SIGKILL)
            victim.wait()
            rescuer = spawn_worker(
                coordinator.host, coordinator.port, "rescuer",
                cache=False,
            )
            report = await serve
            reap_workers([rescuer])
            return report

        report = asyncio.run(go())
        assert report["complete"]
        point = _spec().points()[0].id
        assert _journal_draws(fleet) == [(point, i) for i in range(4)]
        assert (fleet / "journal.jsonl").read_bytes() == (
            tmp_path / "pool" / "journal.jsonl"
        ).read_bytes()
        assert (fleet / "report.json").read_bytes() == (
            tmp_path / "pool" / "report.json"
        ).read_bytes()
        # the victim's lease was revoked when its socket dropped, and its
        # unfinished indices reappeared under a later lease
        events = _ledger_events(fleet)
        revoked = [e for e in events if e["event"] == "revoke"]
        assert revoked, "worker death must revoke its lease"
        grants = {e["lease"]: e for e in events if e["event"] == "lease"}
        victim_grant = grants[revoked[0]["lease"]]
        journaled = {
            index for _, index in _journal_draws(fleet)
        }
        assert set(victim_grant["indices"]) <= journaled


class TestHeartbeatExpiry:
    def test_silent_worker_is_revoked_and_draws_reassigned(self, tmp_path):
        _single_pool(tmp_path / "pool", n_instructions=500, warmup=250)
        fleet = tmp_path / "fleet"

        async def go():
            from repro.harness.parallel import model_version

            coordinator = FleetCoordinator(
                fleet, spec=_spec(n_instructions=500, warmup=250),
                heartbeat_timeout=0.6, wait_delay=0.1, linger=0.1,
                cache=False, snapshots=False,
            )
            serve = asyncio.create_task(coordinator.serve())
            await coordinator.ready.wait()
            # a worker that takes a lease and then goes silent: no
            # heartbeats, no entries, but the socket stays open
            reader, writer = await asyncio.open_connection(
                coordinator.host, coordinator.port
            )
            await send_message(writer, {
                "type": "hello", "worker": "sloth",
                "model_version": model_version(),
            })
            config = await read_message(reader)
            assert config["type"] == "config"
            await send_message(writer, {"type": "request"})
            lease = await read_message(reader)
            assert lease["type"] == "lease"
            diligent = FleetWorker(
                coordinator.host, coordinator.port, name="diligent",
                cache=False,
            )
            worker_task = asyncio.create_task(diligent.run())
            report = await serve
            writer.close()
            assert await worker_task == 0
            return report

        report = asyncio.run(go())
        assert report["complete"]
        assert (fleet / "journal.jsonl").read_bytes() == (
            tmp_path / "pool" / "journal.jsonl"
        ).read_bytes()
        events = _ledger_events(fleet)
        expiries = [
            e for e in events
            if e["event"] == "revoke" and e["reason"] == "heartbeat timeout"
        ]
        assert expiries, "silence past the timeout must revoke the lease"
        # every draw came from the diligent worker's re-lease; the silent
        # worker never contributed an entry, so it never got a shard
        import os

        assert not os.path.exists(shard_path(fleet, "sloth"))
        assert os.path.exists(shard_path(fleet, "diligent"))


class TestCoordinatorRestart:
    def test_resume_after_coordinator_crash(self, tmp_path):
        _single_pool(tmp_path / "pool", batch_size=2)
        fleet = tmp_path / "fleet"

        async def crash_mid_campaign():
            coordinator = FleetCoordinator(
                fleet, spec=_spec(batch_size=2), heartbeat_timeout=10.0,
                linger=0.2, cache=False, snapshots=False,
            )
            serve = asyncio.create_task(coordinator.serve())
            await coordinator.ready.wait()
            worker = spawn_worker(
                coordinator.host, coordinator.port, "w0",
                cache=False,
            )
            # let the first batch (2 of 4 draws) land, then "crash":
            # cancel the serve task without any graceful finalization
            await _await_journal_lines(shard_path(fleet, "w0"), 2)
            serve.cancel()
            try:
                await serve
            except asyncio.CancelledError:
                pass
            worker.terminate()
            worker.wait()

        asyncio.run(crash_mid_campaign())
        assert not (fleet / "journal.jsonl").exists()  # died pre-merge

        report = fleet_run(
            fleet, workers=1, resume=True, cache=False, snapshots=False,
            linger=0.2,
        )
        assert report["complete"]
        point = _spec().points()[0].id
        assert _journal_draws(fleet) == [(point, i) for i in range(4)]
        assert (fleet / "journal.jsonl").read_bytes() == (
            tmp_path / "pool" / "journal.jsonl"
        ).read_bytes()
        assert (fleet / "report.json").read_bytes() == (
            tmp_path / "pool" / "report.json"
        ).read_bytes()
