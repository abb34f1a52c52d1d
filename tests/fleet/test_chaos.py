"""Chaos-proxy e2e: fleet output stays byte-identical under bad weather."""

import asyncio

from repro.campaign.executor import run_campaign
from repro.campaign.plan import CampaignSpec
from repro.fleet import ChaosConfig, ChaosProxy
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.service import reap_workers, spawn_worker


def _spec(**overrides):
    knobs = dict(
        name="fleet-chaos", benchmarks=["astar"], schemes=["EP", "ABS"],
        vdds=[0.97], n_instructions=500, warmup=250, min_seeds=2,
        max_seeds=4, batch_size=2,
    )
    knobs.update(overrides)
    return CampaignSpec(**knobs)


def _chaos_fleet(fleet, config, workers=2):
    """Run a campaign with every worker connected through the proxy."""

    async def go():
        coordinator = FleetCoordinator(
            fleet, spec=_spec(), heartbeat_timeout=3.0, linger=0.3,
            cache=False, snapshots=False, wait_delay=0.1,
        )
        serve = asyncio.create_task(coordinator.serve())
        await coordinator.ready.wait()
        proxy = ChaosProxy(
            coordinator.host, coordinator.port, config=config
        )
        await proxy.start()
        procs = [
            spawn_worker(
                proxy.host, proxy.port, f"worker{i}",
                cache=False,
                # a generous budget: every injected cut or partition
                # costs reconnects, and chaos must never exhaust them
                reconnect_attempts=40, reconnect_delay=0.05,
                reconnect_max_delay=0.3,
            )
            for i in range(workers)
        ]
        try:
            report = await serve
        finally:
            await asyncio.to_thread(reap_workers, procs)
            await proxy.stop()
        return report, dict(proxy.injected)

    return asyncio.run(go())


class TestChaosFleet:
    def _reference(self, tmp_path):
        run_campaign(
            str(tmp_path / "pool"), spec=_spec(), cache=False,
            snapshots=False,
        )

    def _assert_identical(self, tmp_path, fleet):
        assert (fleet / "journal.jsonl").read_bytes() == (
            tmp_path / "pool" / "journal.jsonl"
        ).read_bytes()
        assert (fleet / "report.json").read_bytes() == (
            tmp_path / "pool" / "report.json"
        ).read_bytes()

    def test_transparent_proxy_injects_nothing(self, tmp_path):
        self._reference(tmp_path)
        fleet = tmp_path / "fleet"
        report, injected = _chaos_fleet(fleet, ChaosConfig(seed=1))
        assert report["complete"]
        assert injected == {}
        self._assert_identical(tmp_path, fleet)

    def test_latency_dup_reorder_weather(self, tmp_path):
        self._reference(tmp_path)
        fleet = tmp_path / "fleet"
        config = ChaosConfig(
            seed=7, latency=0.05, latency_p=0.4, dup_p=0.25,
            reorder_p=0.25, max_events=0,  # no destructive events
        )
        report, injected = _chaos_fleet(fleet, config)
        assert report["complete"]
        # the weather actually happened — otherwise this proves nothing
        assert sum(injected.values()) > 0
        assert injected.get("dup", 0) + injected.get("reorder", 0) > 0
        self._assert_identical(tmp_path, fleet)

    def test_cuts_partitions_and_corruption(self, tmp_path):
        self._reference(tmp_path)
        fleet = tmp_path / "fleet"
        config = ChaosConfig(
            seed=11, cut_p=0.12, corrupt_p=0.08, partition_p=0.05,
            partition_s=0.2, max_events=4,
        )
        report, injected = _chaos_fleet(fleet, config)
        assert report["complete"]
        destructive = (
            injected.get("cut", 0) + injected.get("corrupt", 0)
            + injected.get("partition", 0)
        )
        assert 1 <= destructive <= 4
        self._assert_identical(tmp_path, fleet)
