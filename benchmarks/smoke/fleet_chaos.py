"""fleet-chaos-smoke: a 2-worker fleet run through the chaos proxy.

Runs ``pool_out``'s spec into ``chaos_out`` with a coordinator and two
localhost workers talking through a :class:`~repro.fleet.ChaosProxy`
that drops, duplicates, reorders, cuts, corrupts and partitions frames,
and writes what it injected to ``chaos_out/injected.json``. The job
then ``cmp``s ``chaos_out`` against ``pool_out``. From the checkout
root::

    python benchmarks/smoke/fleet_chaos.py
"""

import asyncio
import json

from repro.campaign.plan import CampaignSpec
from repro.fleet import ChaosConfig, ChaosProxy
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.service import reap_workers, spawn_worker

SPEC = CampaignSpec(
    name="campaign", benchmarks=["astar"],
    schemes=["EP", "ABS"], vdds=[0.97], n_instructions=800,
    warmup=400, min_seeds=2, max_seeds=4, batch_size=2,
)


async def go():
    coordinator = FleetCoordinator(
        "chaos_out", spec=SPEC, heartbeat_timeout=3.0,
        linger=0.3, cache=False, snapshots=False,
        wait_delay=0.1,
    )
    serve = asyncio.create_task(coordinator.serve())
    await coordinator.ready.wait()
    proxy = ChaosProxy(
        coordinator.host, coordinator.port,
        ChaosConfig(
            seed=11, latency=0.05, latency_p=0.3, dup_p=0.2,
            reorder_p=0.2, cut_p=0.12, corrupt_p=0.08,
            partition_p=0.05, partition_s=0.2, max_events=4,
        ),
    )
    await proxy.start()
    procs = [
        spawn_worker(
            proxy.host, proxy.port, f"worker{i}",
            cache=False,
            reconnect_attempts=40, reconnect_delay=0.05,
            reconnect_max_delay=0.3,
        )
        for i in range(2)
    ]
    try:
        report = await serve
    finally:
        await asyncio.to_thread(reap_workers, procs)
        await proxy.stop()
    return report, dict(proxy.injected)


def main():
    report, injected = asyncio.run(go())
    assert report["complete"], report
    print("chaos injected:", json.dumps(injected, sort_keys=True))
    with open("chaos_out/injected.json", "w") as fh:
        json.dump(injected, fh, sort_keys=True)


if __name__ == "__main__":
    main()
