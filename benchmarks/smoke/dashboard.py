"""dashboard-smoke: serve a finished campaign, probe it, prove the live path.

Serves ``dash_out``, which the job's earlier ``campaign run --dir
dash_out`` step records. Every endpoint must answer schema-valid JSON,
each point's served replay line must plan exactly the served spec (in
``fork_0``, ``fork_1``), the served status must equal the offline
``build_status``, and eight SSE clients must all see a journal append
within 2 s. From the checkout root::

    python benchmarks/smoke/dashboard.py
"""

import asyncio
import json
import shlex

from repro.campaign.journal import Journal, read_manifest
from repro.campaign.plan import CampaignSpec
from repro.campaign.status import build_status
from repro.dashboard.server import DashboardServer
from repro.harness import cli

DIR = "dash_out"


async def http_get(host, port, path):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: ci\r\n\r\n".encode())
    await writer.drain()
    data = await asyncio.wait_for(reader.read(), timeout=5)
    writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


async def sse_client(host, port):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b"GET /events HTTP/1.1\r\nHost: ci\r\n\r\n")
    await writer.drain()
    await reader.readuntil(b"\r\n\r\n")
    return reader, writer


async def next_event(reader):
    while True:
        event, data = None, []
        while True:
            line = (await reader.readline()).decode()
            if not line.strip():
                break
            if line.startswith("event: "):
                event = line[len("event: "):].strip()
            elif line.startswith("data: "):
                data.append(line[len("data: "):].rstrip("\n"))
        if event is not None:
            return event, json.loads("\n".join(data))


async def main():
    server = await DashboardServer(DIR, poll_interval=0.2).start()
    spec = CampaignSpec.from_dict(read_manifest(DIR)["spec"])
    points = [p.id for p in spec.points()]

    async def get(path):
        code, body = await http_get(
            server.host, server.port, path)
        assert code == 200, (path, code)
        return json.loads(body)

    # --- every endpoint answers schema-valid JSON ---
    status = await get("/api/status")
    assert status["complete"] and status["points_done"] == 2
    assert len((await get("/api/points"))["points"]) == 2
    for pid in points:
        detail = await get("/api/point/" + pid)
        assert detail["point"] == pid and detail["n"] >= 2
        telem = await get("/api/telemetry/" + pid)
        assert telem["point"] == pid
        fork = await get("/api/fork/" + pid)
        CampaignSpec.from_dict(fork["campaign_spec"]).validate()
        # the served replay line, through the real parser,
        # plans exactly the served spec in a fresh directory
        argv = shlex.split(fork["cli"])
        assert argv[:2] == ["repro-timing", "campaign"], argv
        replay = f"fork_{points.index(pid)}"
        argv = [replay if a == "<new-dir>" else a
                for a in argv[1:]]
        assert cli.main(argv) == 0, argv
        assert (read_manifest(replay)["spec"]
                == fork["campaign_spec"]), pid
    figures = await get("/api/figures")
    assert figures["overhead"]["bars"] and figures["convergence"]
    assert (await get("/healthz"))["ok"] is True
    # served status is byte-identical to the offline tool
    assert await get("/api/status") == json.loads(
        json.dumps(build_status(DIR)))

    # --- live path: 8 SSE clients all see an append < 2 s ---
    clients = [
        await sse_client(server.host, server.port)
        for _ in range(8)
    ]
    for reader, _ in clients:
        event, _payload = await asyncio.wait_for(
            next_event(reader), timeout=2.0)
        assert event == "snapshot"
    runs_before = status["runs_total"]
    with Journal(DIR) as journal:
        journal.append({
            "event": "run", "point": points[0],
            "index": 99, "seed": 99,
            "metrics": {"perf_overhead": 0.1,
                        "ed_overhead": 0.2, "ipc": 1.0,
                        "fault_rate": 0.0, "replay_rate": 0.0},
            "counts": {"faults": 0, "replays": 0,
                       "committed": 800},
        })
    updates = await asyncio.wait_for(
        asyncio.gather(*(next_event(r) for r, _ in clients)),
        timeout=2.0,
    )
    for event, payload in updates:
        assert event == "update"
        assert payload["runs_total"] == runs_before + 1
    polled = await get("/api/points")
    assert polled["runs_total"] == runs_before + 1
    for _, writer in clients:
        writer.close()
    await server.stop()
    print("dashboard smoke OK: 8 SSE clients, live within 2 s")


if __name__ == "__main__":
    asyncio.run(main())
