"""DashboardServer: HTTP endpoints, SSE fan-out, artifact safety."""

import asyncio
import json
import os

import pytest

from repro.campaign.journal import Journal, write_manifest
from repro.campaign.plan import CampaignSpec
from repro.dashboard.server import ENDPOINT_NAME, DashboardServer


def _spec():
    return CampaignSpec(
        name="srv", benchmarks=["astar"], schemes=["EP", "ABS"],
        vdds=[0.97], seeds=[1, 2], n_instructions=500, warmup=250,
    )


def _run(point, index):
    return {
        "event": "run", "point": point, "index": index, "seed": index,
        "metrics": {"perf_overhead": 0.1, "ed_overhead": 0.2, "ipc": 1.0,
                    "fault_rate": 0.01, "replay_rate": 0.0},
        "counts": {"faults": 5, "replays": 0, "committed": 500},
    }


def _populate(directory, spec):
    write_manifest(directory, spec)
    point = spec.points()[0].id
    with Journal(directory) as journal:
        journal.append(_run(point, 0))
        journal.append(_run(point, 1))
    return point


async def _get(server, path):
    reader, writer = await asyncio.open_connection(
        server.host, server.port
    )
    writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    data = await reader.read()
    writer.close()
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


async def _get_json(server, path):
    status, body = await _get(server, path)
    return status, json.loads(body)


class _SseClient:
    """A minimal Server-Sent-Events reader over a raw socket."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, server):
        reader, writer = await asyncio.open_connection(
            server.host, server.port
        )
        writer.write(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
        await writer.drain()
        await reader.readuntil(b"\r\n\r\n")  # response headers
        return cls(reader, writer)

    async def next_event(self):
        """(event, payload) of the next non-comment SSE block."""
        while True:
            event, data = None, []
            while True:
                line = (await self.reader.readline()).decode().rstrip("\n")
                if not line.strip("\r"):
                    break
                if line.startswith("event: "):
                    event = line[len("event: "):]
                elif line.startswith("data: "):
                    data.append(line[len("data: "):])
            if event is not None:
                return event, json.loads("\n".join(data))

    def close(self):
        self.writer.close()


def _serve(directory, coro, poll_interval=0.05):
    """Run ``coro(server)`` against a started DashboardServer."""
    async def go():
        server = await DashboardServer(
            directory, poll_interval=poll_interval
        ).start()
        try:
            return await coro(server)
        finally:
            await server.stop()

    return asyncio.run(go())


class TestEndpoints:
    def test_api_surface_returns_valid_json(self, tmp_path):
        spec = _spec()
        point = _populate(tmp_path, spec)

        async def go(server):
            results = {}
            for path in ("/api/status", "/api/points", "/api/fleet",
                         "/api/figures", "/healthz",
                         f"/api/point/{point}", f"/api/telemetry/{point}",
                         f"/api/fork/{point}"):
                results[path] = await _get_json(server, path)
            return results

        results = _serve(tmp_path, go)
        for path, (status, payload) in results.items():
            assert status == 200, path
            assert isinstance(payload, dict), path
        assert results["/api/status"][1]["runs_total"] == 2
        assert results["/api/points"][1]["points"][0]["metrics"]
        assert results[f"/api/point/{point}"][1]["n"] == 2
        assert results[f"/api/fork/{point}"][1]["campaign_spec"]
        assert results["/healthz"][1]["ok"] is True

    def test_index_serves_html_and_unknowns_404(self, tmp_path):
        _populate(tmp_path, _spec())

        async def go(server):
            return (await _get(server, "/"),
                    await _get(server, "/api/nope"),
                    await _get(server, "/api/point/not/a/point"))

        (s_index, body), (s_nope, _), (s_point, _) = _serve(tmp_path, go)
        assert s_index == 200 and b"<!DOCTYPE html>" in body
        assert s_nope == 404
        assert s_point == 404

    def test_endpoint_file_advertises_bound_port(self, tmp_path):
        _populate(tmp_path, _spec())

        async def go(server):
            endpoint = json.load(open(tmp_path / ENDPOINT_NAME))
            assert endpoint["port"] == server.port
            return True

        assert _serve(tmp_path, go)
        # removed again on stop
        assert not os.path.exists(tmp_path / ENDPOINT_NAME)

    def test_status_matches_offline_tool_bytewise(self, tmp_path):
        from repro.campaign.status import build_status

        _populate(tmp_path, _spec())

        async def go(server):
            return await _get_json(server, "/api/status")

        _, served = _serve(tmp_path, go)
        offline = json.loads(json.dumps(build_status(tmp_path)))
        assert served == offline


class TestArtifacts:
    def test_bundle_download_and_traversal_rejection(self, tmp_path):
        _populate(tmp_path, _spec())
        os.makedirs(tmp_path / "bundles")
        (tmp_path / "bundles" / "fail.json").write_text('{"x": 1}')

        async def go(server):
            ok = await _get(server, "/artifact/bundles/fail.json")
            esc = await _get(server, "/artifact/bundles/../manifest.json")
            dot = await _get(server, "/artifact/bundles/.hidden")
            kind = await _get(server, "/artifact/secrets/fail.json")
            return ok, esc, dot, kind

        ok, esc, dot, kind = _serve(tmp_path, go)
        assert ok[0] == 200 and ok[1] == b'{"x": 1}'
        assert esc[0] == 404
        assert dot[0] == 404
        assert kind[0] == 404

    def test_snapshots_are_not_an_artifact_kind(self, tmp_path):
        """Snapshots live in the snapshot store, so no route serves them."""
        _populate(tmp_path, _spec())
        os.makedirs(tmp_path / "snapshots")
        (tmp_path / "snapshots" / "abc.snap").write_bytes(b"blob")

        async def go(server):
            return await _get(server, "/artifact/snapshots/abc.snap")

        assert _serve(tmp_path, go)[0] == 404


class TestLiveUpdates:
    def test_append_reaches_sse_and_api_within_2s(self, tmp_path):
        """The acceptance bound: append -> /api/points + SSE < 2 s."""
        spec = _spec()
        point = _populate(tmp_path, spec)

        async def go(server):
            client = await _SseClient.connect(server)
            event, snapshot = await asyncio.wait_for(
                client.next_event(), timeout=2.0
            )
            assert event == "snapshot"
            assert snapshot["runs_total"] == 2
            with Journal(tmp_path) as journal:
                journal.append(_run(spec.points()[1].id, 0))
            event, update = await asyncio.wait_for(
                client.next_event(), timeout=2.0
            )
            assert event == "update"
            assert update["runs_total"] == 3
            _, points = await _get_json(server, "/api/points")
            assert points["runs_total"] == 3
            client.close()
            return True

        assert _serve(tmp_path, go)

    def test_eight_concurrent_sse_clients_all_receive_update(
        self, tmp_path
    ):
        spec = _spec()
        _populate(tmp_path, spec)

        async def go(server):
            clients = [
                await _SseClient.connect(server) for _ in range(8)
            ]
            for client in clients:
                event, _ = await asyncio.wait_for(
                    client.next_event(), timeout=2.0
                )
                assert event == "snapshot"
            assert server.n_clients == 8
            with Journal(tmp_path) as journal:
                journal.append(_run(spec.points()[1].id, 0))
            updates = await asyncio.wait_for(
                asyncio.gather(*(c.next_event() for c in clients)),
                timeout=2.0,
            )
            for event, payload in updates:
                assert event == "update"
                assert payload["runs_total"] == 3
            for client in clients:
                client.close()
            return True

        assert _serve(tmp_path, go)

    def test_figures_cache_rebuilds_only_on_change(self, tmp_path):
        _populate(tmp_path, _spec())

        async def go(server):
            await _get_json(server, "/api/figures")
            await _get_json(server, "/api/figures")
            await _get_json(server, "/api/figures")
            return server.figures.rebuilds

        assert _serve(tmp_path, go) == 1


class TestRobustness:
    def test_malformed_request_line_is_rejected(self, tmp_path):
        _populate(tmp_path, _spec())

        async def go(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(b"garbage\r\n\r\n")
            await writer.drain()
            data = await reader.read()
            writer.close()
            return data

        data = _serve(tmp_path, go)
        assert b"400" in data.split(b"\r\n", 1)[0]

    def test_post_rejected(self, tmp_path):
        _populate(tmp_path, _spec())

        async def go(server):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(b"POST /api/points HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            data = await reader.read()
            writer.close()
            return data

        data = _serve(tmp_path, go)
        assert b"405" in data.split(b"\r\n", 1)[0]

    def test_serve_requires_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            asyncio.run(DashboardServer(tmp_path / "missing").start())
