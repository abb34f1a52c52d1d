"""Stdlib-asyncio HTTP server: the campaign dashboard service.

``repro-timing dashboard serve --dir <campaign>`` turns a campaign
directory — live, killed, or finished — into a multi-viewer web service.
No third-party dependency: HTTP/1.1 parsing, routing, and
Server-Sent-Events are a few hundred lines over ``asyncio.start_server``,
the same substrate as the fleet protocol.

Endpoints (JSON unless noted; full contract in docs/observability.md):

========================  =============================================
``/``                     static HTML/JS page (no build step)
``/api/status``           ``campaign status`` dict (shared aggregation)
``/api/points``           status + per-point headline metric summaries
``/api/point/<id>``       drill-down: draws, convergence, artifacts, fork
``/api/telemetry/<id>``   per-draw interval-metric summaries
``/api/fleet``            worker/lease health, steals, scales, audit
``/api/figures``          cached deterministic figure catalog
``/api/fork/<id>``        ready-to-run single-point campaign-plan spec
``/events``               SSE stream: ``snapshot`` then ``update`` events
``/artifact/<kind>/<f>``  download bundles/traces (safe names)
``/healthz``              liveness: viewers, version, torn-line count
========================  =============================================

Point ids contain slashes (``astar/ABS/0.97``), so the point routes
consume the rest of the path. One background task polls the
:class:`~repro.dashboard.watcher.JournalWatcher` (default every 0.5 s —
well inside the 2 s freshness bound the smoke test enforces) and fans
each change out to every connected SSE client; figure JSON is memoized
on the view's version counter so viewer count never multiplies
aggregation work.
"""

import asyncio
import json
import os
from urllib.parse import unquote

from repro.dashboard.figures import FigureCache
from repro.dashboard.page import render_page
from repro.dashboard.view import CampaignView

#: where a serving dashboard advertises its bound endpoint (mirrors the
#: fleet coordinator's coordinator.json)
ENDPOINT_NAME = "dashboard.json"

#: artifact kinds the download route may touch, mapped to the campaign
#: subdirectory they live in — nothing outside these is reachable.
#: Warmup snapshots are not among them: they live in the snapshot store
#: (``<store>/<model version>/<key>.snap``), not the campaign directory,
#: so a drill-down lists their journaled keys only.
ARTIFACT_DIRS = {
    "bundles": "bundles",
    "traces": "traces",
}

_MAX_REQUEST = 16384  # request line + headers; we serve GETs only
_KEEPALIVE_S = 15.0  # SSE comment cadence while idle


def _safe_name(name):
    """True for a plain filename (no separators, no dot-escapes)."""
    return (
        0 < len(name) <= 255
        and "/" not in name
        and "\\" not in name
        and not name.startswith(".")
    )


class DashboardServer:
    """One campaign directory served as a live dashboard."""

    def __init__(self, directory, host="127.0.0.1", port=0,
                 poll_interval=0.5, view=None):
        self.directory = str(directory)
        self.view = view or CampaignView(self.directory)
        self.figures = FigureCache(self.view)
        self.host = host
        self.port = int(port)
        self.poll_interval = float(poll_interval)
        self._server = None
        self._refresher = None
        self._clients = set()  # asyncio.Queue per connected SSE viewer
        self.events_sent = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self):
        """Bind, fold the journal's current state, start the poll task."""
        self.view.refresh()
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._write_endpoint()
        self._refresher = asyncio.ensure_future(self._refresh_loop())
        return self

    async def serve_forever(self):
        await self._server.serve_forever()

    async def stop(self):
        if self._refresher is not None:
            self._refresher.cancel()
            try:
                await self._refresher
            except asyncio.CancelledError:
                pass
            self._refresher = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for queue in list(self._clients):
            queue.put_nowait(None)  # unblock and end every SSE stream
        try:
            os.unlink(os.path.join(self.directory, ENDPOINT_NAME))
        except OSError:
            pass

    def _write_endpoint(self):
        path = os.path.join(self.directory, ENDPOINT_NAME)
        tmp = path + ".tmp.%d" % os.getpid()
        with open(tmp, "w") as fh:
            json.dump(
                {"host": self.host, "port": self.port, "pid": os.getpid()},
                fh, sort_keys=True,
            )
            fh.write("\n")
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # live updates
    # ------------------------------------------------------------------
    async def _refresh_loop(self):
        while True:
            if self.view.refresh():
                self._broadcast("update", self._update_payload())
            await asyncio.sleep(self.poll_interval)

    def _update_payload(self):
        status = self.view.status()
        return {
            "version": self.view.version,
            "complete": status["complete"],
            "points_done": status["points_done"],
            "runs_total": status["runs_total"],
            "points": status["points"],
        }

    def _broadcast(self, event, payload):
        data = json.dumps(payload, sort_keys=True)
        for queue in list(self._clients):
            queue.put_nowait((event, data))

    @property
    def n_clients(self):
        return len(self._clients)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle(self, reader, writer):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                ConnectionError):
            writer.close()
            return
        if len(head) > _MAX_REQUEST:
            await self._error(writer, 431, "headers too large")
            return
        try:
            request_line = head.split(b"\r\n", 1)[0].decode("latin-1")
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            await self._error(writer, 400, "malformed request line")
            return
        if method not in ("GET", "HEAD"):
            await self._error(writer, 405, "GET only")
            return
        path = unquote(target.partition("?")[0])
        try:
            await self._route(writer, path, head=method == "HEAD")
        except (ConnectionError, asyncio.CancelledError):
            writer.close()
            raise

    async def _route(self, writer, path, head=False):
        if path in ("/", "/index.html"):
            await self._respond(
                writer, 200, render_page(self.view.spec.name).encode(),
                "text/html; charset=utf-8", head=head,
            )
            return
        if path == "/events":
            await self._serve_events(writer, head=head)
            return
        if path == "/healthz":
            await self._json(writer, {
                "ok": True,
                "campaign": self.view.spec.name,
                "version": self.view.version,
                "viewers": self.n_clients,
                "events_sent": self.events_sent,
                "bad_lines": self.view.watcher.n_bad,
                "figure_rebuilds": self.figures.rebuilds,
            }, head=head)
            return
        if path == "/api/status":
            await self._json(writer, self.view.status(), head=head)
            return
        if path == "/api/points":
            await self._json(writer, self.view.points(), head=head)
            return
        if path == "/api/fleet":
            await self._json(writer, self.view.fleet_status(), head=head)
            return
        if path == "/api/figures":
            await self._json(writer, self.figures.get(), head=head)
            return
        for prefix, fn in (
            ("/api/point/", self.view.point_detail),
            ("/api/telemetry/", self.view.telemetry),
            ("/api/fork/", self.view.fork_spec),
        ):
            if path.startswith(prefix):
                point_id = path[len(prefix):]
                if fn is self.view.telemetry and \
                        point_id not in {p.id for p in self.view.spec.points()}:
                    payload = None
                else:
                    payload = fn(point_id)
                if payload is None:
                    await self._error(
                        writer, 404, f"unknown point {point_id!r}"
                    )
                else:
                    await self._json(writer, payload, head=head)
                return
        if path.startswith("/artifact/"):
            await self._serve_artifact(writer, path[len("/artifact/"):],
                                       head=head)
            return
        await self._error(writer, 404, f"no route for {path!r}")

    async def _serve_artifact(self, writer, rest, head=False):
        kind, _, name = rest.partition("/")
        subdir = ARTIFACT_DIRS.get(kind)
        if subdir is None or not _safe_name(name):
            await self._error(writer, 404, "unknown artifact")
            return
        path = os.path.join(self.directory, subdir, name)
        try:
            with open(path, "rb") as fh:
                body = fh.read()
        except OSError:
            await self._error(writer, 404, f"no such {kind} artifact")
            return
        ctype = (
            "application/json" if name.endswith(".json")
            else "application/octet-stream"
        )
        await self._respond(writer, 200, body, ctype, head=head, extra=[
            f'Content-Disposition: attachment; filename="{name}"',
        ])

    # ------------------------------------------------------------------
    async def _serve_events(self, writer, head=False):
        """One SSE viewer: snapshot, then pushed updates + keepalives."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        if head:
            writer.close()
            return
        queue = asyncio.Queue()
        self._clients.add(queue)
        try:
            await self._send_event(
                writer, "snapshot",
                json.dumps(self._update_payload(), sort_keys=True),
            )
            while True:
                try:
                    item = await asyncio.wait_for(
                        queue.get(), timeout=_KEEPALIVE_S
                    )
                except asyncio.TimeoutError:
                    writer.write(b": keepalive\r\n\r\n")
                    await writer.drain()
                    continue
                if item is None:  # server stopping
                    break
                event, data = item
                await self._send_event(writer, event, data)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._clients.discard(queue)
            writer.close()

    async def _send_event(self, writer, event, data):
        lines = "".join(f"data: {line}\n" for line in data.split("\n"))
        writer.write(f"event: {event}\n{lines}\n".encode())
        await writer.drain()
        self.events_sent += 1

    # ------------------------------------------------------------------
    async def _json(self, writer, payload, status=200, head=False):
        body = json.dumps(payload, indent=2, sort_keys=True).encode()
        await self._respond(writer, status, body + b"\n",
                            "application/json", head=head)

    async def _error(self, writer, status, message):
        await self._json(writer, {"error": message}, status=status)

    async def _respond(self, writer, status, body, ctype, head=False,
                       extra=()):
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed",
                  431: "Request Header Fields Too Large"}.get(status, "?")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(body)}",
            "Cache-Control: no-store",
            "Connection: close",
            *extra,
        ]
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode())
        if not head:
            writer.write(body)
        try:
            await writer.drain()
        except ConnectionError:
            pass
        writer.close()


def serve_dashboard(directory, host="127.0.0.1", port=0,
                    poll_interval=0.5):
    """Blocking entry point of ``repro-timing dashboard serve``.

    Serves until interrupted; returns 0 on a clean Ctrl-C.
    """
    async def _main():
        server = await DashboardServer(
            directory, host=host, port=port, poll_interval=poll_interval
        ).start()
        print(
            f"dashboard for {directory} on "
            f"http://{server.host}:{server.port} "
            f"(endpoint in {os.path.join(directory, ENDPOINT_NAME)})"
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0
