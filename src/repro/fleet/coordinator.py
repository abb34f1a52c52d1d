"""Fleet coordinator: lease campaign draws to workers, own the stopping.

The coordinator is the only process that decides anything statistical.
It opens its directory with :func:`~repro.campaign.executor.
open_campaign`, the opener the single-pool executor uses, which yields
one :class:`~repro.campaign.scheduler.PointScheduler` per open point,
and leases each scheduler's pending draw indices to whichever worker
asks. Workers only execute: they stream back one journal ``run`` event
per completed draw, and the coordinator appends it to that worker's
shard journal, feeds the scheduler, and fires the stopping rule at
exactly the batch boundaries a single-pool run would. The coordinator
decides for its workers whether draws fork warmup snapshots: the
``config`` frame's ``snapshot_dir``. A completed fleet campaign ends
with :func:`~repro.campaign.executor.finish_campaign`, as a single pool
does, so its journal and report are byte-identical to ``campaign run``
of the same spec.

Robustness invariants:

* **Exactly-once accounting** — a draw index enters a point's
  accumulator at most once (scheduler gate); re-executed draws after a
  lease reassignment are deterministic duplicates and are dropped.
* **Worker death** — a closed connection or an expired heartbeat
  revokes the worker's leases; the unrecorded indices are re-leased.
  Entries already journaled from the dead worker are kept.
* **Coordinator death** — every accepted entry was already fsynced to a
  shard journal; a restarted coordinator reopens the directory exactly
  as single-pool ``campaign resume`` does (+ the lease ledger for lease
  numbering) and continues. Either driver adopts the other's journals,
  so a fleet can finish a single-pool campaign and the reverse.
* **Work-stealing** — when no unleased work remains, an idle worker is
  granted the unfinished tail of the largest outstanding lease (the
  straggler's). The victim keeps executing its shortened lease; any
  overlap is a bit-identical duplicate dropped by the exactly-once
  gate, so a slow worker can delay at most the draw it is currently
  running, never the campaign.
* **Untrusted networks** — with a shared secret configured, every
  connection must pass an HMAC-SHA256 challenge/response before it
  sees the spec or a lease (:mod:`repro.fleet.security`); TLS wraps
  the stream when a certificate is configured. Rejected peers get a
  structured ``error`` frame and bump an audit counter; a hostile or
  corrupt frame drops only its own connection, never the serve loop.
"""

import asyncio
import json
import os
import sys
import time

from repro.campaign.executor import (
    CampaignError,
    finish_campaign,
    open_campaign,
)
from repro.campaign.journal import (
    COORDINATOR_SHARD,
    Journal,
    read_manifest,
    shard_dir,
)
from repro.campaign.status import build_status
from repro.fleet.ledger import LeaseLedger
from repro.fleet.protocol import ProtocolError, read_message, send_message
from repro.fleet.security import (
    coordinator_proof,
    macs_equal,
    new_nonce,
    server_ssl_context,
    worker_proof,
)

ENDPOINT_NAME = "coordinator.json"
#: a lease tail must have at least this many unfinished indices before
#: it can be split: a single in-flight draw is already being executed
MIN_STEAL = 2

#: shard names come off the wire; anything fancier than this is either a
#: bug or an attempted path escape, and is rejected at hello time
_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def valid_worker_name(name):
    return (
        isinstance(name, str)
        and 0 < len(name) <= 64
        and not name.startswith(".")
        and not name.startswith("_")
        and set(name) <= _NAME_OK
    )


def read_endpoint(directory):
    """The ``{host, port, pid}`` a serving coordinator advertised."""
    with open(os.path.join(str(directory), ENDPOINT_NAME)) as fh:
        return json.load(fh)


class FleetError(RuntimeError):
    """The fleet service could not start or proceed."""


class FleetCoordinator:
    """One campaign's coordinator service (asyncio TCP)."""

    def __init__(self, directory, spec=None, host="127.0.0.1", port=0,
                 heartbeat_timeout=15.0, wait_delay=0.5, linger=1.0,
                 resume=False, cache=True, cache_dir=None, snapshots=True,
                 snapshot_dir=None, secret=None, tls_cert=None,
                 tls_key=None, tls_ca=None, steal=True):
        self.directory = str(directory)
        self.host = host
        self.port = port  # 0 = ephemeral; rebound to the real port on serve
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.wait_delay = float(wait_delay)
        self.linger = float(linger)
        self.resume = resume
        self.cache = bool(cache)
        self.cache_dir = cache_dir
        self.snapshots = bool(snapshots)
        self.snapshot_dir = snapshot_dir
        self.secret = (
            secret.encode() if isinstance(secret, str) else secret
        )
        self.tls_cert = tls_cert
        self.tls_key = tls_key
        self.tls_ca = tls_ca
        self.steal = bool(steal)
        #: rejection/fault counters, surfaced by :meth:`status` and
        #: persisted to the lease ledger on every bump (so ``fleet
        #: status`` on a dead fleet still reports them) — the audit
        #: trail of hostile or broken peers
        self.audit = {
            "auth_failures": 0,
            "rejected_hellos": 0,
            "rejected_versions": 0,
            "protocol_errors": 0,
            "steals": 0,
        }
        self._given_spec = spec
        #: set once the server socket is bound and the endpoint file is
        #: written — `fleet run` awaits it before spawning workers
        self.ready = asyncio.Event()
        self._done = asyncio.Event()
        self._finished = False
        self._report = None
        self._schedulers = {}  # point id -> PointScheduler (open points)
        self._points = {}  # point id -> GridPoint
        self._completed = {}  # point id -> replayed/created point event
        self._leases = {}  # lease id -> {point, indices(set), worker}
        self._point_leases = {}  # point id -> set of active lease ids
        self._next_lease = 1
        self._worker_last = {}  # worker -> monotonic last-seen
        self._worker_conn = {}  # worker -> owning connection id
        self._worker_point = {}  # worker -> last leased point (locality)
        self._writers = {}  # worker -> writer (proactive shutdown)
        self._shards = {}  # worker -> shard Journal
        self._conn_seq = 0
        self._draining = set()  # workers told to finish up and exit
        self._waiting = {}  # worker -> monotonic since last wait reply

    # ------------------------------------------------------------------
    # state (re)construction
    # ------------------------------------------------------------------
    def _prepare(self):
        try:
            self.spec, state, schedulers = open_campaign(
                self.directory, self._given_spec, self.resume, self.cache,
                self.cache_dir, self.snapshots, self.snapshot_dir,
            )
        except CampaignError as exc:
            raise FleetError(str(exc)) from None
        self.model_version = read_manifest(self.directory)["model_version"]
        self._ledger = LeaseLedger(self.directory)
        self._next_lease = self._ledger.replay()["max_lease"] + 1

        self._completed = dict(state.completed)
        self._points = {point.id: point for point in self.spec.points()}
        self._schedulers = {s.point.id: s for s in schedulers}
        self._coord_journal = self._shard_journal(COORDINATOR_SHARD)
        self._finished = state.done

    def _shard_journal(self, name):
        journal = self._shards.get(name)
        if journal is None:
            journal = Journal(shard_dir(self.directory), f"{name}.jsonl")
            self._shards[name] = journal
        return journal

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    async def serve(self):
        """Run the campaign to completion; returns the report dict.

        Binds, writes ``coordinator.json`` (host/port/pid — how workers
        started with ``--dir`` find the socket), serves until every grid
        point's stopping rule fired, then merges the shard journals and
        writes the canonical report. Lingers briefly so connected
        workers hear ``shutdown`` instead of a reset connection.
        """
        try:
            self._prepare()
        except BaseException:
            # a startup failure must still release fleet_run's barrier —
            # it awaits `ready` before checking whether serve() died
            self.ready.set()
            raise
        if self._finished:
            # resuming an already-complete campaign: just (re)merge
            self._report = finish_campaign(self.directory)
            self.ready.set()
            return self._report
        try:
            ssl_context = server_ssl_context(
                self.tls_cert, self.tls_key, self.tls_ca
            )
        except ValueError as exc:
            self.ready.set()
            raise FleetError(str(exc)) from None
        server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port, ssl=ssl_context
        )
        self.port = server.sockets[0].getsockname()[1]
        self._write_endpoint()
        reaper = asyncio.create_task(self._reap_expired())
        self.ready.set()
        try:
            # every point may already be journaled complete (resume of a
            # campaign killed between last entry and its point event)
            self._sweep_finished()
            await self._done.wait()
            self._report = finish_campaign(self.directory)
            await asyncio.sleep(self.linger)
        finally:
            reaper.cancel()
            server.close()
            await server.wait_closed()
            for journal in self._shards.values():
                journal.close()
            self._ledger.close()
        return self._report

    def _write_endpoint(self):
        path = os.path.join(self.directory, ENDPOINT_NAME)
        os.makedirs(self.directory, exist_ok=True)
        tmp = path + ".tmp.%d" % os.getpid()
        with open(tmp, "w") as fh:
            json.dump(
                {"host": self.host, "port": self.port, "pid": os.getpid()},
                fh, sort_keys=True,
            )
            fh.write("\n")
        os.replace(tmp, path)

    async def _reap_expired(self):
        interval = max(0.05, self.heartbeat_timeout / 4.0)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for name, last in list(self._worker_last.items()):
                if now - last > self.heartbeat_timeout:
                    self._drop_worker(name, "heartbeat timeout")

    def _drop_worker(self, name, reason):
        self._revoke_leases(name, reason)
        self._worker_last.pop(name, None)
        self._worker_conn.pop(name, None)
        self._writers.pop(name, None)
        self._waiting.pop(name, None)

    def _revoke_leases(self, name, reason):
        """Return ``name``'s leased indices to their schedulers' pools."""
        for lease_id, lease in list(self._leases.items()):
            if lease["worker"] == name:
                self._ledger.revoked(lease_id, reason)
                del self._leases[lease_id]
                self._unlink_point_lease(lease["point"], lease_id)

    def _unlink_point_lease(self, point_id, lease_id):
        leases = self._point_leases.get(point_id)
        if leases is not None:
            leases.discard(lease_id)
            if not leases:
                del self._point_leases[point_id]

    # ------------------------------------------------------------------
    # per-connection protocol
    # ------------------------------------------------------------------
    @staticmethod
    def _peer_label(writer):
        peername = writer.get_extra_info("peername")
        if isinstance(peername, (tuple, list)) and len(peername) >= 2:
            return f"{peername[0]}:{peername[1]}"
        return str(peername) if peername else "unknown"

    def _bump_audit(self, key):
        """Count one audit event and persist the tallies to the ledger.

        Best-effort persistence: audit must never take the serve loop
        down, and the in-memory counters (served by :meth:`status`)
        stay correct even if the append fails.
        """
        self.audit[key] += 1
        ledger = getattr(self, "_ledger", None)
        if ledger is not None:
            try:
                ledger.audited(self.audit)
            except OSError:
                pass

    async def _reject(self, writer, code, reason):
        """Send a structured rejection (best effort) and audit it."""
        self._bump_audit("rejected_hellos")
        try:
            await send_message(writer, {
                "type": "error", "code": code, "reason": reason,
            })
        except (ConnectionResetError, OSError):
            pass

    async def _handle(self, reader, writer):
        self._conn_seq += 1
        conn_id = self._conn_seq
        peer = self._peer_label(writer)
        name = None
        try:
            while True:
                message = await read_message(reader, peer=peer)
                kind = message.get("type")
                if name is not None:
                    self._worker_last[name] = time.monotonic()
                if kind == "hello":
                    name = await self._handle_hello(
                        message, reader, writer, conn_id, peer
                    )
                    if name is None:
                        return
                elif kind == "status":
                    await send_message(
                        writer, {"type": "status", "status": self.status()}
                    )
                elif kind == "heartbeat":
                    pass
                elif name is None:
                    await self._reject(
                        writer, "protocol", f"{kind!r} before hello"
                    )
                    return
                elif kind == "request":
                    await send_message(writer, self._grant(name))
                elif kind == "entry":
                    self._handle_entry(name, message)
                elif kind == "failure":
                    self._handle_failure(message)
                elif kind == "lease_done":
                    self._release_lease(message.get("lease"), completed=True)
        except ProtocolError as exc:
            # a hostile or broken peer kills its own connection only;
            # the serve loop and every other worker keep going
            self._bump_audit("protocol_errors")
            print(f"[fleet-coordinator] dropping connection: {exc}",
                  file=sys.stderr)
            try:
                await send_message(writer, {
                    "type": "error", "code": "protocol", "reason": str(exc),
                })
            except (ConnectionResetError, OSError):
                pass
        except (ConnectionResetError, OSError, asyncio.TimeoutError):
            pass
        finally:
            if name is not None and self._worker_conn.get(name) == conn_id:
                self._drop_worker(name, "disconnected")
            writer.close()

    async def _authenticate(self, message, reader, writer, name, peer):
        """Run the challenge/response for one hello; True when authed.

        The challenge carries the coordinator's own proof over both
        nonces, so the worker authenticates us before it answers; the
        worker's reply binds its name and model version, so neither can
        be swapped by a peer replaying someone else's handshake.
        """
        client_nonce = str(message.get("nonce") or "")
        server_nonce = new_nonce()
        await send_message(writer, {
            "type": "challenge",
            "nonce": server_nonce,
            "proof": coordinator_proof(
                self.secret, client_nonce, server_nonce
            ),
        })
        try:
            reply = await asyncio.wait_for(
                read_message(reader, peer=peer),
                timeout=max(1.0, self.heartbeat_timeout),
            )
        except asyncio.TimeoutError:
            self._bump_audit("auth_failures")
            return False
        except (ConnectionError, OSError):
            # the peer hung up on the challenge: it holds no secret, or
            # it rejected *our* proof — mutual auth failing either way
            self._bump_audit("auth_failures")
            return False
        expected = worker_proof(
            self.secret, client_nonce, server_nonce,
            str(name), str(message.get("model_version")),
        )
        if reply.get("type") != "auth" or not macs_equal(
            expected, reply.get("mac")
        ):
            self._bump_audit("auth_failures")
            await self._reject(
                writer, "auth-failed",
                "authentication failed: wrong or missing shared secret",
            )
            return False
        return True

    async def _handle_hello(self, message, reader, writer, conn_id, peer):
        name = message.get("worker")
        if not valid_worker_name(name):
            await self._reject(
                writer, "bad-name", f"invalid worker name {name!r}"
            )
            return None
        if self.secret is not None:
            if not await self._authenticate(
                message, reader, writer, name, peer
            ):
                return None
        version = message.get("model_version")
        if version != self.model_version:
            # counted separately from generic hello rejections: version
            # skew is a deployment problem, not a hostile peer
            self._bump_audit("rejected_versions")
            await self._reject(writer, "version-skew", (
                f"model version mismatch: campaign is "
                f"{self.model_version}, worker runs {version} — "
                "deploy matching sources before joining the fleet"
            ))
            return None
        # a worker that reconnects holds no lease state any more; return
        # leases from its previous connection to the pool right away
        self._revoke_leases(name, "reconnected")
        self._worker_last[name] = time.monotonic()
        self._worker_conn[name] = conn_id
        self._writers[name] = writer
        await send_message(writer, {
            "type": "config",
            "spec": self.spec.to_dict(),
            "directory": self.directory,
            "repro_dir": self.spec.repro_dir,
            "snapshot_dir": self.spec.snapshot_dir,
            "cache": self.cache,
            "cache_dir": self.cache_dir,
            "heartbeat": max(0.1, self.heartbeat_timeout / 3.0),
        })
        return name

    # ------------------------------------------------------------------
    # leasing
    # ------------------------------------------------------------------
    def drain_worker(self, name):
        """Mark ``name`` for drain-then-exit retirement.

        The worker finishes the lease it is executing (it only asks for
        more work between leases), then its next ``request`` is answered
        with ``shutdown`` and it exits cleanly — no draw is ever lost to
        a scale-down.
        """
        self._draining.add(name)

    def _leased_indices(self, point_id):
        """Union of every active lease's unfinished indices on a point."""
        leased = set()
        for lease_id in self._point_leases.get(point_id, ()):
            leased |= self._leases[lease_id]["indices"]
        return leased

    def _make_lease(self, point_id, indices, worker):
        lease_id = self._next_lease
        self._next_lease += 1
        self._leases[lease_id] = {
            "point": point_id, "indices": set(indices), "worker": worker,
        }
        self._point_leases.setdefault(point_id, set()).add(lease_id)
        self._worker_point[worker] = point_id
        self._ledger.granted(lease_id, point_id, indices, worker)
        point = self._points[point_id]
        return {
            "type": "lease",
            "lease": lease_id,
            "point": {
                "benchmark": point.benchmark,
                "scheme": point.scheme.name,
                "vdd": point.vdd,
            },
            "indices": list(indices),
        }

    def _steal(self, worker):
        """Split the biggest straggler tail and re-lease it, or None.

        Only reached when no unleased work exists anywhere, i.e. the
        requesting worker is idle while others hold unfinished leases.
        The victim is the lease with the most unfinished indices (at
        least :data:`MIN_STEAL`). The victim worker is not told: it
        keeps executing the stolen indices it already holds, and the
        exactly-once gate drops whichever copy arrives second.
        """
        victim_id, victim = max(
            (
                (lease_id, lease)
                for lease_id, lease in self._leases.items()
                if lease["worker"] != worker
                and len(lease["indices"]) >= MIN_STEAL
            ),
            key=lambda item: (len(item[1]["indices"]), -item[0]),
            default=(None, None),
        )
        if victim_id is None:
            return None
        tail = sorted(victim["indices"])
        tail = tail[(len(tail) + 1) // 2:]
        victim["indices"].difference_update(tail)
        reply = self._make_lease(victim["point"], tail, worker)
        self._bump_audit("steals")
        self._ledger.stolen(
            reply["lease"], victim_id, victim["point"], tail,
            worker, victim["worker"],
        )
        return reply

    def _grant(self, worker):
        """A lease / wait / shutdown reply for a work request."""
        if self._finished or worker in self._draining:
            self._waiting.pop(worker, None)
            return {"type": "shutdown"}
        preferred = self._worker_point.get(worker)
        order = list(self._schedulers)  # open points, in grid order
        if preferred in self._schedulers:
            order = [preferred] + [p for p in order if p != preferred]
        for point_id in order:
            scheduler = self._schedulers.get(point_id)
            if scheduler is None or scheduler.done:
                continue
            if scheduler.next_batch() is None:
                self._finalize_point(point_id)
                if self._finished:
                    return {"type": "shutdown"}
                continue
            free = [
                i for i in scheduler.pending()
                if i not in self._leased_indices(point_id)
            ]
            if not free:
                continue
            self._waiting.pop(worker, None)
            return self._make_lease(point_id, free, worker)
        if self.steal:
            stolen = self._steal(worker)
            if stolen is not None:
                self._waiting.pop(worker, None)
                return stolen
        self._waiting.setdefault(worker, time.monotonic())
        return {"type": "wait", "delay": self.wait_delay}

    def _release_lease(self, lease_id, completed, reason="released"):
        lease = self._leases.pop(lease_id, None)
        if lease is None:
            return
        self._unlink_point_lease(lease["point"], lease_id)
        if completed:
            self._ledger.completed(lease_id)
        else:
            self._ledger.revoked(lease_id, reason)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def _handle_entry(self, worker, message):
        entry = message.get("entry") or {}
        point_id = entry.get("point")
        scheduler = self._schedulers.get(point_id)
        if scheduler is None:
            return  # stale entry for an already-finalized point
        accepted = scheduler.record(
            entry["index"], entry["metrics"], entry["counts"]
        )
        if not accepted:
            return  # duplicate from a revoked/stolen lease: exactly-once
        self._shard_journal(worker).append(entry)
        # the lease holding this index may belong to another worker — a
        # stolen index can be journaled by the victim first; credit the
        # lease that holds it, whoever executed it
        for lease_id in list(self._point_leases.get(point_id, ())):
            lease = self._leases[lease_id]
            if entry["index"] in lease["indices"]:
                lease["indices"].discard(entry["index"])
                if not lease["indices"]:
                    self._release_lease(lease_id, completed=True)
                break
        if scheduler.next_batch() is None and scheduler.done:
            self._finalize_point(point_id)

    def _handle_failure(self, message):
        point_id = message.get("point")
        scheduler = self._schedulers.get(point_id)
        if scheduler is None or scheduler.done:
            return
        scheduler.fail(message.get("failure") or {})
        for lease_id in list(self._point_leases.get(point_id, ())):
            self._release_lease(lease_id, completed=False,
                                reason="point failed")
        self._finalize_point(point_id)

    def _finalize_point(self, point_id):
        scheduler = self._schedulers.get(point_id)
        if scheduler is None or point_id in self._completed:
            return
        event = scheduler.completion_event()
        self._coord_journal.append(event)
        self._completed[point_id] = event
        del self._schedulers[point_id]
        for lease_id in list(self._point_leases.get(point_id, ())):
            self._release_lease(lease_id, completed=False,
                                reason="point finalized")
        if not self._schedulers:
            self._finish()

    def _sweep_finished(self):
        """Finalize points whose stopping rule already fired on replay."""
        for point_id in list(self._schedulers):
            scheduler = self._schedulers[point_id]
            if scheduler.next_batch() is None and scheduler.done:
                self._finalize_point(point_id)
        if not self._schedulers and not self._finished:
            self._finish()

    def _finish(self):
        if self._finished:
            return
        self._finished = True
        self._coord_journal.append({"event": "done"})
        self._done.set()
        # proactively shut connected workers down; they may be deep in a
        # wait backoff and would otherwise find a closed socket
        for name, writer in list(self._writers.items()):
            try:
                from repro.fleet.protocol import encode

                writer.write(encode({"type": "shutdown"}))
            except (ConnectionResetError, OSError):
                pass

    # ------------------------------------------------------------------
    def load(self):
        """Cheap elastic-pool signal: how much work wants more workers.

        Unlike :meth:`status` this touches no disk — the autoscaler
        polls it every few hundred milliseconds. ``queue_depth`` counts
        open points that could absorb another worker right now (an
        unleased batch tail, or a batch not yet opened); ``idle``
        counts workers currently parked in wait backoff, with the
        longest wait in ``max_wait_s`` — the signal that the pool is
        too big.
        """
        queue_depth = 0
        for point_id, scheduler in self._schedulers.items():
            if scheduler.done:
                continue
            if scheduler._batch is None:
                queue_depth += 1  # a batch will open on the next request
                continue
            pending = set(scheduler.pending())
            if pending - self._leased_indices(point_id):
                queue_depth += 1
        now = time.monotonic()
        waits = [now - since for since in self._waiting.values()]
        return {
            "queue_depth": queue_depth,
            "open_points": len(self._schedulers),
            "leases": len(self._leases),
            "workers": len(self._worker_last),
            "idle": len(self._waiting),
            "idle_workers": sorted(self._waiting),
            "max_wait_s": round(max(waits), 3) if waits else 0.0,
            "draining": sorted(self._draining),
            "complete": self._finished,
        }

    def status(self):
        """Live status dict (same shape as ``campaign status`` + fleet)."""
        status = build_status(self.directory)
        status["complete"] = self._finished
        now = time.monotonic()
        status["workers"] = {
            name: {
                "last_seen_s": round(now - last, 3),
                "draining": name in self._draining,
            }
            for name, last in sorted(self._worker_last.items())
        }
        status["leases"] = [
            {
                "lease": lease_id,
                "point": lease["point"],
                "worker": lease["worker"],
                "pending": sorted(lease["indices"]),
            }
            for lease_id, lease in sorted(self._leases.items())
        ]
        status["audit"] = dict(self.audit)
        status["load"] = self.load()
        return status


def serve_fleet(directory, spec=None, **kwargs):
    """Run a coordinator to campaign completion (blocking wrapper)."""
    coordinator = FleetCoordinator(directory, spec=spec, **kwargs)
    return asyncio.run(coordinator.serve())
