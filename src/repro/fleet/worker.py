"""Fleet worker: execute leased draws, stream journal entries back.

A worker is deliberately stateless about the campaign: it connects,
identifies itself (name + model version — the coordinator rejects a
version skew that would silently mix incompatible simulations), receives
the full :class:`~repro.campaign.plan.CampaignSpec` in the ``config``
reply, and then loops *request → lease → execute → stream*. A lease's
draws run through :func:`repro.campaign.executor.run_draws` — the
generator the single-pool executor drives — with a ``run_fn`` from
:func:`~repro.campaign.executor.make_run_fn`, one lane group at a time:
when the coordinator's config names a snapshot store, the first draw
of a leased point warms its pipeline snapshot once and every later draw
forks from it, and the point's fault-free baseline runs once while the
worker holds leases of that point.
Completed draws are streamed back as the journal ``run`` events
``run_draws`` built — the coordinator appends them to this worker's
shard journal — and a :class:`~repro.verify.bundle.RunFailure` draw
turns into a ``failure`` message carrying the failure record (its repro
bundle stays on the worker's filesystem at the path the record names).

A heartbeat task keeps the lease alive during long draws; if the worker
dies instead, the coordinator re-leases its unfinished indices and the
deterministic seed stream makes any overlap a harmless bit-identical
duplicate.

Transport hardening (:mod:`repro.fleet.security`): when a shared
secret is configured the worker answers the coordinator's HMAC
challenge — and *requires* one, so a worker holding a secret refuses to
take work from an unauthenticated (impostor) coordinator. TLS wraps
the connection when ``tls_ca``/``tls_cert`` are given. Transient
connection failures reconnect under exponential backoff with
deterministic jitter; the retry budget refills whenever a session makes
progress, so long campaigns survive arbitrarily many transient drops
while a permanently dead coordinator is given up on promptly.
"""

import asyncio
import hashlib
import itertools
import os
import socket

from repro.campaign.executor import make_run_fn, run_draws
from repro.campaign.plan import CampaignSpec, GridPoint
from repro.campaign.scheduler import failure_record
from repro.fleet.protocol import ProtocolError, read_message, send_message
from repro.fleet.security import (
    client_ssl_context,
    coordinator_proof,
    macs_equal,
    new_nonce,
    worker_proof,
)

DEFAULT_RECONNECT_ATTEMPTS = 5
DEFAULT_RECONNECT_DELAY = 0.5
DEFAULT_RECONNECT_MAX_DELAY = 8.0


class WorkerError(RuntimeError):
    """The coordinator rejected this worker (bad name, version skew...)."""


def default_worker_name():
    host = "".join(
        c if c.isalnum() or c in "._-" else "-" for c in socket.gethostname()
    ) or "worker"
    return f"{host}-{os.getpid()}"


class FleetWorker:
    """One worker process's connection/execution loop."""

    def __init__(self, host, port, name=None, cache=True, cache_dir=None,
                 snapshot_dir=None,
                 reconnect_attempts=DEFAULT_RECONNECT_ATTEMPTS,
                 reconnect_delay=DEFAULT_RECONNECT_DELAY,
                 reconnect_max_delay=DEFAULT_RECONNECT_MAX_DELAY,
                 secret=None, tls_ca=None, tls_cert=None, tls_key=None,
                 throttle=0.0, batch_lanes=None):
        self.host = host
        self.port = int(port)
        self.name = name or default_worker_name()
        self.cache = bool(cache)
        self.cache_dir = cache_dir
        #: relocates the warmup snapshot store; whether draws fork at
        #: all is the coordinator's decision (its config's snapshot_dir)
        self.snapshot_dir = snapshot_dir
        self.reconnect_attempts = int(reconnect_attempts)
        self.reconnect_delay = float(reconnect_delay)
        self.reconnect_max_delay = float(reconnect_max_delay)
        self.secret = (
            secret.encode() if isinstance(secret, str) else secret
        )
        self._ssl = client_ssl_context(tls_ca, tls_cert, tls_key)
        #: artificial per-draw delay in seconds — a straggler dial for
        #: work-stealing tests and load experiments, not production use
        self.throttle = float(throttle)
        from repro.snapshot.batch import resolve_batch_lanes

        #: ≥ 1 runs a lease's draws and baselines as lanes of the
        #: lockstep batch engine, at most that many per kernel call
        #: (default: $REPRO_BATCH_LANES, else 0: scalar execution)
        self.batch_lanes = resolve_batch_lanes(batch_lanes)
        self.spec = None
        self._run_fn = None
        #: {point id: its baseline results}, for the point last leased
        self._baselines = {}
        self.draws_done = 0

    # ------------------------------------------------------------------
    async def run(self):
        """Serve until the coordinator says shutdown. Returns exit code.

        Connection errors reconnect under exponential backoff with a
        bounded retry budget; the budget resets whenever a session makes
        progress (a lease executed), so a long campaign survives any
        number of transient drops but a dead coordinator is given up on
        promptly.
        """
        attempts = 0
        while True:
            draws_before = self.draws_done
            try:
                await self._session()
                return 0
            except WorkerError as exc:
                print(f"[fleet-worker {self.name}] rejected: {exc}",
                      flush=True)
                return 2
            except (ConnectionError, ProtocolError, OSError) as exc:
                if self.draws_done > draws_before:
                    attempts = 0
                attempts += 1
                if attempts > self.reconnect_attempts:
                    print(
                        f"[fleet-worker {self.name}] giving up after "
                        f"{attempts} failed connections: {exc}",
                        flush=True,
                    )
                    return 1
                await asyncio.sleep(self.backoff_delay(attempts))

    def backoff_delay(self, attempt):
        """Reconnect delay before retry ``attempt`` (1-based).

        Exponential from :attr:`reconnect_delay`, capped at
        :attr:`reconnect_max_delay`, scaled by a *deterministic* jitter
        in [0.5, 1.0) derived from the worker name and attempt number —
        a fleet of workers losing one coordinator desynchronizes its
        reconnect stampede without introducing nondeterminism a test
        (or a debugging session) cannot reproduce.
        """
        attempt = max(1, int(attempt))
        delay = min(
            self.reconnect_max_delay,
            self.reconnect_delay * (2 ** (attempt - 1)),
        )
        digest = hashlib.sha256(
            f"{self.name}:{attempt}".encode()
        ).digest()
        jitter = 0.5 + (int.from_bytes(digest[:8], "big") / 2 ** 64) * 0.5
        return delay * jitter

    async def _session(self):
        from repro.harness.parallel import model_version

        reader, writer = await asyncio.open_connection(
            self.host, self.port, ssl=self._ssl
        )
        lock = asyncio.Lock()
        heartbeat_task = None
        try:
            version = model_version()
            client_nonce = new_nonce()
            await send_message(writer, {
                "type": "hello",
                "worker": self.name,
                "model_version": version,
                "nonce": client_nonce,
            }, lock)
            config = await read_message(reader)
            if config.get("type") == "challenge":
                config = await self._answer_challenge(
                    config, client_nonce, version, reader, writer, lock
                )
            elif self.secret is not None:
                # a worker holding a secret refuses an unauthenticated
                # coordinator: it could be an impostor stealing work
                raise WorkerError(
                    "coordinator did not authenticate: it sent no "
                    "challenge, but this worker has a shared secret "
                    "configured"
                )
            if config.get("type") == "error":
                raise self._error_reply(config)
            if config.get("type") != "config":
                raise ProtocolError(
                    f"expected config, got {config.get('type')!r}"
                )
            self._configure(config)
            heartbeat_task = asyncio.create_task(
                self._heartbeat(writer, lock, config.get("heartbeat", 2.0))
            )
            while True:
                await send_message(writer, {"type": "request"}, lock)
                reply = await read_message(reader)
                kind = reply.get("type")
                if kind == "lease":
                    await self._execute_lease(reply, writer, lock)
                elif kind == "wait":
                    await asyncio.sleep(float(reply.get("delay", 0.5)))
                elif kind == "shutdown":
                    return
                elif kind == "error":
                    raise self._error_reply(reply)
        finally:
            if heartbeat_task is not None:
                heartbeat_task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    def _error_reply(reply):
        """The exception an ``error`` frame deserves.

        A ``protocol`` error means the stream between us got corrupted
        in transit and the coordinator dropped *this connection* — that
        is a transient transport fault worth a reconnect, not a verdict
        on this worker's credentials. Every other code (``auth-failed``,
        ``version-skew``, ``bad-name``...) is a real rejection:
        reconnecting would only be rejected again.
        """
        reason = reply.get("reason", "rejected")
        if reply.get("code") == "protocol":
            return ProtocolError(reason)
        return WorkerError(reason)

    async def _answer_challenge(self, challenge, client_nonce, version,
                                reader, writer, lock):
        """Verify the coordinator's proof, answer with ours; the reply.

        Mutual authentication: the challenge's ``proof`` must be the
        HMAC of both nonces under the shared secret, or this is not the
        coordinator the secret was provisioned for — refuse before
        revealing anything further.
        """
        if self.secret is None:
            raise WorkerError(
                "coordinator requires a shared secret; pass --secret, "
                "--secret-file, or set $REPRO_FLEET_SECRET"
            )
        server_nonce = str(challenge.get("nonce") or "")
        expected = coordinator_proof(
            self.secret, client_nonce, server_nonce
        )
        if not macs_equal(expected, challenge.get("proof")):
            raise WorkerError(
                "coordinator failed authentication: its challenge proof "
                "does not match the shared secret (impostor, or "
                "mismatched secrets)"
            )
        await send_message(writer, {
            "type": "auth",
            "mac": worker_proof(
                self.secret, client_nonce, server_nonce,
                self.name, version,
            ),
        }, lock)
        return await read_message(reader)

    async def _heartbeat(self, writer, lock, interval):
        interval = max(0.1, float(interval))
        while True:
            await asyncio.sleep(interval)
            await send_message(writer, {"type": "heartbeat"}, lock)

    # ------------------------------------------------------------------
    def _configure(self, config):
        self.spec = CampaignSpec.from_dict(config["spec"])
        self.spec.repro_dir = config.get("repro_dir")
        if config.get("snapshot_dir"):
            self.spec.snapshot_dir = str(
                self.snapshot_dir or config["snapshot_dir"]
            )
        self._run_fn = make_run_fn(
            jobs=1, cache=self.cache and config.get("cache", True),
            cache_dir=self.cache_dir or config.get("cache_dir"),
            batch_lanes=self.batch_lanes,
        )

    async def _execute_lease(self, lease, writer, lock):
        point = GridPoint(
            lease["point"]["benchmark"],
            lease["point"]["scheme"],
            lease["point"]["vdd"],
        )
        lease_id = lease["lease"]
        indices = list(lease["indices"])
        # lease batching: one run_fn call per lane group, so draws sharing
        # this point's warmup snapshot advance together through the
        # lockstep engine; throttled workers stay per-draw (the dial is a
        # straggler simulation, coarser chunks would distort it)
        step = 1 if self.throttle > 0 else max(1, self.batch_lanes)
        self._baselines = {point.id: self._baselines.get(point.id, {})}
        draws = run_draws(self.spec, point, indices, self._run_fn,
                          self._baselines[point.id], step)
        for _ in range(0, len(indices), step):
            if self.throttle > 0:
                await asyncio.sleep(self.throttle)
            # one thread hop per lane group, not per draw: each executor
            # thread gets its own glibc malloc arena, so spreading the
            # kernel's allocations over several threads costs memory
            # (per-draw hops: 74 -> 97 MiB peak RSS on the e2e
            # fleet_kernel workload, 2-CPU Linux host)
            outcomes = await asyncio.to_thread(
                list, itertools.islice(draws, step)
            )
            for index, event, failure in outcomes:
                if failure is None:
                    self.draws_done += 1
                    await send_message(writer, {
                        "type": "entry", "lease": lease_id, "entry": event,
                    }, lock)
                else:
                    await send_message(writer, {
                        "type": "failure", "lease": lease_id,
                        "point": point.id, "index": index,
                        "failure": failure_record(failure),
                    }, lock)
                    return
        await send_message(
            writer, {"type": "lease_done", "lease": lease_id}, lock
        )


def run_worker(host, port, **kwargs):
    """Blocking entry point: run one worker until shutdown or error."""
    worker = FleetWorker(host, port, **kwargs)
    return asyncio.run(worker.run())
