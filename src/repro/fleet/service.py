"""Local fleet runner: one coordinator plus a (possibly elastic) pool.

:func:`fleet_run` is the one-command path (`fleet run` on the CLI): it
serves the coordinator in-process on an ephemeral localhost port, spawns
worker subprocesses pointed at it, and returns the final report — the
distributed twin of :func:`repro.campaign.executor.run_campaign`,
producing a byte-identical ``journal.jsonl`` and ``report.json``. It is
also what the throughput benchmark and the CI fleet-smoke jobs drive.

Workers are real subprocesses (``python -m repro.harness.cli fleet
worker``), not threads, so the fault-tolerance paths exercised in tests
— SIGKILL mid-lease, heartbeat expiry — are the same paths a multi-host
fleet exercises.

**Elastic pools.** With ``max_workers`` set, an :class:`ElasticPool`
autoscaler polls the coordinator's cheap load signal
(:meth:`~repro.fleet.coordinator.FleetCoordinator.load`, also embedded
in every ``status`` reply for remote autoscalers) and keeps the local
pool between ``min_workers`` and ``max_workers``: it spawns a worker
whenever unleased work exists and nobody is idle, and retires one —
via the coordinator's drain-then-exit path, so no draw is ever lost —
once a worker has been idle past a grace period. Crashed workers are
respawned while the pool is below its floor. Every decision is
audited as a ``scale`` event in the lease ledger.
"""

import asyncio
import os
import subprocess
import sys

from repro.fleet.coordinator import FleetCoordinator

#: autoscaler poll cadence and how long a worker may idle before retire
SCALE_INTERVAL = 0.25
IDLE_GRACE = 1.0


def query_status(host, port, timeout=5.0, secret=None, tls_ca=None):
    """Ask a live coordinator for its status dict (blocking).

    ``status`` asks are answered before the handshake gate — they carry
    no lease and reveal only campaign progress — but when the
    coordinator serves TLS the connection itself needs ``tls_ca``.
    ``secret`` is accepted for symmetry and future tightening.
    """
    from repro.fleet.protocol import read_message, send_message
    from repro.fleet.security import client_ssl_context

    ssl_context = client_ssl_context(tls_ca)

    async def _query():
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port, ssl=ssl_context), timeout
        )
        try:
            await send_message(writer, {"type": "status"})
            reply = await asyncio.wait_for(read_message(reader), timeout)
        finally:
            writer.close()
        if reply.get("type") != "status":
            raise RuntimeError(
                f"coordinator replied {reply.get('type')!r} to a status ask"
            )
        return reply["status"]

    return asyncio.run(_query())


def worker_command(host, port, name, cache=True, cache_dir=None,
                   snapshot_dir=None, tls_ca=None, reconnect_attempts=None,
                   reconnect_delay=None, reconnect_max_delay=None,
                   throttle=None):
    """argv for one worker subprocess joining ``host:port`` as ``name``.

    The shared secret never rides argv (it would leak through ``ps``);
    :func:`worker_env` exports it as ``$REPRO_FLEET_SECRET`` instead.
    """
    cmd = [
        sys.executable, "-m", "repro.harness.cli", "fleet", "worker",
        "--connect", f"{host}:{port}", "--name", name,
    ]
    if not cache:
        cmd.append("--no-cache")
    elif cache_dir:
        cmd += ["--cache-dir", str(cache_dir)]
    if snapshot_dir:
        cmd += ["--snapshot-dir", str(snapshot_dir)]
    if tls_ca:
        cmd += ["--tls-ca", str(tls_ca)]
    if reconnect_attempts is not None:
        cmd += ["--reconnect-attempts", str(reconnect_attempts)]
    if reconnect_delay is not None:
        cmd += ["--reconnect-delay", str(reconnect_delay)]
    if reconnect_max_delay is not None:
        cmd += ["--reconnect-max-delay", str(reconnect_max_delay)]
    if throttle:
        cmd += ["--throttle", str(throttle)]
    return cmd


def worker_env(secret=None):
    """Subprocess environment with ``repro`` importable from this tree."""
    import repro

    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__
    )))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing
        else src_root + os.pathsep + existing
    )
    if secret is not None:
        env["REPRO_FLEET_SECRET"] = (
            secret.decode() if isinstance(secret, bytes) else str(secret)
        )
    return env


def spawn_worker(host, port, name, secret=None, **kwargs):
    """Start one local worker subprocess (stdout/stderr inherited)."""
    return subprocess.Popen(
        worker_command(host, port, name, **kwargs),
        env=worker_env(secret=secret),
    )


def reap_workers(procs, grace=10.0):
    """Collect worker subprocesses, escalating to terminate/kill."""
    codes = []
    for proc in procs:
        try:
            codes.append(proc.wait(timeout=grace))
            continue
        except subprocess.TimeoutExpired:
            proc.terminate()
        try:
            codes.append(proc.wait(timeout=2.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            codes.append(proc.wait())
    return codes


def scale_decision(load, alive, draining, min_workers, max_workers,
                   idle_grace=IDLE_GRACE):
    """The autoscaler policy, as a pure function for unit testing.

    Returns ``("spawn", None)``, ``("retire", <idle worker name>)``, or
    ``("hold", None)`` for one poll tick. ``alive`` is the number of
    live local workers, ``draining`` the subset already retiring (they
    still count against the ceiling but are spoken for).
    """
    active = alive - draining
    if active < min_workers:
        return ("spawn", None)
    busy_work = load["queue_depth"] > 0 and load["idle"] == 0
    if busy_work and alive < max_workers:
        return ("spawn", None)
    if (
        active > min_workers
        and load["idle"] > 0
        and load["max_wait_s"] >= idle_grace
    ):
        candidates = [
            name for name in load["idle_workers"]
            if name not in load["draining"]
        ]
        if candidates:
            return ("retire", candidates[0])
    return ("hold", None)


class ElasticPool:
    """Autoscaled local worker subprocess pool for one coordinator.

    Owns spawn/retire/respawn; the coordinator owns drain semantics
    (:meth:`~repro.fleet.coordinator.FleetCoordinator.drain_worker`) so
    retirement never loses a draw: the drained worker finishes its
    in-flight lease, receives ``shutdown`` on its next request, and
    exits 0.
    """

    def __init__(self, coordinator, min_workers, max_workers,
                 spawn_kwargs=None, secret=None, interval=SCALE_INTERVAL,
                 idle_grace=IDLE_GRACE):
        self.coordinator = coordinator
        self.min_workers = int(min_workers)
        self.max_workers = int(max_workers)
        if self.min_workers < 1:
            raise ValueError(
                f"min_workers must be >= 1, got {self.min_workers}"
            )
        if self.min_workers > self.max_workers:
            raise ValueError(
                f"min_workers ({self.min_workers}) must be <= "
                f"max_workers ({self.max_workers})"
            )
        self.spawn_kwargs = dict(spawn_kwargs or {})
        self.secret = secret
        self.interval = float(interval)
        self.idle_grace = float(idle_grace)
        self.procs = {}  # name -> Popen
        self.retired = set()  # names drained on purpose
        self.spawned = 0  # lifetime spawn count (also names workers)

    def spawn(self, reason):
        name = f"worker{self.spawned}"
        self.spawned += 1
        self.procs[name] = spawn_worker(
            self.coordinator.host, self.coordinator.port, name,
            secret=self.secret, **self.spawn_kwargs
        )
        self.coordinator._ledger.scaled("spawn", name, reason)
        return name

    def retire(self, name, reason):
        self.retired.add(name)
        self.coordinator.drain_worker(name)
        self.coordinator._ledger.scaled("retire", name, reason)

    def start(self, initial):
        for _ in range(initial):
            self.spawn("initial pool")

    def _reap_exited(self):
        for name, proc in list(self.procs.items()):
            if proc.poll() is not None:
                del self.procs[name]

    async def run(self):
        """Poll the load signal and scale until the campaign finishes."""
        while not self.coordinator._done.is_set():
            await asyncio.sleep(self.interval)
            self._reap_exited()
            load = self.coordinator.load()
            if load["complete"]:
                break
            alive = len(self.procs)
            draining = sum(
                1 for name in self.procs if name in self.retired
            )
            action, target = scale_decision(
                load, alive, draining, self.min_workers,
                self.max_workers, self.idle_grace,
            )
            if action == "spawn":
                active = alive - draining
                reason = (
                    "below pool floor" if active < self.min_workers
                    else f"queue depth {load['queue_depth']}, no idle "
                         "workers"
                )
                self.spawn(reason)
            elif action == "retire" and target in self.procs:
                self.retire(
                    target,
                    f"idle {load['max_wait_s']}s >= {self.idle_grace}s",
                )


def fleet_run(directory, spec=None, workers=2, host="127.0.0.1", port=0,
              resume=False, cache=True, cache_dir=None, snapshots=True,
              snapshot_dir=None, heartbeat_timeout=15.0, linger=1.0,
              secret=None, tls_cert=None, tls_key=None, tls_ca=None,
              min_workers=None, max_workers=None, steal=True,
              reconnect_attempts=None, reconnect_delay=None,
              reconnect_max_delay=None):
    """Run (or resume) a campaign on a local fleet; returns the report.

    ``workers`` local worker subprocesses execute the draws; the
    in-process coordinator owns leasing, journaling, and stopping. The
    campaign directory afterwards contains the same canonical
    ``journal.jsonl`` / ``report.json`` a single-pool run writes, plus
    ``shards/`` and ``leases.jsonl`` for audit.

    Setting ``min_workers``/``max_workers`` makes the pool elastic:
    ``workers`` (clamped into the band) is only the starting size, and
    an :class:`ElasticPool` grows or drains the pool against the
    coordinator's live load signal. ``secret`` turns on the shared-
    secret handshake (exported to worker subprocesses via the
    environment, never argv); ``tls_cert``/``tls_key`` wrap the local
    sockets in TLS, with workers pinning ``tls_ca`` (defaulting to the
    coordinator certificate itself — the self-signed case).
    """
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    elastic = min_workers is not None or max_workers is not None
    if elastic:
        low = 1 if min_workers is None else int(min_workers)
        high = workers if max_workers is None else int(max_workers)
        if low < 1:
            raise ValueError(f"min_workers must be >= 1, got {low}")
        if low > high:
            raise ValueError(
                f"min_workers ({low}) must be <= max_workers ({high})"
            )
        workers = min(max(workers, low), high)
    worker_tls_ca = tls_ca or tls_cert
    spawn_kwargs = dict(
        cache=cache, cache_dir=cache_dir, snapshot_dir=snapshot_dir,
        tls_ca=worker_tls_ca,
        reconnect_attempts=reconnect_attempts,
        reconnect_delay=reconnect_delay,
        reconnect_max_delay=reconnect_max_delay,
    )

    async def _main():
        coordinator = FleetCoordinator(
            directory, spec=spec, host=host, port=port, resume=resume,
            cache=cache, cache_dir=cache_dir, snapshots=snapshots,
            snapshot_dir=snapshot_dir, heartbeat_timeout=heartbeat_timeout,
            linger=linger, secret=secret, tls_cert=tls_cert,
            tls_key=tls_key, steal=steal,
        )
        serve_task = asyncio.create_task(coordinator.serve())
        await coordinator.ready.wait()
        procs = []
        scale_task = None
        pool = None
        if not serve_task.done():  # already-complete campaigns skip workers
            if elastic:
                pool = ElasticPool(
                    coordinator, low, high, spawn_kwargs=spawn_kwargs,
                    secret=secret,
                )
                pool.start(workers)
                scale_task = asyncio.create_task(pool.run())
            else:
                procs = [
                    spawn_worker(
                        coordinator.host, coordinator.port, f"worker{i}",
                        secret=secret, **spawn_kwargs
                    )
                    for i in range(workers)
                ]
        try:
            report = await serve_task
        finally:
            if scale_task is not None:
                scale_task.cancel()
            if pool is not None:
                procs = list(pool.procs.values())
            await asyncio.to_thread(reap_workers, procs)
        return report

    return asyncio.run(_main())
