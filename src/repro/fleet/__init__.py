"""Distributed campaign fleet: coordinator/worker service.

Scales the statistical campaign engine (:mod:`repro.campaign`) from one
process pool to a fleet of workers while keeping its two load-bearing
guarantees intact:

* **Determinism** — the coordinator owns every statistical decision
  (batching, stopping) through the same
  :class:`~repro.campaign.scheduler.PointScheduler` the single-pool
  executor drives, and draws are keyed by the hash-derived seed stream,
  so a fleet campaign journals exactly the draws — and writes exactly
  the report bytes — a single-pool ``campaign run`` would.
* **Crash-safety** — every accepted draw is fsynced to a per-worker
  shard journal before it counts; worker death revokes and re-leases,
  coordinator death resumes from the shards + lease ledger.

Layers
------
:mod:`repro.fleet.protocol`
    Length-prefixed JSON framing and the message vocabulary.
:mod:`repro.fleet.ledger`
    Append-only lease ledger (dispatch audit + lease numbering).
:mod:`repro.fleet.merge`
    Shard journal helpers and the canonical merge, which lives in
    :mod:`repro.campaign.journal` because a single pool ends with it too.
:mod:`repro.fleet.coordinator`
    The asyncio TCP coordinator: leases, heartbeats, stopping, status.
:mod:`repro.fleet.worker`
    The execution loop a worker process runs.
:mod:`repro.fleet.service`
    ``fleet run``: local coordinator + N worker subprocesses, with an
    optional :class:`~repro.fleet.service.ElasticPool` autoscaler.
:mod:`repro.fleet.security`
    Shared-secret HMAC handshake and optional TLS wrapping.
:mod:`repro.fleet.chaosproxy`
    Deterministic fault-injecting relay for end-to-end chaos tests.

See ``docs/campaigns.md`` ("Running on a fleet" and "Securing and
scaling a fleet") for the wire protocol sketch, the lease lifecycle,
and failure semantics.
"""

from repro.fleet.chaosproxy import ChaosConfig, ChaosProxy
from repro.fleet.coordinator import (
    FleetCoordinator,
    FleetError,
    read_endpoint,
    serve_fleet,
)
from repro.fleet.merge import merge_journals, replay_shards
from repro.fleet.protocol import ProtocolError
from repro.fleet.security import SecurityError, resolve_secret
from repro.fleet.service import ElasticPool, fleet_run
from repro.fleet.worker import FleetWorker, run_worker

__all__ = [
    "ChaosConfig",
    "ChaosProxy",
    "ElasticPool",
    "FleetCoordinator",
    "FleetError",
    "FleetWorker",
    "ProtocolError",
    "SecurityError",
    "fleet_run",
    "merge_journals",
    "read_endpoint",
    "replay_shards",
    "resolve_secret",
    "run_worker",
    "serve_fleet",
]
