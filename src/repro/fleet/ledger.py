"""Lease ledger: append-only record of the coordinator's dispatch state.

The shard journals are the source of truth for *completed* draws; the
ledger records what was *in flight* — which draw indices were leased to
which worker, and how each lease ended (completed, revoked on heartbeat
expiry, or orphaned by a coordinator crash). A restarted coordinator
replays it to continue lease numbering and to log the leases that died
with it; ``fleet status`` and the fault-path tests read it to audit the
reassignment story (every revoked lease's indices must reappear under a
later lease or in the journal). :class:`LedgerState` is the one fold of
ledger records, shared by :meth:`LeaseLedger.replay` and the
dashboard's live view.
"""

import json
import os

from repro.campaign.journal import fold_files

LEDGER_NAME = "leases.jsonl"

#: how many steal / scale events a :class:`LedgerState` retains (newest
#: kept; the full history stays in leases.jsonl)
EVENT_LOG_LIMIT = 200

#: lease record kind -> the tally it bumps, overall and per worker
_LEASE_TALLIES = {
    "lease": "granted", "complete": "completed", "revoke": "revoked",
}
#: the per-worker tallies of :attr:`LedgerState.workers`
WORKER_TALLIES = (*_LEASE_TALLIES.values(), "stolen_from")


class LedgerState:
    """Lease-ledger records folded into dispatch state.

    ``open`` maps lease id -> grant record for leases with neither a
    ``complete`` nor a ``revoke`` record (in flight, or orphaned by a
    coordinator death); ``audit`` holds the counters of the last
    ``audit`` record, else ``None``.
    """

    def __init__(self):
        self.max_lease = 0
        self.open = {}
        self.audit = None
        self.totals = dict.fromkeys(_LEASE_TALLIES.values(), 0)
        self.workers = {}  # worker -> {tally: count} over WORKER_TALLIES
        self.steals = []
        self.scale_events = []

    def _bump(self, name, tally):
        tallies = self.workers.setdefault(
            name, dict.fromkeys(WORKER_TALLIES, 0)
        )
        tallies[tally] += 1

    def fold(self, record):
        """Apply one decoded ledger record; True when it was understood.

        Undecodable lines (``None``) and unknown records are ignored:
        the ledger is advisory, the shard journals carry the ground
        truth.
        """
        if record is None:
            return False
        kind = record.get("event")
        lease_id = record.get("lease")
        if kind == "audit" and isinstance(record.get("counters"), dict):
            self.audit = dict(record["counters"])
        elif kind == "steal":
            self.steals.append(record)
            del self.steals[:-EVENT_LOG_LIMIT]
            self._bump(record.get("victim", "?"), "stolen_from")
        elif kind == "scale":
            self.scale_events.append(record)
            del self.scale_events[:-EVENT_LOG_LIMIT]
        elif kind in _LEASE_TALLIES and isinstance(lease_id, int):
            self.max_lease = max(self.max_lease, lease_id)
            if kind == "lease":
                grant = self.open[lease_id] = record
            else:
                grant = self.open.pop(lease_id, None)
            tally = _LEASE_TALLIES[kind]
            self.totals[tally] += 1
            if grant is not None:
                self._bump(grant.get("worker", "?"), tally)
        else:
            return False
        return True


class LeaseLedger:
    """Append-only JSONL ledger under a fleet campaign directory."""

    def __init__(self, directory):
        self.directory = str(directory)
        self.path = os.path.join(self.directory, LEDGER_NAME)
        self._fh = None

    def append(self, record):
        if self._fh is None:
            os.makedirs(self.directory, exist_ok=True)
            self._fh = open(self.path, "a")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------------
    def granted(self, lease_id, point_id, indices, worker):
        self.append({
            "event": "lease", "lease": lease_id, "point": point_id,
            "indices": list(indices), "worker": worker,
        })

    def completed(self, lease_id):
        self.append({"event": "complete", "lease": lease_id})

    def revoked(self, lease_id, reason):
        self.append({"event": "revoke", "lease": lease_id, "reason": reason})

    def stolen(self, thief_lease, victim_lease, point_id, indices,
               thief, victim):
        """Audit a work-steal: ``indices`` moved between two live leases.

        The thief's lease was just :meth:`granted`; this marker ties it
        to the victim so the reassignment story stays auditable. Keyed
        ``thief_lease``/``victim_lease`` (not ``lease``): it opens or
        closes no lease in :class:`LedgerState` — both leases' state is
        tracked by their own grant/complete/revoke records.
        """
        self.append({
            "event": "steal", "thief_lease": thief_lease,
            "victim_lease": victim_lease, "point": point_id,
            "indices": list(indices), "worker": thief, "victim": victim,
        })

    def scaled(self, action, worker, reason):
        """Audit an autoscaler decision (``spawn`` or ``retire``)."""
        self.append({
            "event": "scale", "action": action, "worker": worker,
            "reason": reason,
        })

    def audited(self, counters):
        """Persist a snapshot of the coordinator's security audit counters.

        Appended on every counter bump (they are rare — hostile peers,
        version skew, steals), so the *last* ``audit`` record always
        holds the final tallies and survives the coordinator:
        ``fleet status`` on a dead fleet can still report how many
        peers were rejected and why.
        """
        self.append({"event": "audit", "counters": dict(counters)})

    # ------------------------------------------------------------------
    def replay(self):
        """{"max_lease": int, "open": {lease_id: grant-record},
        "audit": last-counters-or-None} — see :class:`LedgerState`."""
        state = fold_files([self.path], LedgerState())
        return {"max_lease": state.max_lease, "open": state.open,
                "audit": state.audit}
