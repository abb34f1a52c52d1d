"""Handshake matrix: shared-secret and TLS combinations, end to end.

Every rejected cell must reject *cleanly*: a structured error (or a
fast connection failure) on the worker side, an audit counter on the
coordinator side, zero journal writes, and a serve loop that keeps
accepting properly-credentialed workers afterwards.
"""

import asyncio
import os

from repro.campaign.executor import run_campaign
from repro.campaign.plan import CampaignSpec
from repro.fleet import FleetWorker, fleet_run
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.merge import shard_dir
from repro.fleet.service import reap_workers, spawn_worker


def _spec(**overrides):
    knobs = dict(
        name="fleet-handshake", benchmarks=["astar"], schemes=["EP"],
        vdds=[0.97], n_instructions=500, warmup=250, min_seeds=2,
        max_seeds=2, batch_size=2,
    )
    knobs.update(overrides)
    return CampaignSpec(**knobs)


def _single_pool(directory, **overrides):
    return run_campaign(
        str(directory), spec=_spec(**overrides), cache=False,
        snapshots=False,
    )


def _no_worker_shards(directory):
    """True when no worker ever got a journal write (shards are lazy)."""
    shards = shard_dir(directory)
    if not os.path.isdir(shards):
        return True
    return all(
        name.startswith("_") for name in os.listdir(shards)
    )


async def _serve(directory, **kwargs):
    """A serving coordinator + its task; caller cancels or awaits."""
    coordinator = FleetCoordinator(
        directory, spec=_spec(), linger=0.1, cache=False,
        snapshots=False, wait_delay=0.1, **kwargs
    )
    task = asyncio.create_task(coordinator.serve())
    await coordinator.ready.wait()
    return coordinator, task


async def _await_audit(coordinator, key, n=1, timeout=5.0):
    """Wait for an audit counter: the worker's exit can beat the
    coordinator's observation of the dropped connection by a tick."""
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while coordinator.audit[key] < n and loop.time() < deadline:
        await asyncio.sleep(0.02)


async def _cancel(task):
    task.cancel()
    try:
        await task
    except asyncio.CancelledError:
        pass


def _worker(coordinator, **kwargs):
    kwargs.setdefault("cache", False)
    kwargs.setdefault("reconnect_attempts", 1)
    kwargs.setdefault("reconnect_delay", 0.05)
    return FleetWorker(
        coordinator.host, coordinator.port, **kwargs
    )


class TestSecretMatrix:
    def test_both_sides_share_secret_byte_identical(self, tmp_path):
        _single_pool(tmp_path / "pool")
        fleet_run(
            tmp_path / "fleet", spec=_spec(), workers=2, cache=False,
            snapshots=False, linger=0.2, secret="hunter2",
        )
        assert (tmp_path / "fleet" / "journal.jsonl").read_bytes() == (
            tmp_path / "pool" / "journal.jsonl"
        ).read_bytes()
        assert (tmp_path / "fleet" / "report.json").read_bytes() == (
            tmp_path / "pool" / "report.json"
        ).read_bytes()

    def test_wrong_secret_rejected_before_any_lease(self, tmp_path):
        async def go():
            coordinator, task = await _serve(tmp_path, secret="right")
            code = await _worker(
                coordinator, name="intruder", secret="wrong"
            ).run()
            await _await_audit(coordinator, "auth_failures")
            audit = dict(coordinator.audit)
            # the serve loop survived the rejection: a worker holding
            # the right secret still completes the whole campaign
            proc = spawn_worker(
                coordinator.host, coordinator.port, "honest",
                secret="right", cache=False,
            )
            report = await task
            reap_workers([proc])
            return code, audit, report

        code, audit, report = asyncio.run(go())
        assert code == 2  # rejected, not retried
        # mutual auth: the worker refused the coordinator's wrong-secret
        # proof and hung up; the abandoned handshake is still audited
        assert audit["auth_failures"] == 1
        assert report["complete"]
        ledger = (tmp_path / "leases.jsonl").read_text()
        assert '"intruder"' not in ledger  # never leased a single draw
        assert not os.path.exists(
            os.path.join(shard_dir(tmp_path), "intruder.jsonl")
        )

    def test_worker_without_secret_rejected(self, tmp_path):
        async def go():
            coordinator, task = await _serve(tmp_path, secret="right")
            code = await _worker(coordinator, name="naked").run()
            await _await_audit(coordinator, "auth_failures")
            audit = dict(coordinator.audit)
            await _cancel(task)
            return code, audit

        code, audit = asyncio.run(go())
        assert code == 2
        # it could not answer the challenge; the timeout/garbage path
        # still lands in the auth-failure audit trail
        assert audit["auth_failures"] == 1
        assert _no_worker_shards(tmp_path)

    def test_forged_auth_reply_rejected_with_structured_error(
        self, tmp_path
    ):
        from repro.fleet.protocol import read_message, send_message

        async def go():
            from repro.harness.parallel import model_version

            coordinator, task = await _serve(tmp_path, secret="right")
            # an attacker that skips proof verification and answers the
            # challenge with a guessed MAC — the coordinator-side reject
            reader, writer = await asyncio.open_connection(
                coordinator.host, coordinator.port
            )
            await send_message(writer, {
                "type": "hello", "worker": "forger",
                "model_version": model_version(), "nonce": "ab" * 16,
            })
            challenge = await read_message(reader)
            await send_message(writer, {"type": "auth", "mac": "f" * 64})
            error = await read_message(reader)
            audit = dict(coordinator.audit)
            writer.close()
            await _cancel(task)
            return challenge, error, audit

        challenge, error, audit = asyncio.run(go())
        assert challenge["type"] == "challenge"
        assert error["type"] == "error"
        assert error["code"] == "auth-failed"
        assert audit["auth_failures"] == 1
        assert audit["rejected_hellos"] == 1
        assert _no_worker_shards(tmp_path)
        # the rejection never granted a lease, but it IS persisted to
        # the ledger's audit trail so an offline `fleet status` can
        # still report the hostile peer after the coordinator dies
        from repro.fleet.ledger import LeaseLedger

        replayed = LeaseLedger(tmp_path).replay()
        assert replayed["max_lease"] == 0 and replayed["open"] == {}
        assert replayed["audit"]["auth_failures"] == 1
        assert replayed["audit"]["rejected_hellos"] == 1

    def test_worker_refuses_unauthenticated_coordinator(self, tmp_path):
        async def go():
            coordinator, task = await _serve(tmp_path)  # no secret
            code = await _worker(
                coordinator, name="cautious", secret="hunter2"
            ).run()
            await _cancel(task)
            return code

        # an impostor coordinator that sends no challenge must not be
        # able to farm work out of a secret-holding worker
        assert asyncio.run(go()) == 2
        assert _no_worker_shards(tmp_path)


class TestTlsMatrix:
    def test_tls_both_sides_byte_identical(self, tmp_path, tls_identity):
        cert, key = tls_identity
        _single_pool(tmp_path / "pool")
        fleet_run(
            tmp_path / "fleet", spec=_spec(), workers=2, cache=False,
            snapshots=False, linger=0.2, secret="hunter2",
            tls_cert=cert, tls_key=key,
        )
        assert (tmp_path / "fleet" / "journal.jsonl").read_bytes() == (
            tmp_path / "pool" / "journal.jsonl"
        ).read_bytes()

    def test_plain_worker_against_tls_coordinator(
        self, tmp_path, tls_identity
    ):
        cert, key = tls_identity

        async def go():
            coordinator, task = await _serve(
                tmp_path, tls_cert=cert, tls_key=key
            )
            code = await _worker(coordinator, name="plain").run()
            await _cancel(task)
            return code

        # the TLS server never answers a plaintext hello; the worker
        # burns its reconnect budget and gives up — exit 1, no journal
        assert asyncio.run(go()) == 1
        assert _no_worker_shards(tmp_path)

    def test_tls_worker_against_plain_coordinator(self, tmp_path,
                                                  tls_identity):
        cert, _ = tls_identity

        async def go():
            coordinator, task = await _serve(tmp_path)
            code = await _worker(
                coordinator, name="armored", tls_ca=cert
            ).run()
            audit = dict(coordinator.audit)
            await _cancel(task)
            return code, audit

        code, audit = asyncio.run(go())
        assert code == 1
        # the ClientHello bytes are not a protocol frame; the plain
        # coordinator drops that connection and audits it, nothing more
        assert audit["protocol_errors"] >= 1
        assert _no_worker_shards(tmp_path)

    def test_version_skew_rejected_over_tls(self, tmp_path, tls_identity,
                                            monkeypatch):
        cert, key = tls_identity

        async def go():
            coordinator, task = await _serve(
                tmp_path, secret="s", tls_cert=cert, tls_key=key
            )
            import repro.harness.parallel as parallel

            monkeypatch.setattr(
                parallel, "model_version", lambda: "skewed-version"
            )
            code = await _worker(
                coordinator, name="stale", secret="s", tls_ca=cert
            ).run()
            audit = dict(coordinator.audit)
            await _cancel(task)
            return code, audit

        code, audit = asyncio.run(go())
        assert code == 2
        assert audit["rejected_hellos"] == 1
        # skew is counted on its own, distinct from hostile rejections
        assert audit["rejected_versions"] == 1
        assert audit["auth_failures"] == 0  # the secret was right
        assert _no_worker_shards(tmp_path)
        # and the counters survive the coordinator via the ledger
        from repro.fleet.ledger import LeaseLedger

        persisted = LeaseLedger(tmp_path).replay()["audit"]
        assert persisted["rejected_versions"] == 1
