"""A hostile or broken client must cost the fleet one connection, ever.

Regression tests for the structured :class:`ProtocolError` path: the
coordinator drops (and audits) the offending connection while its serve
loop and every honest worker keep going to a byte-identical finish.
"""

import asyncio

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.plan import CampaignSpec
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.protocol import (
    MAX_FRAME,
    ProtocolError,
    encode,
    read_message,
)
from repro.fleet.service import reap_workers, spawn_worker


def _spec():
    return CampaignSpec(
        name="fleet-hostile", benchmarks=["astar"], schemes=["EP"],
        vdds=[0.97], n_instructions=500, warmup=250, min_seeds=2,
        max_seeds=2, batch_size=2,
    )


class TestProtocolErrorStructure:
    def test_carries_peer_and_frame_size(self):
        exc = ProtocolError("too big", peer="10.0.0.9:1234",
                            frame_size=MAX_FRAME + 1)
        assert exc.reason == "too big"
        assert exc.peer == "10.0.0.9:1234"
        assert exc.frame_size == MAX_FRAME + 1
        assert "10.0.0.9:1234" in str(exc)
        assert str(MAX_FRAME + 1) in str(exc)

    def test_read_message_threads_peer(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data((MAX_FRAME + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError) as err:
                await read_message(reader, peer="evil:1")
            return err.value

        exc = asyncio.run(go())
        assert exc.peer == "evil:1"
        assert exc.frame_size == MAX_FRAME + 1


class TestMaliciousClient:
    def test_oversize_and_truncated_frames_drop_only_their_connection(
        self, tmp_path, capsys
    ):
        _single = run_campaign(
            str(tmp_path / "pool"), spec=_spec(), cache=False,
            snapshots=False,
        )
        fleet = tmp_path / "fleet"

        async def attack(host, port):
            # attacker 1: a frame header advertising a 2 GiB payload
            reader, writer = await asyncio.open_connection(host, port)
            writer.write((2 ** 31).to_bytes(4, "big") + b"\x00" * 64)
            await writer.drain()
            reply = await read_message(reader)
            writer.close()
            # attacker 2: a truncated frame (header promises more)
            _, writer2 = await asyncio.open_connection(host, port)
            writer2.write(encode({"type": "hello"})[:-3])
            writer2.write_eof()
            await writer2.drain()
            writer2.close()
            return reply

        async def go():
            coordinator = FleetCoordinator(
                fleet, spec=_spec(), linger=0.2, cache=False,
                snapshots=False,
            )
            task = asyncio.create_task(coordinator.serve())
            await coordinator.ready.wait()
            reply = await attack(coordinator.host, coordinator.port)
            # the serve loop survived both: an honest worker joining
            # *after* the attacks completes the whole campaign
            proc = spawn_worker(
                coordinator.host, coordinator.port, "honest",
                cache=False,
            )
            report = await task
            reap_workers([proc])
            return reply, dict(coordinator.audit), report

        reply, audit, report = asyncio.run(go())
        assert reply["type"] == "error"
        assert reply["code"] == "protocol"
        assert audit["protocol_errors"] == 2
        assert report["complete"]
        assert (fleet / "journal.jsonl").read_bytes() == (
            tmp_path / "pool" / "journal.jsonl"
        ).read_bytes()
        # the drop is logged with the peer's address for the audit trail
        assert "dropping connection" in capsys.readouterr().err
