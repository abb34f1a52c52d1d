"""Chaos proxy: a deterministic fault-injecting TCP relay for the fleet.

Sits between workers and a coordinator and injects the failures a real
network delivers eventually — added latency, duplicated and reordered
deliveries, corrupted payloads, connections cut mid-frame, short
partitions refusing new connections — so tests (and the CI chaos smoke
job) can prove the fleet's exactly-once accounting end to end: a
campaign run through the proxy must produce a journal and report
**byte-identical** to an undisturbed single-pool run.

Design points:

* **Frame-aware.** The relay parses the protocol's 4-byte length
  prefix and forwards whole frames. Duplicating or reordering raw byte
  chunks would corrupt the framing itself and only ever test the
  "undecodable stream" path; operating on frames lets a duplicated
  ``entry`` or a reordered ``request`` actually reach the protocol
  layer, where the exactly-once gate has to do real work.
* **Deterministic.** Every decision comes from a
  :class:`random.Random` seeded ``"{seed}:{connection}:{direction}"``
  and a per-frame roll, so a failing chaos test replays exactly from
  its seed. (Wall-clock interleaving still varies; the *invariant* —
  byte-identical output — must hold for every interleaving.)
* **Bounded.** Destructive events (cuts, corruption, partitions) stop
  after :attr:`ChaosConfig.max_events`, after which the proxy turns
  transparent — a chaos campaign always terminates, provided worker
  reconnect budgets exceed the budgeted cuts.
* **Safe corruption.** A corrupted frame gets its first payload byte
  forced to ``0xFF`` — invalid UTF-8, guaranteed to die in the peer's
  JSON decode as a :class:`~repro.fleet.protocol.ProtocolError`. A
  random bit flip could instead yield *valid* JSON with a perturbed
  metric value and silently corrupt the science; the proxy must only
  ever inject faults the protocol is allowed to survive.
* **Plain TCP only.** The proxy relays the unencrypted protocol; under
  TLS a relay only sees ciphertext (any tampering is a handshake/MAC
  failure — that path is covered by the TLS tests instead).

The first :attr:`ChaosConfig.handshake_grace` frames of each direction
pass untouched so every connection can complete hello/config before
the weather starts; cuts and partitions still exercise reconnect
handshakes end to end.
"""

import asyncio
import random
import time
from collections import Counter
from dataclasses import dataclass

_HEADER = 4


@dataclass
class ChaosConfig:
    """Fault mix for a :class:`ChaosProxy` (probabilities per frame)."""

    seed: int = 0
    #: max injected per-frame delay in seconds (rolled per frame)
    latency: float = 0.0
    latency_p: float = 0.0
    #: forward a frame twice (exactly-once gate must drop the copy)
    dup_p: float = 0.0
    #: deliver a frame after its successor (bounded hold, see below)
    reorder_p: float = 0.0
    #: how long a reordered frame may wait for a successor to overtake
    reorder_hold: float = 0.05
    #: force the first payload byte to 0xFF (peer must drop connection)
    corrupt_p: float = 0.0
    #: abort the connection mid-frame (header + half the payload)
    cut_p: float = 0.0
    #: abort the connection and refuse new ones for ``partition_s``
    partition_p: float = 0.0
    partition_s: float = 0.3
    #: destructive-event budget (cut + corrupt + partition); the proxy
    #: is transparent once spent, so chaos campaigns always finish
    max_events: int = 6
    #: per-direction frames forwarded untouched at connection start
    handshake_grace: int = 3


class ChaosProxy:
    """Deterministic fault-injecting relay in front of a coordinator."""

    def __init__(self, target_host, target_port, config=None,
                 host="127.0.0.1", port=0):
        self.target_host = target_host
        self.target_port = int(target_port)
        self.config = config or ChaosConfig()
        self.host = host
        self.port = int(port)
        #: injection counts by kind — tests assert the weather actually
        #: happened (a chaos run that injected nothing proves nothing)
        self.injected = Counter()
        self._destructive = 0
        self._partition_until = 0.0
        self._conn_seq = 0
        self._server = None

    async def start(self):
        """Bind and serve; resolves :attr:`port` when it was ephemeral."""
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    def _charge(self, kind):
        """Spend destructive budget on ``kind``; False once exhausted."""
        if self._destructive >= self.config.max_events:
            return False
        self._destructive += 1
        self.injected[kind] += 1
        return True

    @staticmethod
    def _abort(writers):
        for writer in writers:
            try:
                writer.transport.abort()
            except (AttributeError, ConnectionError, OSError):
                try:
                    writer.close()
                except (ConnectionError, OSError):
                    pass

    async def _handle(self, client_reader, client_writer):
        if time.monotonic() < self._partition_until:
            # partitioned: refuse service (refusals are free — the
            # budget was spent when the partition was declared)
            self.injected["partition_refused"] += 1
            self._abort([client_writer])
            return
        self._conn_seq += 1
        conn = self._conn_seq
        try:
            upstream_reader, upstream_writer = await asyncio.open_connection(
                self.target_host, self.target_port
            )
        except OSError:
            self._abort([client_writer])
            return
        writers = [client_writer, upstream_writer]
        await asyncio.gather(
            self._relay(client_reader, upstream_writer, conn, "up",
                        writers),
            self._relay(upstream_reader, client_writer, conn, "down",
                        writers),
        )

    async def _read_frame(self, reader):
        header = await reader.readexactly(_HEADER)
        length = int.from_bytes(header, "big")
        payload = await reader.readexactly(length)
        return header, payload

    async def _relay(self, reader, writer, conn, direction, writers):
        """Relay one direction frame-by-frame, rolling the fault dice."""
        config = self.config
        rng = random.Random(f"{config.seed}:{conn}:{direction}")
        frames = 0
        try:
            while True:
                header, payload = await self._read_frame(reader)
                frames += 1
                if frames <= config.handshake_grace:
                    writer.write(header + payload)
                    await writer.drain()
                    continue
                if config.latency_p and rng.random() < config.latency_p:
                    self.injected["latency"] += 1
                    await asyncio.sleep(rng.uniform(0.0, config.latency))
                # at most one structural event per frame, rolled off a
                # single uniform draw so the mix is exactly the config;
                # a destructive roll after the budget is spent (or any
                # miss) falls through to a transparent forward
                roll = rng.random()
                if roll < config.partition_p and self._charge("partition"):
                    self._partition_until = (
                        time.monotonic() + config.partition_s
                    )
                    self._abort(writers)
                    return
                roll -= config.partition_p
                if 0 <= roll < config.cut_p and self._charge("cut"):
                    writer.write(header + payload[:len(payload) // 2])
                    try:
                        await writer.drain()
                    except (ConnectionError, OSError):
                        pass
                    self._abort(writers)
                    return
                roll -= config.cut_p
                if 0 <= roll < config.corrupt_p and self._charge("corrupt"):
                    payload = b"\xff" + payload[1:]
                    writer.write(header + payload)
                    await writer.drain()
                    continue
                roll -= config.corrupt_p
                if 0 <= roll < config.dup_p:
                    self.injected["dup"] += 1
                    writer.write(header + payload)
                    writer.write(header + payload)
                    await writer.drain()
                    continue
                roll -= config.dup_p
                if 0 <= roll < config.reorder_p:
                    # hold this frame until a successor overtakes it —
                    # but only briefly: an indefinitely held frame could
                    # stall a strict request/reply exchange forever
                    try:
                        successor = await asyncio.wait_for(
                            self._read_frame(reader),
                            timeout=config.reorder_hold,
                        )
                        self.injected["reorder"] += 1
                        writer.write(successor[0] + successor[1])
                        frames += 1
                    except asyncio.TimeoutError:
                        self.injected["reorder_lone"] += 1
                    writer.write(header + payload)
                    await writer.drain()
                    continue
                writer.write(header + payload)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
