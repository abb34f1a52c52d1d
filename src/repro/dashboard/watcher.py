"""Incremental journal tailing: the input side of every live view.

A campaign directory's progress lives in append-only JSONL files — the
canonical ``journal.jsonl``, per-worker shard journals under ``shards/``,
and the fleet's ``leases.jsonl`` ledger. :class:`JournalWatcher` tails
all of them with one ``poll()`` call, emitting each *complete* decoded
record exactly once, in file append order, tagged with its source. It is
the shared substrate of the dashboard server, ``campaign status
--follow``, and ``fleet status --follow`` — anything that wants to react
to a campaign as it runs without re-replaying the world every tick.

Durability edge cases are first-class, not best-effort:

* **Torn tails** — a writer crash (or a poll racing an in-flight
  ``append``) can leave a partial final line with no terminator. The
  tail bytes are buffered, never parsed, and re-examined on the next
  poll; once the newline lands the record is emitted whole. A torn line
  is therefore *delayed*, never dropped or double-emitted.
* **Rotation/truncation** — ``merge_journals`` atomically replaces
  ``journal.jsonl``; ``Journal.repair`` truncates torn bytes in place.
  A shrunken size or a changed inode resets that file's cursor to zero
  and re-emits its records; consumers that fold records idempotently
  (:class:`~repro.dashboard.view.CampaignView`, through
  :meth:`~repro.campaign.journal.JournalState.fold`) converge to the
  same state regardless.
* **Late files** — shard journals appear only when their worker first
  reports, and ``leases.jsonl`` only when a coordinator runs. Every
  poll re-globs the directory, so files born after the watch started
  are picked up from byte zero.
"""

import os

from repro.campaign.journal import JOURNAL_NAME, decode_lines, list_shards
from repro.fleet.ledger import LEDGER_NAME

#: source tags carried on every emitted record
SOURCE_JOURNAL = "journal"
SOURCE_SHARD = "shard"
SOURCE_LEDGER = "ledger"


class TailedFile:
    """Cursor + torn-tail buffer over one append-only JSONL file."""

    def __init__(self, path, source, shard=None):
        self.path = path
        self.source = source
        self.shard = shard  # worker name for shard journals, else None
        self.offset = 0  # bytes read off the file (incl. buffered tail)
        self.inode = None
        self._tail = b""  # unterminated final-line bytes (torn tail)
        #: decode failures on *terminated* lines (corrupt, not torn)
        self.n_bad = 0

    def _reset(self):
        self.offset = 0
        self._tail = b""

    def poll(self):
        """Newly completed records since the last poll (may be empty)."""
        try:
            stat = os.stat(self.path)
        except OSError:
            if self.inode is not None:
                # the file vanished (rotation midway); start over when
                # (if) it reappears
                self.inode = None
                self._reset()
            return []
        if stat.st_ino != self.inode or stat.st_size < self.offset:
            # replaced (new inode) or truncated in place: re-read. The
            # consumer's idempotent fold absorbs the re-emission.
            self.inode = stat.st_ino
            self._reset()
        if stat.st_size == self.offset:
            return []
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self.offset)
                data = fh.read()
        except OSError:
            return []
        self.offset += len(data)
        data = self._tail + data
        cut = data.rfind(b"\n") + 1
        # bytes past the last newline are a torn tail: buffer, do not
        # parse — the writer is mid-append and the rest is coming.
        # (offset already covers them, so they are never re-read.)
        self._tail = data[cut:]
        records = []
        for record in decode_lines(data[:cut].splitlines()):
            if record is None:
                self.n_bad += 1
            else:
                records.append(record)
        return records


class JournalWatcher:
    """Tail every journal artifact of one campaign directory.

    ``poll()`` returns ``[(source, shard_or_None, record), ...]`` in a
    deterministic order: the canonical journal first, then shards in
    :func:`~repro.campaign.journal.list_shards` order (the offline
    fold's), then the lease ledger. Call it on whatever cadence suits
    the consumer — each call does one ``os.stat`` per known file plus
    one directory listing, so a sub-second poll is cheap even on large
    campaigns.
    """

    def __init__(self, directory, ledger=True, shards=True):
        self.directory = str(directory)
        self.with_ledger = bool(ledger)
        self.with_shards = bool(shards)
        self._journal = TailedFile(
            os.path.join(self.directory, JOURNAL_NAME), SOURCE_JOURNAL
        )
        self._ledger = TailedFile(
            os.path.join(self.directory, LEDGER_NAME), SOURCE_LEDGER
        )
        self._shards = {}  # shard path -> TailedFile

    def poll(self):
        """Every record appended (to any watched file) since last poll."""
        out = []
        for record in self._journal.poll():
            out.append((SOURCE_JOURNAL, None, record))
        if self.with_shards:
            # re-listed every poll: shards appear as workers first report
            for path in list_shards(self.directory):
                tail = self._shards.get(path)
                if tail is None:
                    name = os.path.basename(path)[: -len(".jsonl")]
                    tail = self._shards[path] = TailedFile(
                        path, SOURCE_SHARD, shard=name
                    )
                for record in tail.poll():
                    out.append((SOURCE_SHARD, tail.shard, record))
        if self.with_ledger:
            for record in self._ledger.poll():
                out.append((SOURCE_LEDGER, None, record))
        return out

    @property
    def n_bad(self):
        """Corrupt (terminated but undecodable) lines seen across files."""
        return (
            self._journal.n_bad
            + self._ledger.n_bad
            + sum(t.n_bad for t in self._shards.values())
        )
