"""Content-addressed on-disk store of warmed-core snapshots.

Shares the result cache's :class:`~repro.harness.diskcache.BlobStore`
mechanics — and, when the campaign opener points it there, the same root
and the same ``model_version`` directory — so one ``prune_stale`` sweep
retires both entry kinds together and a source change can never pair a
stale snapshot with fresh results. Entries are ``<warmup_key>.snap`` next
to the result cache's ``<spec_key>.pkl``. Where the store lives is decided
by :func:`repro.campaign.executor.open_campaign` alone; every caller here
names its root.

A small in-process memory layer fronts the disk: a batch forking many
draws from one prefix pays the file read once per process, not once per
draw.
"""

from repro.harness.diskcache import BlobStore

#: in-process blob layer, shared across SnapshotCache instances (they are
#: constructed per call site): (root, version, key) -> bytes. Bounded by
#: wholesale clearing, like the program/build caches — a batch touches a
#: handful of prefixes, so eviction order is irrelevant.
_MEM_LIMIT = 32
_MEM = {}


class SnapshotCache(BlobStore):
    """Warmed-core snapshots keyed by ``RunSpec.warmup_key()``."""

    suffix = ".snap"

    def __init__(self, root, version=None):
        from repro.harness.parallel import model_version

        super().__init__(root, version or model_version())

    def _mem_key(self, key):
        return (self.root, self.version, key)

    def has(self, key):
        """True when a snapshot for ``key`` is available without warming."""
        if self._mem_key(key) in _MEM:
            return True
        import os

        return os.path.exists(self.path_for(key))

    def get_blob(self, key):
        """The snapshot bytes for ``key``, or ``None`` on a miss."""
        blob = _MEM.get(self._mem_key(key))
        if blob is not None:
            return blob
        blob = self.read_bytes(key)
        if blob is not None:
            if len(_MEM) >= _MEM_LIMIT:
                _MEM.clear()
            _MEM[self._mem_key(key)] = blob
        return blob

    def put_blob(self, key, blob):
        """Store snapshot bytes under ``key`` (atomic, best-effort)."""
        if len(_MEM) >= _MEM_LIMIT:
            _MEM.clear()
        _MEM[self._mem_key(key)] = blob
        self.write_bytes(key, blob)

    def invalidate(self, key):
        """Drop ``key`` everywhere (corrupt-blob eviction)."""
        _MEM.pop(self._mem_key(key), None)
        self.remove(key)
