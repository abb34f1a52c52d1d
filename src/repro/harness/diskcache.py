"""Versioned on-disk blob store shared by the result and snapshot caches.

Both caches follow the same contract — content-addressed files under a
``model_version`` directory, atomic unique-tmp stores, rename-aside
pruning of stale versions — so the mechanics live here once.
:class:`~repro.harness.parallel.ResultCache` layers pickle-with-corrupt-
handling of :class:`~repro.harness.runner.SimResult` objects on top;
:class:`~repro.snapshot.cache.SnapshotCache` stores raw warmed-core
blobs. Layout::

    <root>/<model_version>/<key><suffix>

where ``model_version`` is the source digest of
:func:`~repro.harness.parallel.model_version`: any change to the
simulator retires every entry of both caches wholesale. The first store
a process constructs on a root prunes that root's stale version
directories.
"""

import os
import re

#: a version directory's name: 16 hex digits of the source digest
_VERSION_NAME = re.compile(r"[0-9a-f]{16}")

#: roots this process has pruned (once each, at the first construction)
_PRUNED = set()


class BlobStore:
    """Content-addressed files under a version directory, written atomically.

    Subclasses set ``suffix`` so different entry kinds can share one root
    (and one version directory) without key collisions. All operations
    are best-effort with respect to the filesystem: a concurrent prune,
    a full disk, or a vanished directory costs a miss or a dropped
    store, never an exception to the caller.
    """

    suffix = ".blob"

    def __init__(self, root, version):
        self.root = str(root)
        self.version = version
        if os.path.abspath(self.root) not in _PRUNED:
            _PRUNED.add(os.path.abspath(self.root))
            self.prune_stale()

    def path_for(self, key):
        """On-disk path of ``key``'s entry for the current model version."""
        return os.path.join(self.root, self.version, key + self.suffix)

    def read_bytes(self, key):
        """The stored payload for ``key``, or ``None`` when absent."""
        try:
            with open(self.path_for(key), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    _tmp_counter = 0

    def write_bytes(self, key, payload):
        """Persist ``payload`` under ``key``'s content address.

        Write-then-atomic-rename, with a per-(process, call) unique temp
        name, so concurrent processes sharing the store can never observe
        (or clobber each other with) a half-written entry. If another
        process prunes the version directory between our ``makedirs`` and
        ``replace`` (a ``FileNotFoundError``), the write is retried once
        into a recreated directory.
        """
        path = self.path_for(key)
        for attempt in (0, 1):
            BlobStore._tmp_counter += 1
            tmp = "%s.tmp.%d.%d" % (path, os.getpid(), BlobStore._tmp_counter)
            try:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(tmp, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, path)  # atomic: concurrent writers both win
                return
            except FileNotFoundError:
                # version dir vanished under us (concurrent prune_stale)
                if attempt == 0:
                    continue
                return
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                return

    def remove(self, key):
        """Unlink ``key``'s entry (corrupt-entry eviction); never raises."""
        try:
            os.unlink(self.path_for(key))
        except OSError:
            pass

    def prune_stale(self):
        """Delete entry directories from older model versions.

        Only directories named like a version (16 hex digits) are stale,
        so a root shared with other files loses nothing else. Safe under
        concurrent processes: each stale version directory is first
        renamed aside (atomic, so a concurrent writer either lands
        its entry before the rename — and it is deleted with the rest —
        or recreates the directory afresh via :meth:`write_bytes`'s
        retry), then removed; directories that vanish mid-prune (another
        process pruning the same root) are skipped silently.
        """
        try:
            versions = os.listdir(self.root)
        except OSError:
            return
        import shutil

        for version in versions:
            if version == self.version or not _VERSION_NAME.fullmatch(
                version
            ):
                continue
            path = os.path.join(self.root, version)
            if not os.path.isdir(path):
                continue
            trash = os.path.join(
                self.root, ".trash-%s-%d" % (version, os.getpid())
            )
            try:
                os.rename(path, trash)
            except OSError:  # already pruned/renamed by a peer
                continue
            shutil.rmtree(trash, ignore_errors=True)
        # sweep trash left behind by peers killed mid-prune
        try:
            leftovers = os.listdir(self.root)
        except OSError:
            return
        for name in leftovers:
            if name.startswith(".trash-"):
                shutil.rmtree(
                    os.path.join(self.root, name), ignore_errors=True
                )
