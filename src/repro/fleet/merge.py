"""Canonical merge of a fleet directory's journals.

A fleet directory keeps one JSONL journal per worker under ``shards/``
(entries appended by the coordinator as they stream in, in arrival
order) plus ``shards/_coordinator.jsonl`` for point-completion and
``done`` events; a fleet that resumes a single-pool campaign also finds
that campaign's ``journal.jsonl``. :func:`merge_journals` (defined in
:mod:`repro.campaign.journal` and re-exported here) folds all of them
through :func:`~repro.campaign.journal.fold_directory` — the canonical
journal first, then the shards — and writes the state back as the
canonical ``journal.jsonl``: byte-identical to the journal a
single-pool ``campaign run`` of the same spec writes. Both drivers end
every campaign with it, so a pool that adopted shard draws finishes
with the same file.

Deduplication is the fold's exactly-once rule: draws are keyed by
``(point, index)`` and every execution of a draw is bit-identical (the
seed stream is hash-derived from the campaign's master seed), so when
lease reassignment makes two workers run the same draw, dropping either
copy is safe.
"""

from repro.campaign.journal import (
    fold_files,
    list_shards,
    merge_journals,
    shard_dir,
    shard_path,
)

__all__ = [
    "list_shards",
    "merge_journals",
    "replay_shards",
    "shard_dir",
    "shard_path",
]


def replay_shards(directory, base=None):
    """Fold every shard journal, in :func:`list_shards` order.

    Folds onto ``base`` (a :class:`~repro.campaign.journal.JournalState`
    whose records win the dedup) or a fresh state, and returns it.
    """
    return fold_files(list_shards(directory), base)
