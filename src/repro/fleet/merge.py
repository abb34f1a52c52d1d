"""Canonical merge of a fleet directory's journals.

A fleet directory keeps one JSONL journal per worker under ``shards/``
(entries appended by the coordinator as they stream in, in arrival
order) plus ``shards/_coordinator.jsonl`` for point-completion and
``done`` events; a fleet that resumes a single-pool campaign also finds
that campaign's ``journal.jsonl``. :func:`merge_journals` folds all of
them through :func:`~repro.campaign.journal.fold_directory` — the
canonical journal first, then the shards — and writes the state back
as the canonical ``journal.jsonl``: every point's ``run`` events in
index order followed by its ``point`` event, points in grid order,
``done`` last. That is byte-identical to the journal a single-pool
``campaign run`` of the same spec writes, and since the merged journal
is itself folded first, re-merging is idempotent.

Deduplication is the fold's exactly-once rule: draws are keyed by
``(point, index)`` and every execution of a draw is bit-identical (the
seed stream is hash-derived from the campaign's master seed), so when
lease reassignment makes two workers run the same draw, dropping either
copy is safe.
"""

import json
import os

from repro.campaign.journal import (
    JOURNAL_NAME,
    fold_directory,
    fold_files,
    list_shards,
    read_manifest,
    shard_dir,
    shard_path,
)
from repro.campaign.plan import CampaignSpec

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


def merge_journals(directory, state=None):
    """Write the canonical ``journal.jsonl`` of a fleet directory.

    ``state`` defaults to :func:`~repro.campaign.journal.fold_directory`
    of ``directory``; it is returned. The write is atomic (temp +
    rename), so a crash mid-merge never corrupts an existing merged
    journal.
    """
    directory = str(directory)
    manifest = read_manifest(directory)
    spec = CampaignSpec.from_dict(manifest["spec"])
    if state is None:
        state = fold_directory(directory)
    path = os.path.join(directory, JOURNAL_NAME)
    tmp = path + ".tmp.%d" % os.getpid()
    with open(tmp, "w") as fh:
        for point in spec.points():
            for record in state.runs.get(point.id, []):
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            completion = state.completed.get(point.id)
            if completion is not None:
                fh.write(json.dumps(completion, sort_keys=True) + "\n")
        if state.done:
            fh.write(json.dumps({"event": "done"}, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return state
