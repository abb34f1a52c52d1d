"""Crash-safe campaign state: manifest, append-only JSONL journals, one fold.

A campaign directory holds::

    <dir>/manifest.json    # the CampaignSpec + model version (written once)
    <dir>/journal.jsonl    # append-only event log, one JSON object per line
    <dir>/shards/*.jsonl   # fleet only: one journal per worker + _coordinator
    <dir>/report.json      # aggregate report (rewritten on completion)
    <dir>/report.md        # human-readable rendering of the same

The journals are the single source of truth for progress. Every
completed seed draw appends a ``run`` event carrying its extracted
metrics, every finished grid point appends a ``point`` event with the
stopping summary, and campaign completion appends ``done``. Appends are
flushed and fsynced line-by-line, so a kill can lose at most the line
being written.

:meth:`JournalState.fold` is the only code that decides what a record
does to campaign state: a draw counts once per ``(point, index)`` and
runs stay in index order, a point's first ``point`` event wins, ``done``
is a latch, and an undecodable line (a torn tail) is counted and
otherwise ignored. Re-executed draws are bit-identical, so the folded
state does not depend on how records are split across files, ordered,
or repeated. Every reader goes through it: :func:`fold_directory`
folds ``journal.jsonl`` and then every shard journal (resume, status,
report and merge, for a pool and a fleet alike); :meth:`Journal.replay`
folds one file; the dashboard folds records as it tails them.
:func:`decode_lines` is the one line decoder they all share, and
:func:`merge_journals` writes a folded directory back as the canonical
``journal.jsonl`` every finished campaign ends with.
"""

import bisect
import json
import os
import sys

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
SHARD_DIR = "shards"
COORDINATOR_SHARD = "_coordinator"

#: manifest/journal format version; bump on incompatible layout changes.
FORMAT = 1


def run_event(point_id, index, seed, values, counts, telemetry=None,
              snapshot=None):
    """The journal ``run`` event of one completed seed draw.

    Single source of truth for the event shape: the single-pool executor
    journals these directly and fleet workers stream the *same* dicts
    over the wire, so a merged fleet journal is byte-identical to a
    single-pool one (both serialize with ``json.dumps(sort_keys=True)``).
    """
    event = {
        "event": "run", "point": point_id, "index": index,
        "seed": seed, "metrics": values, "counts": counts,
    }
    if telemetry is not None:
        event["telemetry"] = telemetry
    if snapshot is not None:
        event["snapshot"] = snapshot
    return event


def point_event(point_id, n, stopped, summary, failure=None):
    """The journal ``point`` completion event of one grid point."""
    event = {
        "event": "point", "point": point_id, "n": n,
        "stopped": stopped, "summary": summary,
    }
    if failure is not None:
        event["failure"] = failure
    return event


def write_manifest(directory, spec, extra=None):
    """Create ``<directory>/manifest.json`` for ``spec`` (atomically).

    Refuses to overwrite a manifest describing a *different* spec —
    a campaign directory is single-use by design.
    """
    from repro.harness.parallel import model_version

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, MANIFEST_NAME)
    manifest = {
        "format": FORMAT,
        "model_version": model_version(),
        "spec": spec.to_dict(),
    }
    if extra:
        manifest.update(extra)
    if os.path.exists(path):
        existing = read_manifest(directory)
        if existing.get("spec") != manifest["spec"]:
            raise ValueError(
                f"{path} already describes a different campaign; "
                "use a fresh directory"
            )
        return existing
    tmp = path + ".tmp.%d" % os.getpid()
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return manifest


def read_manifest(directory):
    """Load ``<directory>/manifest.json`` (FileNotFoundError if absent)."""
    with open(os.path.join(directory, MANIFEST_NAME)) as fh:
        return json.load(fh)


def shard_dir(directory):
    return os.path.join(str(directory), SHARD_DIR)


def shard_path(directory, name):
    return os.path.join(shard_dir(directory), f"{name}.jsonl")


def list_shards(directory):
    """Paths of every shard journal, coordinator shard first."""
    root = shard_dir(directory)
    try:
        names = sorted(os.listdir(root))
    except FileNotFoundError:
        return []
    paths = [
        os.path.join(root, name) for name in names
        if name.endswith(".jsonl")
    ]
    first = shard_path(directory, COORDINATOR_SHARD)
    return [p for p in paths if p == first] + [
        p for p in paths if p != first
    ]


def decode_lines(lines):
    """Decode JSONL ``lines``: one item per non-blank line.

    Yields the line's JSON object, or ``None`` when the line holds none
    — a torn tail from a kill mid-append, or corruption.
    """
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:  # JSONDecodeError, UnicodeDecodeError
            record = None
        yield record if isinstance(record, dict) else None


class JournalState:
    """Campaign progress folded from journal records."""

    def __init__(self):
        #: point id -> its ``run`` records, in draw-index order
        self.runs = {}
        #: point id -> its first ``point`` completion event
        self.completed = {}
        self.done = False
        #: records that changed the state / undecodable lines
        self.n_events = 0
        self.n_torn = 0
        self._indices = {}  # point id -> sorted draw indices of runs

    @property
    def total_runs(self):
        """Seed draws recorded across all points."""
        return sum(len(records) for records in self.runs.values())

    def fold(self, record):
        """Apply one :func:`decode_lines` item; True if the state changed.

        A repeated ``(point, index)`` draw, a second ``point`` event for
        a point, a second ``done`` and an unknown event are no-ops, so
        folding is idempotent; ``None`` (an undecodable line) only
        counts in ``n_torn``.
        """
        if record is None:
            self.n_torn += 1
            return False
        kind = record.get("event")
        point_id = record.get("point")
        if kind == "run":
            index = record["index"]
            indices = self._indices.setdefault(point_id, [])
            at = bisect.bisect_left(indices, index)
            if at < len(indices) and indices[at] == index:
                return False
            indices.insert(at, index)
            self.runs.setdefault(point_id, []).insert(at, record)
        elif kind == "point":
            if point_id in self.completed:
                return False
            self.completed[point_id] = record
        elif kind == "done":
            if self.done:
                return False
            self.done = True
        else:
            return False
        self.n_events += 1
        return True


def fold_files(paths, state=None):
    """Fold every line of the JSONL files at ``paths``, in order.

    ``state`` is any reducer with a ``fold(record)`` method (a fresh
    :class:`JournalState` by default) and is returned. A missing file
    folds as empty.
    """
    state = JournalState() if state is None else state
    for path in paths:
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            continue
        with fh:
            for record in decode_lines(fh):
                state.fold(record)
    return state


def fold_directory(directory):
    """Fold a campaign directory: ``journal.jsonl``, then every shard."""
    return fold_files(
        [os.path.join(str(directory), JOURNAL_NAME)]
        + list_shards(directory)
    )


def merge_journals(directory, state=None):
    """Write the canonical ``journal.jsonl`` of a campaign directory.

    ``state`` defaults to :func:`fold_directory` of ``directory``; it is
    returned. Each point's ``run`` events in index order, then its
    ``point`` event, points in grid order, ``done`` last: what an
    uninterrupted single-pool run appends, so re-merging is idempotent.
    The write is atomic (temp + rename).
    """
    from repro.campaign.plan import CampaignSpec

    directory = str(directory)
    spec = CampaignSpec.from_dict(read_manifest(directory)["spec"])
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


class Journal:
    """Append-only JSONL event log of one campaign directory.

    ``name`` overrides the journal filename — fleet coordinators keep one
    journal per shard (``shards/<worker>.jsonl``) with the same mechanics.
    """

    def __init__(self, directory, name=JOURNAL_NAME):
        self.directory = str(directory)
        self.path = os.path.join(self.directory, name)
        self._fh = None

    def append(self, event):
        """Append one event (a JSON-safe dict) durably."""
        if self._fh is None:
            os.makedirs(self.directory, exist_ok=True)
            self._fh = open(self.path, "a")
        self._fh.write(json.dumps(event, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def repair(self):
        """Truncate a torn trailing record (a crash mid-append) in place.

        A kill during :meth:`append` can leave a partial final line with
        no newline. :meth:`replay` already tolerates it, but *appending*
        after one would concatenate the next event onto the torn bytes,
        silently losing that event on the next replay. Resume paths call
        this first: a complete-but-unterminated final record gets its
        newline (it parsed, so it is safe to keep); an undecodable tail
        is logged and truncated — the draw it described re-executes
        deterministically from its journaled-elsewhere seed stream.

        Returns the number of bytes dropped (0 when the tail is clean).
        """
        try:
            fh = open(self.path, "rb+")
        except FileNotFoundError:
            return 0
        with fh:
            data = fh.read()
            if not data or data.endswith(b"\n"):
                return 0
            cut = data.rfind(b"\n") + 1  # 0 when the whole file is one tail
            tail = data[cut:]
            if next(decode_lines([tail]), None) is None:
                fh.truncate(cut)
                print(
                    f"[journal] truncated torn trailing record "
                    f"({len(tail)} bytes) in {self.path}",
                    file=sys.stderr,
                )
                return len(tail)
            # the record survived the crash intact — just never got its
            # line terminator; complete it rather than re-executing
            fh.write(b"\n")
            return 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def replay(self):
        """Fold this journal file into a :class:`JournalState`.

        A torn tail from a kill mid-append counts in ``n_torn`` and is
        otherwise ignored — the run it described simply re-executes,
        served from the result cache if one is shared with the killed
        process.
        """
        return fold_files([self.path])
