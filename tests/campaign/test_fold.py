"""One journal fold: every reader of a campaign directory agrees.

``JournalState.fold`` decides what each ``run``/``point``/``done``
record does; single-pool resume, ``campaign status``/``report``, the
fleet merge and resume, ``fleet status`` and the live dashboard view
all go through it. The property at the bottom scatters one campaign's
records across shard journals (and optionally ``journal.jsonl``) in any
order, with duplicates, feeds the view at random byte splits, and
checks every reader against the single-pool bytes.
"""

import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.campaign.journal import (
    JOURNAL_NAME,
    JournalState,
    decode_lines,
    point_event,
    shard_dir,
    write_manifest,
)
from repro.campaign.plan import CampaignSpec
from repro.campaign.report import build_report
from repro.campaign.stats import PointAccumulator
from repro.campaign.status import build_status
from repro.dashboard.view import CampaignView
from repro.fleet.ledger import LeaseLedger
from repro.fleet.merge import merge_journals

SCHEMES = ("EP", "ABS", "FFS")


def _spec(n_points=2):
    return CampaignSpec(
        name="fold", benchmarks=["astar"], schemes=list(SCHEMES[:n_points]),
        n_instructions=500, warmup=250, min_seeds=2, max_seeds=4,
        batch_size=2,
    )


def _run(point, index):
    return {
        "event": "run", "point": point, "index": index, "seed": 100 + index,
        "metrics": {"perf_overhead": 0.1 * (index + 1), "ipc": 1.0,
                    "ed_overhead": 0.2, "fault_rate": 0.01,
                    "replay_rate": 0.0},
        "counts": {"faults": index, "replays": 0, "committed": 500},
    }


def _point(spec, point, indices):
    acc = PointAccumulator(z=spec.z)
    for index in sorted(indices):
        record = _run(point, index)
        acc.push(record["metrics"], record["counts"])
    return point_event(point, acc.n, "ci", acc.summary() if acc.n else None)


def _line(record):
    return json.dumps(record, sort_keys=True) + "\n"


def _dump(payload):
    return json.dumps(payload, sort_keys=True)


class TestFoldRules:
    def test_draw_counts_once_per_point_and_index(self):
        state = JournalState()
        assert state.fold(_run("p", 0))
        assert not state.fold(_run("p", 0))
        assert state.fold(_run("q", 0))
        assert state.total_runs == 2 and state.n_events == 2

    def test_runs_kept_in_index_order(self):
        state = JournalState()
        for index in (2, 0, 3, 1):
            state.fold(_run("p", index))
        assert [r["index"] for r in state.runs["p"]] == [0, 1, 2, 3]

    def test_first_point_completion_wins(self):
        state = JournalState()
        first = {"event": "point", "point": "p", "n": 2, "stopped": "ci"}
        assert state.fold(first)
        assert not state.fold(dict(first, n=4))
        assert state.completed["p"]["n"] == 2

    def test_done_is_a_latch(self):
        state = JournalState()
        assert state.fold({"event": "done"})
        assert not state.fold({"event": "done"})
        assert state.done and state.n_events == 1

    def test_undecodable_and_unknown_records_change_nothing(self):
        state = JournalState()
        assert not state.fold(None)
        assert not state.fold({"event": "mystery"})
        assert state.n_torn == 1 and state.n_events == 0


class TestDecodeLines:
    def test_objects_decode_and_blank_lines_are_skipped(self):
        lines = [b'{"a": 1}\n', b"\n", b"  \n", b'{"a": 2}']
        assert list(decode_lines(lines)) == [{"a": 1}, {"a": 2}]

    def test_torn_corrupt_and_non_object_lines_yield_none(self):
        lines = [b'{"event": "ru', b"\xff\xfe", b"[1, 2]", b"7"]
        assert list(decode_lines(lines)) == [None] * 4


class TestLedgerFold:
    def test_ledger_replay_and_view_share_the_fold(self, tmp_path):
        write_manifest(tmp_path, _spec())
        ledger = LeaseLedger(tmp_path)
        ledger.granted(1, "p", [0, 1], "w0")
        ledger.granted(2, "p", [2], "w1")
        ledger.completed(1)
        ledger.audited({"steals": 1})
        ledger.close()
        with open(ledger.path, "a") as fh:
            fh.write('{"event": "revoke", "lea')  # torn tail
        replayed = LeaseLedger(tmp_path).replay()
        view = CampaignView(tmp_path)
        view.refresh()
        fleet = view.fleet_status()
        assert replayed["max_lease"] == 2
        assert list(replayed["open"].values()) == fleet["open_leases"]
        assert replayed["audit"] == fleet["audit"] == {"steals": 1}


@st.composite
def _scattered(draw):
    """A campaign's records scattered over journal files, torn at will.

    Returns ``(spec, canonical, chunks, schedule)``: the single-pool
    journal text, each file's bytes cut into chunks, and the order in
    which the chunks are appended (per-file order kept).
    """
    spec = _spec(draw(st.integers(2, 3)))
    canonical = []
    for point in spec.points():
        indices = sorted(draw(st.sets(st.integers(0, 4), max_size=4)))
        canonical += [_run(point.id, i) for i in indices]
        if draw(st.booleans()):
            canonical.append(_point(spec, point.id, indices))
    completed = sum(r["event"] == "point" for r in canonical)
    if completed == len(spec.points()) and draw(st.booleans()):
        canonical.append({"event": "done"})

    shards = draw(st.lists(
        st.sampled_from(["_coordinator", "w0", "w1", "A9"]),
        min_size=1, max_size=3, unique=True,
    ))
    names = [os.path.join("shards", f"{s}.jsonl") for s in shards]
    if draw(st.booleans()):
        names.append(JOURNAL_NAME)
    files = {name: [] for name in names}
    for record in canonical:
        for name in draw(st.lists(st.sampled_from(names), min_size=1,
                                  max_size=3)):
            files[name].append(record)
    chunks = {}
    for name, records in files.items():
        data = "".join(_line(r) for r in draw(st.permutations(records)))
        data = data.encode()
        cuts = sorted(draw(st.sets(
            st.integers(1, max(1, len(data) - 1)), max_size=3,
        )))
        bounds = [0] + [c for c in cuts if c < len(data)] + [len(data)]
        chunks[name] = [
            data[a:b] for a, b in zip(bounds, bounds[1:]) if b > a
        ]
    pending = [name for name in names for _ in chunks[name]]
    schedule = draw(st.permutations(pending))
    return spec, "".join(_line(r) for r in canonical), chunks, schedule


@settings(max_examples=50, deadline=None)
@given(case=_scattered())
def test_any_scatter_folds_to_the_single_pool_journal(case):
    """Order, duplication and byte splits never change what is folded."""
    spec, canonical, chunks, schedule = case
    with tempfile.TemporaryDirectory() as directory:
        write_manifest(directory, spec)
        os.makedirs(shard_dir(directory))
        view = CampaignView(directory)
        for name in schedule:
            with open(os.path.join(directory, name), "ab") as fh:
                fh.write(chunks[name].pop(0))
            view.refresh()
        status = _dump(build_status(directory))
        report = _dump(build_report(directory))
        assert _dump(view.status()) == status
        assert _dump(view.report()) == report
        merge_journals(directory)
        with open(os.path.join(directory, JOURNAL_NAME)) as fh:
            assert fh.read() == canonical
        # the merge rotates journal.jsonl under the view: no double count
        view.refresh()
        assert _dump(view.status()) == status == _dump(
            build_status(directory)
        )
        assert _dump(view.report()) == report
