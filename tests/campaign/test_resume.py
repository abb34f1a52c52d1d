"""Generated resume equivalence: a cut campaign resumes to the same bytes.

An uninterrupted two-point campaign is the reference. The first
property cuts its ``journal.jsonl`` after any line; the second keeps a
prefix of each point's draws in a fleet shard journal instead, with no
``journal.jsonl`` at all. Either way ``run_campaign(resume=True)`` must
end byte-identical to the reference and run exactly the draws that are
missing. The drawn specs put cuts inside batches, at batch boundaries,
after a point's stopping rule fired, and after ``done``.
"""

import json
import os
import shutil
import tempfile

from hypothesis import given, settings, strategies as st

from repro.campaign.executor import run_campaign
from repro.campaign.journal import JOURNAL_NAME, MANIFEST_NAME, shard_path
from repro.campaign.plan import CampaignSpec
from tests.campaign.test_executor import _FakeSim

TARGETS = (
    {},
    {"perf_overhead": 0.004},
    {"perf_overhead": 0.002},
    {"perf_overhead": 1e-9},  # unreachable: every point runs max_seeds
)


@st.composite
def _specs(draw):
    min_seeds = draw(st.integers(1, 6))
    return CampaignSpec(
        name="resume", benchmarks=["astar"], schemes=["EP", "ABS"],
        vdds=[0.97], n_instructions=2000, warmup=0,
        batch_size=draw(st.integers(1, 4)), min_seeds=min_seeds,
        max_seeds=draw(st.integers(min_seeds, min_seeds + 4)),
        targets=dict(draw(st.sampled_from(TARGETS))),
    )


def _run(directory, spec=None, resume=False):
    """Run with the fake simulator; the number of scheme draws it ran."""
    sim = _FakeSim()
    run_campaign(directory, spec=spec, resume=resume, run_fn=sim,
                 snapshots=False)
    return sim.pairs_run


def _read(directory, name):
    with open(os.path.join(directory, name), "rb") as fh:
        return fh.read()


def _fresh_copy(reference, directory):
    """``directory`` holding only ``reference``'s manifest."""
    os.makedirs(directory)
    shutil.copy(os.path.join(reference, MANIFEST_NAME), directory)


def _assert_same_outputs(directory, reference):
    for name in (JOURNAL_NAME, "report.json"):
        assert _read(directory, name) == _read(reference, name), name


@settings(max_examples=60, derandomize=True, deadline=None)
@given(spec=_specs(), data=st.data())
def test_resume_of_journal_cut_after_any_line(spec, data):
    with tempfile.TemporaryDirectory() as root:
        reference = os.path.join(root, "reference")
        total = _run(reference, spec)
        lines = _read(reference, JOURNAL_NAME).splitlines(True)
        keep = data.draw(st.integers(0, len(lines)), label="lines kept")
        cut = os.path.join(root, "cut")
        _fresh_copy(reference, cut)
        with open(os.path.join(cut, JOURNAL_NAME), "wb") as fh:
            fh.writelines(lines[:keep])
        kept = sum(json.loads(line)["event"] == "run" for line in lines[:keep])
        assert _run(cut, resume=True) == total - kept
        _assert_same_outputs(cut, reference)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(spec=_specs(), data=st.data())
def test_resume_adopts_shard_draws(spec, data):
    with tempfile.TemporaryDirectory() as root:
        reference = os.path.join(root, "reference")
        total = _run(reference, spec)
        runs = {}  # point id -> its run lines, in index order
        for line in _read(reference, JOURNAL_NAME).splitlines(True):
            record = json.loads(line)
            if record["event"] == "run":
                runs.setdefault(record["point"], []).append(line)
        shard = []
        for point_runs in runs.values():
            keep = data.draw(st.integers(0, len(point_runs)), label="kept")
            shard += point_runs[:keep]
        adopter = os.path.join(root, "adopter")
        _fresh_copy(reference, adopter)
        path = shard_path(adopter, "w0")
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as fh:
            fh.writelines(shard)
        assert _run(adopter, resume=True) == total - len(shard)
        _assert_same_outputs(adopter, reference)
