"""``benchmarks/ab.py``: the A/B verdicts over stub trees.

Each stub tree holds a ``benchmarks/e2e/run.py`` that prints a canned
summary whose ``wall_s`` depends on the seed and on the tree's factor,
so the comparison runs exactly as it does over two exported commits.
"""

import importlib.util
import json
import pathlib

import pytest

_AB = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "ab.py"

_STUB = """\
import argparse, json
p = argparse.ArgumentParser()
p.add_argument("--workload")
p.add_argument("--seed", type=int)
p.add_argument("--seconds", type=float)
a = p.parse_args()
wall = (10.0 + a.seed % 3) * {factor}
print("noise line")
print(json.dumps({{"correct": {correct}, "attempted": 4, "failed": 0,
                  "metrics": {{
    "wall_s": {{"value": wall, "unit": "s"}},
    "results_per_s": {{"value": 100.0 / wall, "unit": "1/s"}},
    "peak_rss_mb": {{"value": 50.0, "unit": "MiB"}},
    "setup_s": {{"value": 0.5, "unit": "s"}}}}}}))
"""


def _load():
    spec = importlib.util.spec_from_file_location("ab", _AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def ab():
    return _load()


@pytest.fixture(scope="module")
def metrics():
    with open(_AB.parents[1] / "BENCHMARK.json") as fh:
        return json.load(fh)["end_to_end"]


def _tree(root, name, factor=1.0, correct=True):
    run = root / name / "benchmarks" / "e2e" / "run.py"
    run.parent.mkdir(parents=True)
    run.write_text(_STUB.format(factor=factor, correct=correct))
    return str(root / name)


def _compare(ab, metrics, trees, pairs):
    (result,) = ab.compare(trees, ["stub"], pairs, 1, 1, metrics,
                           log=lambda line: None).values()
    return result


def test_identical_trees_claim_nothing(ab, metrics, tmp_path):
    trees = {side: _tree(tmp_path, side) for side in ("parent", "change")}
    result = _compare(ab, metrics, trees, 10)
    assert result["failed_legs"] == []
    assert sorted(result["metrics"]) == sorted(m["name"] for m in metrics)
    for row in result["metrics"].values():
        assert row["verdict"] == "none"
        assert row["change_wins"] == 0
        assert row["parent"] == row["change"]


def test_a_twice_slower_change_is_a_regression(ab, metrics, tmp_path):
    trees = {"parent": _tree(tmp_path, "parent"),
             "change": _tree(tmp_path, "change", factor=2.0)}
    rows = _compare(ab, metrics, trees, 4)["metrics"]
    assert rows["wall_s"]["verdict"] == "regression"
    assert rows["wall_s"]["ratio"] == 2.0
    assert rows["results_per_s"]["verdict"] == "regression"
    assert rows["peak_rss_mb"]["verdict"] == "none"


def test_a_gain_needs_nine_wins_in_ten(ab, metrics, tmp_path):
    trees = {"parent": _tree(tmp_path, "parent"),
             "change": _tree(tmp_path, "change", factor=0.5)}
    rows = _compare(ab, metrics, trees, 10)["metrics"]
    assert rows["wall_s"]["verdict"] == "gain"
    assert rows["wall_s"]["change_wins"] == 10
    # eight wins in ten, far past the spread: no claim
    parent = [10.0] * 10
    change = [5.0] * 8 + [11.0, 11.0]
    assert ab.verdict(parent, change, "lower", 0.25)["verdict"] == "none"
    # ten wins, inside the parent's spread: no claim either
    parent = [10.0, 12.0] * 5
    change = [9.9, 11.9] * 5
    assert ab.verdict(parent, change, "lower", 0.25)["verdict"] == "none"


def test_a_spread_wider_than_the_bound_is_unresolved(ab):
    # the parent's quartile distance (4) is a third of its median (12)
    parent = [10.0, 14.0] * 5
    for change in ([13.0, 18.0] * 5, parent, [20.0, 21.0] * 5):
        assert ab.verdict(parent, change, "lower",
                          0.25)["verdict"] == "unresolved"
    # unless every run of the change beats every run of the parent
    assert ab.verdict(parent, [5.0, 6.0] * 5, "lower",
                      0.25)["verdict"] == "gain"


def test_an_incorrect_leg_is_reported(ab, metrics, tmp_path):
    trees = {"parent": _tree(tmp_path, "parent"),
             "change": _tree(tmp_path, "change", correct=False)}
    result = _compare(ab, metrics, trees, 2)
    assert [leg["side"] for leg in result["failed_legs"]] == ["change"] * 2
