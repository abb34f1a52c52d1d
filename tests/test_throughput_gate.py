"""``benchmarks/smoke/throughput_gate.py``: the gate's decision.

The decision is checked on canned rates, as ``tests/test_ab.py`` checks
``ab.py``'s verdicts; one real leg checks the measuring subprocess.
"""

import importlib.util
import itertools
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_GATE = ROOT / "benchmarks" / "smoke" / "throughput_gate.py"


@pytest.fixture(scope="module")
def gate():
    path = list(sys.path)  # the gate puts benchmarks/ on it to import ab
    spec = importlib.util.spec_from_file_location("throughput_gate", _GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.path[:] = path


def _canned(rates):
    """A leg over ``{side: [inst/s, ...]}`` and the sides it ran, in order."""
    streams = {side: itertools.cycle(values) for side, values in rates.items()}
    ran = []

    def leg(side):
        ran.append(side)
        return next(streams[side])

    return leg, ran


def _decide(gate, rates, pairs=10):
    leg, ran = _canned(rates)
    row = gate.compare({"base": "base", "change": "change"}, pairs, leg,
                       log=lambda line: None)
    return row, ran


#: ten best-of-seven rates of one tree, 2.1% quartile distance
RATES = [34000, 34600, 33800, 35100, 34300, 33900, 34800, 34200, 35000,
         34400]


def test_identical_rates_pass(gate):
    row, _ = _decide(gate, {"base": RATES, "change": RATES})
    assert row["verdict"] == "none" and gate.passes(row)
    assert row["ratio"] == 1.0


def test_rates_ten_percent_lower_fail(gate):
    slower = [0.9 * rate for rate in RATES]
    row, _ = _decide(gate, {"base": RATES, "change": slower})
    assert row["verdict"] == "regression" and not gate.passes(row)
    assert row["ratio"] == pytest.approx(0.9)


def test_a_spread_wider_than_the_bound_fails_only_a_clear_loss(gate):
    noisy = [30000, 36000] * 5   # quartile distance 18% of the median
    row, _ = _decide(gate, {"base": noisy, "change": noisy})
    assert row["verdict"] == "unresolved" and gate.passes(row)
    # slower in every pair, and in nine of ten: fail
    for lost in (10, 9):
        change = [0.9 * r for r in noisy[:lost]] + noisy[lost:]
        row, _ = _decide(gate, {"base": noisy, "change": change})
        assert row["verdict"] == "unresolved" and not gate.passes(row)
    # slower in eight pairs of ten: the noise may have done it
    change = [0.9 * r for r in noisy[:8]] + [1.1 * r for r in noisy[8:]]
    row, _ = _decide(gate, {"base": noisy, "change": change})
    assert row["verdict"] == "unresolved" and gate.passes(row)


def test_the_leg_order_alternates(gate):
    _, ran = _decide(gate, {"base": RATES, "change": RATES}, pairs=4)
    assert ran == ["base", "change", "change", "base"] * 2


def test_a_leg_measures_the_named_tree(gate):
    rate = gate.measure_leg(str(ROOT))
    assert rate > 0
    # no src there: the import fails, or finds an installed repro
    with pytest.raises((subprocess.CalledProcessError, RuntimeError)):
        gate.measure_leg(str(ROOT / "benchmarks"))
