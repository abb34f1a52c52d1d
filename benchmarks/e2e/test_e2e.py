"""Self-test of the end-to-end benchmark, in its few-second ``--quick`` mode.

    PYTHONPATH=src python -m pytest benchmarks/e2e

Outside tier 1 (``testpaths = ["tests"]``): it takes about half a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)


def bench(*args, cwd=None, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--quick", *args], cwd=cwd or run.ROOT,
        capture_output=True, text=True, timeout=600,
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.fixture(scope="module")
def everything():
    return bench()


def test_every_metric_prints_with_its_unit(everything):
    proc, lines = everything
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(lines[-1])["metrics"]
    for workload in run.WORKLOADS:
        for metric in CONTRACT["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            pattern = (rf"^{workload} {name} \S+ {re.escape(unit)} "
                       r"\(n=\d+, IQR \S+\)$")
            assert any(re.match(pattern, line) for line in lines), name
            entry = metrics[f"{workload}.{name}"]
            assert entry["unit"] == unit and entry["value"] > 0


def test_cross_checks_pass(everything):
    proc, lines = everything
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert not [line for line in lines if " ERROR " in line]


def test_flipped_report_byte_is_caught(monkeypatch, capsys):
    def flipping(name, args, work, extra, deadline):
        if "--setup-only" not in extra:
            extra = extra + ["--flip", "report.json"]
        return real(name, args, work, extra, deadline)

    real = run.child
    monkeypatch.setattr(run, "child", flipping)
    assert run.main(["--quick", "--workload", "campaign_kernel"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert "campaign_kernel error_rate 1 fraction (n=32, failed 32)" in lines
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] == 32


def test_quick_trace_covers_the_kernel_campaign():
    proc, lines = bench("--trace", "--workload", "campaign_kernel")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(lines[-1])["metrics"]
    assert {m["name"] for m in CONTRACT["per_layer"]} == set(metrics)
    for metric in CONTRACT["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    assert metrics["trace.coverage"]["value"] >= 0.95
    assert metrics["snapshot.batch.vector_lane_ratio"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc, lines = bench(
        cwd=tmp_path, script=str(tmp_path / "benchmarks" / "e2e" / "run.py"))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
