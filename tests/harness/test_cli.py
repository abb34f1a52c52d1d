"""CLI entry point."""

import pytest

from repro.harness.cli import main


def test_table3_runs(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out
    assert "ALU" in out


def test_table2_runs(capsys):
    assert main(["table2"]) == 0
    assert "CDS" in capsys.readouterr().out


def test_scaled_down_figure(capsys):
    code = main([
        "fig4", "--instructions", "800", "--warmup", "400",
        "--benchmarks", "astar",
    ])
    assert code == 0
    assert "Figure 4" in capsys.readouterr().out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_run_subcommand(capsys):
    code = main([
        "run", "--benchmarks", "astar", "--scheme", "razor",
        "--vdd", "1.04", "--instructions", "600", "--warmup", "300",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "ipc" in out and "fault_rate" in out


def test_run_subcommand_with_trace(capsys):
    code = main([
        "run", "--benchmarks", "astar", "--instructions", "600",
        "--warmup", "300", "--trace", "6",
    ])
    assert code == 0
    assert "f=fetch" in capsys.readouterr().out


def test_run_subcommand_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main([
        "run", "--benchmarks", "astar", "--instructions", "600",
        "--warmup", "300", "--json", str(out),
    ])
    assert code == 0
    import json

    from repro.harness.export import sim_result_to_dict
    from repro.harness.runner import RunSpec, run_one

    written = json.loads(open(out).read())
    assert written["spec"]["benchmark"] == "astar"
    # the CLI's defaults are ABS at 0.97 V, seed 1
    expected = sim_result_to_dict(
        run_one(RunSpec("astar", "ABS", 0.97, 600, 300, 1))
    )
    assert written == json.loads(json.dumps(expected))


def test_help_lists_experiments(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "table1" in out and "fig7" in out
