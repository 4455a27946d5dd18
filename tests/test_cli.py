"""Tests for the experiment CLI."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


def assert_prints(out, *names):
    """``out`` holds each named ``benchmarks/results`` file verbatim: the
    command and the benchmark that wrote the file share one definition
    (``repro.experiments``), default seed and parameters included."""
    for name in names:
        assert (RESULTS / f"{name}.txt").read_text() in out, name


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig1", "fig6", "fig8", "fig9", "tab4", "sweep"):
        assert name in out


def test_fig1_command(capsys):
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    assert "rdma" in out
    assert "everything-on-cpu" in out
    assert_prints(out, "fig1_hostmodel")


def test_fig1_custom_host(capsys):
    assert main(["fig1", "--gbps", "5", "--cpu-ghz", "10"]) == 0
    assert "CPU load at 5 Gb/s" in capsys.readouterr().out


def test_sweep_command_small(capsys):
    assert main(["sweep", "--sizes", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "cycle(ms)" in out
    assert "Figures 10" in out
    assert main(["sweep"]) == 0
    assert_prints(
        capsys.readouterr().out,
        "fig10_fig11_summary",
        *(f"fig10_latency_{n}nodes" for n in (3, 6, 9)),
        *(f"fig11_cycles_{n}nodes" for n in (3, 6, 9)),
    )


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_parser_defaults():
    args = build_parser().parse_args(["tab4"])
    assert args.nodes == [1, 2, 3, 4, 6, 8]
    assert args.size_scale == 200.0
    assert not args.full


def test_fig6_command_quick(capsys):
    assert main(["fig6", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "LoiT 0.1" in out and "LoiT 1.1" in out
    assert "finished" in out
    assert main(["fig6"]) == 0
    assert_prints(
        capsys.readouterr().out,
        "fig6a_throughput", "fig6b_lifetime",
        "fig7a_ring_load_bytes", "fig7b_ring_load_bats",
    )


def test_fig8_command_quick(capsys):
    assert main(["fig8", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "dh2" in out
    assert "LOIT adjustments" in out
    assert main(["fig8"]) == 0
    assert_prints(
        capsys.readouterr().out,
        "fig8a_ring_space_per_dh", "fig8b_queries_per_workload",
    )


def test_fig9_command_quick(capsys):
    assert main(["fig9", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "touches" in out and "loads" in out
    assert main(["fig9"]) == 0
    assert_prints(capsys.readouterr().out, "fig9a_touches_requests", "fig9b_loads")


def test_tab4_command_two_rings(capsys):
    assert main(["tab4", "--nodes", "1", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "MonetDB" in out
    assert "throughP/node" in out
    assert main(["tab4"]) == 0
    assert_prints(capsys.readouterr().out, "tab4_tpch")


def test_shell_command_reads_stdin(monkeypatch, capsys):
    import io
    import sys as _sys

    monkeypatch.setattr(_sys, "stdin", io.StringIO("\\help\n\\quit\n"))
    assert main(["shell", "--nodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "\\load" in out


def test_chaos_command_quick(capsys):
    assert main(["chaos", "--seeds", "1", "--duration", "4"]) == 0
    out = capsys.readouterr().out
    assert "chaos scenario random-1 (seed 1)" in out
    assert "violations: 0" in out
    assert "fault: " in out and "crash" in out


def test_chaos_command_scenario_file(tmp_path, capsys):
    import json

    spec = {
        "name": "from-file",
        "events": [
            {"kind": "crash", "at": 1.0, "node": 2},
            {"kind": "rejoin", "at": 2.0, "node": 2},
        ],
    }
    path = tmp_path / "faults.json"
    path.write_text(json.dumps(spec))
    assert main(["chaos", "--seeds", "0", "--duration", "4",
                 "--scenario", str(path)]) == 0
    out = capsys.readouterr().out
    assert "chaos scenario from-file" in out
    assert "crash node=2" in out


def test_chaos_command_listed(capsys):
    assert main(["list"]) == 0
    assert "chaos" in capsys.readouterr().out


def test_scenarios_command_prints_every_on_off_pair(tmp_path, capsys):
    """Each numeric ``<key>_on`` / ``<key>_off`` pair a twin scenario
    reports is printed on the scenario's line, with both values."""
    import json

    out = tmp_path / "report.json"
    assert main(["scenarios", "--all", "--seeds", "0", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    twins = 0
    for name, (run,) in json.loads(out.read_text())["scenarios"].items():
        extras = run["extras"]
        pairs = [
            (key[:-4], extras[key[:-4] + "_on"], value)
            for key, value in extras.items()
            if key.endswith("_off") and key[:-4] + "_on" in extras
            and isinstance(value, (int, float))
        ]
        if not pairs:
            continue
        twins += 1
        (line,) = [x for x in lines if x.startswith(f"  {name} seed 0: ")]
        for stem, on, off in pairs:
            assert f"{stem} {on} on vs {off} off" in line, (name, stem)
    # gateway-chaos, frontdoor, mixed-engine-overload, overload, split-under-load
    assert twins == 5


def test_scenarios_command_writes_a_report_only_when_asked(
    tmp_path, monkeypatch, capsys
):
    import json

    from repro.metrics.slo import validate_verdict

    monkeypatch.chdir(tmp_path)
    assert main(["scenarios", "diurnal"]) == 0
    assert "written:" not in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []

    out = tmp_path / "report.json"
    assert main(["scenarios", "diurnal", "--seeds", "0", "1",
                 "--out", str(out)]) == 0
    assert list(tmp_path.iterdir()) == [out]
    payload = json.loads(out.read_text())
    assert payload["quick"] and payload["seeds"] == [0, 1]
    runs = payload["scenarios"]["diurnal"]
    assert [run["seed"] for run in runs] == [0, 1]
    for run in runs:
        validate_verdict(run["verdict"])
