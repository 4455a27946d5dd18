"""Self-tests of the benchmark (``python -m pytest bench -q``).

Not part of tier-1 (``testpaths = ["tests"]``): the smoke run below
takes the better part of a minute.  pytest puts this directory on
``sys.path``; importing ``workloads`` adds the checkout's ``src``.
"""

from __future__ import annotations

import cProfile
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import layers
import workloads
from repro.dbms import Database

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=600,
    )


def last_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload and microbench once, at 1/10 horizon, traced."""
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = run("--smoke", "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc, json.loads(out.read_text())


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["bench"] and SPEC["command"][-1] == "bench/run.py"
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert len(SPEC["per_layer"]) == 83
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_smoke_reports_every_metric_of_every_workload(smoke):
    proc, report = smoke
    assert set(report["workloads"]) == set(workloads.WORKLOADS)
    assert set(report["environment"]) == {
        "python", "numpy", "platform", "nproc", "commit", "PYTHONHASHSEED",
    }
    for name, entry in report["workloads"].items():
        assert entry["correct"], (name, entry["checks"])
        assert set(entry["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        values = list(entry["end_to_end"].values()) + list(entry["per_layer"].values())
        assert all(isinstance(v, (int, float)) for v in values), name
        assert all(v > 0 for v in entry["end_to_end"].values()), name
        assert entry["per_layer"]["trace.attributed_share"] >= 0.95, name
        assert entry["box_slowdown"] > 0
    # 1/10 horizon: too few samples for a p99, and the report says so
    assert report["workloads"]["ring_dense"]["sim"]["latency_samples"] < 1000
    assert "unsupported" in proc.stdout
    line = last_line(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert "ring_dense/sim.events_processed" in line["metrics"]


def test_traced_shares_match_the_workload_design(smoke):
    _, report = smoke
    ledgers = {n: e["per_layer"] for n, e in report["workloads"].items()}
    self_s = {
        n: {k[:-len(".self_s")]: v for k, v in rows.items() if k.endswith(".self_s")}
        for n, rows in ledgers.items()
    }
    assert max(self_s["ring_sparse"], key=self_s["ring_sparse"].get) == "core.fastforward"
    assert max(self_s["sql_tpch"], key=self_s["sql_tpch"].get) == "dbms.exec"
    for ring in ("ring_dense", "ring_sparse"):
        for layer in ("dbms.sql", "dbms.exec", "dbms.statistics", "frontdoor", "multiring"):
            assert self_s[ring][layer] == 0, (ring, layer)
    for name, shares in self_s.items():
        assert (shares["sim.parallel"] > 0) == (name == "fed_partitioned"), name
    sparse = self_s["ring_sparse"]
    assert sparse["events"] + sparse["metrics"] < 0.02 * sum(sparse.values())


def test_driver_invocation_prints_the_contract_line(tmp_path):
    out = tmp_path / "one.json"
    proc = run("--workload", "fed_partitioned", "--seed", "7", "--seconds", "1",
               "--trace", "0", "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = last_line(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    # --workload filters: nothing else ran
    assert set(json.loads(out.read_text())["workloads"]) == {"fed_partitioned"}


def test_same_seed_same_digest_different_seed_different():
    digests = [
        workloads.run_pass("fed_partitioned", seed, 0.05, "timed")["sim_digest"]
        for seed in (1, 1, 2)
    ]
    assert digests[0] == digests[1] != digests[2]


def test_fold_charges_numpy_time_to_the_calling_layer():
    db = Database()
    n = 400_000
    db.load_table("t", {"id": np.arange(n), "v": np.ones(n)})
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(5):
        db.query("SELECT sum(v) s FROM t WHERE id >= 10")
    profiler.disable()
    fold = layers.fold(profiler)
    assert fold["attributed_share"] >= 0.95
    # the selection and the sum are numpy's work, done for the kernel
    assert fold["self_s"]["dbms.exec"] > 0.5 * fold["total_s"]
    assert fold["self_s"]["dbms.exec"] > 5 * fold["self_s"]["dbms.sql"]


def test_layer_of_maps_files_to_ledger_rows():
    src = layers.SRC_DIR
    assert layers.layer_of(src + "sim/parallel.py") == "sim.parallel"
    assert layers.layer_of(src + "sim/engine.py") == "sim"
    assert layers.layer_of(src + "core/fastforward.py") == "core.fastforward"
    assert layers.layer_of(src + "core/runtime.py") == "core.runtime"
    assert layers.layer_of(src + "dbms/mal.py") == "dbms.sql"
    assert layers.layer_of(src + "dbms/qpu/mal.py") == "dbms.exec"
    assert layers.layer_of(src + "dbms/statistics/catalog.py") == "dbms.statistics"
    assert layers.layer_of(src + "xtn/bidding.py") == "bench"
    assert layers.layer_of(str(BENCH / "workloads.py")) == "bench"
    assert layers.layer_of("~") is None


def test_compare_a_report_with_itself_is_all_same(smoke, tmp_path):
    _, report = smoke
    rows, _notes, failed = compare.compare(report, report)
    assert len(rows) == len(workloads.WORKLOADS) * len(SPEC["end_to_end"])
    assert {row[-1] for row in rows} == {"same"} and not failed
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert compare.main([str(path), str(path)]) == 0


def test_compare_verdicts():
    steady = (10.0, 0.2)
    assert compare.verdict(steady, (10.5, 0.2), "lower", 1.0) == "same"
    assert compare.verdict(steady, (11.5, 0.2), "lower", 1.0) == "worse"
    assert compare.verdict(steady, (9.0, 0.2), "lower", 1.0) == "better"
    assert compare.verdict(steady, (9.0, 0.2), "higher", 0.5) == "worse"
    assert compare.verdict(steady, (9.95, 0.4), "lower", 1.0) == "same"
    assert compare.verdict((10.0, 2.0), steady, "lower", 1.0) == "unresolved"
