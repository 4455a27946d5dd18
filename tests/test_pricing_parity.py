"""Pricing before compile is exact on every workload that meets a valve
(docs/qpu.md section 7).

Behind a dispatcher valve ``RingDatabase.submit_request`` weighs a
request by its *estimate* and refuses it without compiling; the refused
handle carries the estimate's engine, description and cost, and an
admitted query is booked in the ledger at the estimated bytes.  Those
are the compile-then-shed decisions only while the estimate equals what
``compile`` declares, so this file checks footprint bytes, engine,
description and cost request by request, over every source of requests
in the repo:

* the QPU golden harness streams (uniform and gaussian; its TPC-H
  queries are among the 22 texts below);
* the benchmark's ``sql_tpch`` stream: the 22 TPC-H texts plus its
  light queries;
* ``FrontDoorWorkload`` exactly as the benchmark's ``valve_burst`` and
  ``door_burst`` offer it (kv probes, narrow scans, folds and the
  ``SELECT *`` burst);
* the ``frontdoor`` and ``mixed-engine-overload`` suite workloads, quick
  and full.

A mismatch names the request.
"""

import sys
from pathlib import Path

import pytest

from repro.dbms.executor import RingDatabase
from repro.workloads.suite import _frontdoor_ring, _frontdoor_workload
from repro.workloads.tpch import TPCH_QUERIES, generate_tpch
from tests.qpu_harness import SEEDS, _base_table, _ring_config
from tests.test_statistics import _gaussian_requests, _uniform_requests

BENCH = Path(__file__).resolve().parent.parent / "bench"

# the burst mix ``mixed-engine-overload`` adds to the frontdoor workload
MIXED_ENGINE_BURST = {"burst_kv_rate": 40.0, "burst_stream_rate": 4.0}


@pytest.fixture(scope="module")
def bench():
    """The benchmark's own workload definitions (``bench/workloads.py``)."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


def mismatches(rdb: RingDatabase, requests) -> list:
    """Each distinct request whose estimate is not what compile declares."""
    estimator = rdb.estimator
    distinct = list(dict.fromkeys(requests))
    assert distinct, "no requests to check"
    wrong = []
    for request in distinct:
        qpu = rdb.route(request)
        compiled = qpu.compile(request)
        est = estimator.estimate(request)
        priced = (est.engine, est.footprint_bytes, est.description, est.cost)
        declared = (
            compiled.engine, compiled.footprint_bytes, compiled.description,
            qpu.estimate_cost(compiled),
        )
        if priced != declared:
            wrong.append(f"{request!r}: estimated {priced}, compiled {declared}")
    return wrong


def phases(workload, *names):
    for name in names:
        getattr(workload, name)()
    return workload


@pytest.mark.parametrize("seed", SEEDS)
def test_golden_harness_streams(seed):
    rdb = RingDatabase(_ring_config(seed))
    rdb.load_table("t", _base_table(seed, 1200), rows_per_partition=100)
    assert mismatches(rdb, _uniform_requests(seed) + _gaussian_requests(seed)) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_tpch_texts_at_the_harness_scale(seed):
    rdb = RingDatabase(_ring_config(seed))
    for table, columns in generate_tpch(scale_factor=0.001, seed=seed).items():
        rdb.load_table(table, columns, rows_per_partition=2000)
    assert mismatches(rdb, [q.sql for q in TPCH_QUERIES]) == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sql_tpch_stream(bench, seed):
    wl = phases(bench.SqlTpch(seed), "build", "load", "generate")
    texts = [sql for _, _, sql in wl.requests]
    assert {q.sql for q in TPCH_QUERIES} <= set(texts)
    assert mismatches(wl.rdb, texts) == []


@pytest.mark.parametrize(
    "name, seed",
    [("valve_burst", s) for s in (1, 2, 3)] + [("door_burst", s) for s in range(1, 6)],
)
def test_burst_offers(bench, name, seed):
    wl = phases(bench.WORKLOADS[name](seed), "build", "load", "generate")
    requests = [request for _, _, request in wl.submissions]
    assert {type(r).__name__ for r in requests} == {"KvLookup", "StreamAggregate", "str"}
    assert any(r.startswith("SELECT *") for r in requests if isinstance(r, str))
    assert mismatches(wl.rdb, requests) == []


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
@pytest.mark.parametrize(
    "overrides", [{}, MIXED_ENGINE_BURST], ids=["frontdoor", "mixed-engine-overload"]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_suite_workloads(seed, overrides, quick):
    wl = _frontdoor_workload(seed, quick, **overrides)
    rdb = _frontdoor_ring(seed, quick)
    wl.load_into(rdb)
    assert mismatches(rdb, [request for _, _, request in wl.submissions()]) == []
