"""What the parity file does not compare, pinned per request source.

``tests/test_pricing_parity.py`` holds each estimate's engine, bytes,
description and cost to what ``compile`` declares.  Two more fields
leave the estimator: ``selectivity``, which ``QueryEstimated``
publishes, and ``query_class``, the key of the accuracy report and so
part of the ``frontdoor`` scenario payloads.

``tests/data/golden_pricing_digests.json`` holds, for each request
source of the parity file, one sha256 over ``(repr(request), engine,
query_class, footprint_bytes, repr(cost), repr(selectivity))`` of every
distinct request in first-seen order.  Every request is priced twice
over: on a fresh database, and right after its own compile, because
the MAL engine answers a cached text from its cache entry and any other
text from its shape's template.
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.dbms.executor import RingDatabase
from repro.workloads.suite import _frontdoor_ring, _frontdoor_workload
from repro.workloads.tpch import TPCH_QUERIES, generate_tpch
from tests.qpu_harness import SEEDS, _base_table, _ring_config
from tests.test_pricing_parity import MIXED_ENGINE_BURST, bench, phases  # noqa: F401
from tests.test_statistics import _gaussian_requests, _uniform_requests

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_pricing_digests.json").read_text()
)


def digest(rdb: RingDatabase, requests, compile_first: bool) -> str:
    estimator = rdb.estimator
    h = hashlib.sha256()
    for request in dict.fromkeys(requests):
        if compile_first:
            rdb.route(request).compile(request)
        est = estimator.estimate(request)
        h.update(repr((
            repr(request), est.engine, est.query_class, est.footprint_bytes,
            repr(est.cost), repr(est.selectivity),
        )).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# the parity file's request sources: name -> (bench module -> rdb, requests)
# ----------------------------------------------------------------------
def harness(seed, _bench):
    rdb = RingDatabase(_ring_config(seed))
    rdb.load_table("t", _base_table(seed, 1200), rows_per_partition=100)
    return rdb, _uniform_requests(seed) + _gaussian_requests(seed)


def tpch(seed, _bench):
    rdb = RingDatabase(_ring_config(seed))
    for table, columns in generate_tpch(scale_factor=0.001, seed=seed).items():
        rdb.load_table(table, columns, rows_per_partition=2000)
    return rdb, [q.sql for q in TPCH_QUERIES]


def sql_tpch(seed, bench):
    wl = phases(bench.SqlTpch(seed), "build", "load", "generate")
    return wl.rdb, [sql for _, _, sql in wl.requests]


def burst(name, seed, bench):
    wl = phases(bench.WORKLOADS[name](seed), "build", "load", "generate")
    return wl.rdb, [request for _, _, request in wl.submissions]


def suite(seed, overrides, quick, _bench):
    wl = _frontdoor_workload(seed, quick, **overrides)
    rdb = _frontdoor_ring(seed, quick)
    wl.load_into(rdb)
    return rdb, [request for _, _, request in wl.submissions()]


SOURCES = {}
for _seed in SEEDS:
    SOURCES[f"harness/{_seed}"] = functools.partial(harness, _seed)
    SOURCES[f"tpch/{_seed}"] = functools.partial(tpch, _seed)
for _seed in (1, 2, 3):
    SOURCES[f"sql_tpch/{_seed}"] = functools.partial(sql_tpch, _seed)
    SOURCES[f"valve_burst/{_seed}"] = functools.partial(burst, "valve_burst", _seed)
for _seed in range(1, 6):
    SOURCES[f"door_burst/{_seed}"] = functools.partial(burst, "door_burst", _seed)
for _name, _overrides in (("frontdoor", {}), ("mixed-engine-overload", MIXED_ENGINE_BURST)):
    for _quick in (True, False):
        for _seed in (0, 1, 2):
            SOURCES[f"{_name}/{'quick' if _quick else 'full'}/{_seed}"] = (
                functools.partial(suite, _seed, _overrides, _quick)
            )


def test_golden_covers_every_source():
    assert set(GOLDEN) == set(SOURCES)


@pytest.mark.parametrize("compile_first", [False, True], ids=["fresh", "compiled"])
@pytest.mark.parametrize("source", list(SOURCES))
def test_pricing_matches_its_golden_digest(bench, source, compile_first):
    rdb, requests = SOURCES[source](bench)
    assert digest(rdb, requests, compile_first) == GOLDEN[source]
