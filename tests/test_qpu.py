"""Unit tests for the QPU layer (repro.dbms.qpu, docs/qpu.md).

The golden suite (tests/test_qpu_golden.py) pins that the MAL path is a
pure re-layering; this file covers what is *new*: request routing, the
KV and streaming engines' results and ring behaviour, the per-engine
lifecycle events behind ``lifecycle_events=True``, the dispatcher's
admission valve, and the ``as_resolved`` arrival-order combinator the
streaming engine folds with.
"""

import numpy as np
import pytest

from repro.core import DataCyclotronConfig
from repro.dbms.executor import RingDatabase
from repro.dbms.qpu import (
    KvLookup,
    KvQpu,
    MalQpu,
    StreamAggregate,
    StreamingAggQpu,
    as_resolved,
)
from repro.metrics.slo import SloCollector
from repro.sim import Future, Process, Simulator


N_ROWS = 600


def make_rdb(**kwargs) -> RingDatabase:
    rdb = RingDatabase(DataCyclotronConfig(n_nodes=4, seed=7), **kwargs)
    rng = np.random.default_rng(7)
    rdb.load_table(
        "t",
        {
            "id": np.arange(N_ROWS, dtype=np.int64),
            "v": np.round(rng.uniform(0.0, 10.0, N_ROWS), 3),
            "g": rng.integers(0, 4, N_ROWS),
        },
        rows_per_partition=100,
    )
    return rdb


def table_arrays(rdb):
    handles = rdb.catalog.column_handles("sys", "t", "v")
    v = np.concatenate([h.bat.tail for h in handles])
    handles = rdb.catalog.column_handles("sys", "t", "g")
    g = np.concatenate([h.bat.tail for h in handles])
    return v, g


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
def test_requests_route_to_their_engine():
    rdb = make_rdb()
    assert isinstance(rdb.route("SELECT v FROM t"), MalQpu)
    assert isinstance(rdb.route(KvLookup(table="t", key=1, column="v")), KvQpu)
    assert isinstance(
        rdb.route(StreamAggregate(table="t", value_column="v")), StreamingAggQpu
    )
    with pytest.raises(TypeError, match="no registered QPU"):
        rdb.route(12345)


def test_handles_carry_engine_class_and_estimate():
    rdb = make_rdb()
    h_mal = rdb.submit("SELECT v FROM t WHERE id < 50")
    h_kv = rdb.submit_request(KvLookup(table="t", key=3, column="v"))
    h_st = rdb.submit_request(StreamAggregate(table="t", value_column="v"))
    assert (h_mal.engine, h_kv.engine, h_st.engine) == ("mal", "kv", "stream")
    # MAL and streaming touch real bytes; the KV probe is latency-bound
    assert h_mal.estimated_cost > h_kv.estimated_cost
    assert h_st.estimated_cost > h_kv.estimated_cost
    assert rdb.run_until_done()


# ----------------------------------------------------------------------
# KV engine
# ----------------------------------------------------------------------
def test_kv_point_lookup_returns_the_stored_value():
    rdb = make_rdb()
    v, _ = table_arrays(rdb)
    keys = [0, 99, 100, 355, N_ROWS - 1]  # partition edges + interior
    handles = [
        rdb.submit_request(KvLookup(table="t", key=k, column="v"), node=k % 4)
        for k in keys
    ]
    assert rdb.run_until_done()
    for key, handle in zip(keys, handles):
        assert handle.result == pytest.approx(v[key])


def test_kv_miss_returns_none_and_counts():
    rdb = make_rdb()
    hit = rdb.submit_request(KvLookup(table="t", key=0, column="v"))
    miss = rdb.submit_request(KvLookup(table="t", key=N_ROWS + 50, column="v"))
    assert rdb.run_until_done()
    assert hit.result is not None
    assert miss.result is None
    assert rdb.metrics.kv_probes == 2
    assert rdb.metrics.kv_misses == 1


# ----------------------------------------------------------------------
# streaming engine
# ----------------------------------------------------------------------
def test_streaming_scalar_aggregates_match_numpy():
    rdb = make_rdb()
    v, _ = table_arrays(rdb)
    handles = {
        func: rdb.submit_request(StreamAggregate(table="t", value_column="v", func=func))
        for func in ("sum", "count", "min", "max", "avg")
    }
    assert rdb.run_until_done()
    assert handles["sum"].result == pytest.approx(float(v.sum()))
    assert handles["count"].result == N_ROWS
    assert handles["min"].result == pytest.approx(float(v.min()))
    assert handles["max"].result == pytest.approx(float(v.max()))
    assert handles["avg"].result == pytest.approx(float(v.mean()))


def test_streaming_grouped_sum_matches_numpy():
    rdb = make_rdb()
    v, g = table_arrays(rdb)
    handle = rdb.submit_request(
        StreamAggregate(table="t", value_column="v", func="sum", group_column="g")
    )
    assert rdb.run_until_done()
    expected = {int(k): float(v[g == k].sum()) for k in np.unique(g)}
    assert set(handle.result) == set(expected)
    for key, total in expected.items():
        assert handle.result[key] == pytest.approx(total)


def test_streaming_rejects_non_decomposable_aggregates():
    rdb = make_rdb()
    with pytest.raises(ValueError, match="median"):
        rdb.submit_request(StreamAggregate(table="t", value_column="v", func="median"))


def test_streaming_consumes_every_partition_exactly_once():
    rdb = make_rdb()
    handle = rdb.submit_request(StreamAggregate(table="t", value_column="v"))
    assert rdb.run_until_done()
    assert handle.result is not None
    assert rdb.metrics.stream_bats_consumed == N_ROWS // 100
    assert rdb.metrics.stream_rows_consumed == N_ROWS


# ----------------------------------------------------------------------
# dispatcher: lifecycle events + admission
# ----------------------------------------------------------------------
def test_lifecycle_events_tag_queries_with_engine_class():
    rdb = make_rdb(lifecycle_events=True)
    slo = SloCollector().attach(rdb.dc.bus)
    rdb.submit("SELECT v FROM t WHERE id < 40")
    rdb.submit_request(KvLookup(table="t", key=5, column="v"))
    rdb.submit_request(StreamAggregate(table="t", value_column="v"))
    assert rdb.run_until_done()
    assert slo.tags() == ["kv", "mal", "stream"]
    assert rdb.metrics.queries_by_engine == {"kv": 1, "mal": 1, "stream": 1}
    assert all(len(slo.latencies(tag)) == 1 for tag in slo.tags())


def test_default_mal_path_keeps_legacy_sql_tag():
    rdb = make_rdb()
    handle = rdb.submit("SELECT v FROM t WHERE id < 40")
    assert rdb.run_until_done()
    assert rdb.metrics.queries[handle.query_id].tag == "sql"


# ----------------------------------------------------------------------
# as_resolved
# ----------------------------------------------------------------------
def test_as_resolved_yields_in_resolution_order():
    sim = Simulator()
    futures = [Future(sim) for _ in range(3)]
    seen = []

    def drain():
        for waiter in as_resolved(sim, futures):
            index, value = yield waiter
            seen.append((index, value))

    Process(sim, drain())
    sim.post(1.0, lambda: futures[2].resolve("c"))
    sim.post(2.0, lambda: futures[0].resolve("a"))
    sim.post(3.0, lambda: futures[1].resolve("b"))
    sim.run()
    assert seen == [(2, "c"), (0, "a"), (1, "b")]
