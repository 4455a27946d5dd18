"""The MAL engine's compile-once cache and the dispatcher's O(1) valve
ledger (docs/qpu.md "Compile once").

A statement text compiles once per catalog version; every later
submission of the text shares the cached ``CompiledQuery``.  Sharing is
only sound because execution never writes to a plan, so the tests here
drive one cached plan through several concurrent interpreters -- in the
linear, intermediate-caching and dataflow variants -- and compare every
result with the local ``Database``.
"""

import copy

import numpy as np
import pytest

from repro.core import DataCyclotronConfig
from repro.dbms.database import Database
from repro.dbms.executor import RingDatabase
from repro.dbms.qpu import KvLookup, MalQuery, StreamAggregate
from repro.dbms.qpu.mal import PLAN_CACHE_SIZE
from repro.dbms.sql import SqlError, parse, parse_cached, plan_select
from repro.dbms.statistics import QueryEstimator, StatisticsCatalog
from repro.workloads.tpch import TPCH_QUERIES, generate_tpch

N_ROWS = 600
SQL = "SELECT g, sum(v) s FROM t WHERE id < 450 GROUP BY g ORDER BY g"


def table_data():
    rng = np.random.default_rng(11)
    return {
        "id": np.arange(N_ROWS, dtype=np.int64),
        "v": np.round(rng.uniform(0.0, 10.0, N_ROWS), 3),
        "g": rng.integers(0, 4, N_ROWS),
    }


def make_rdb(**kwargs) -> RingDatabase:
    rdb = RingDatabase(DataCyclotronConfig(n_nodes=4, seed=7), **kwargs)
    rdb.load_table("t", table_data(), rows_per_partition=100)
    return rdb


def local_rows(sql: str):
    db = Database()
    db.load_table("t", table_data(), rows_per_partition=100)
    return db.query(sql).rows()


# ----------------------------------------------------------------------
# hits, misses, invalidation, bound
# ----------------------------------------------------------------------
def test_second_compile_is_a_hit_and_returns_the_same_plan():
    rdb = make_rdb()
    fresh = make_rdb().compile(SQL)
    first = rdb.compile(SQL)
    assert rdb.plan_cache_stats() == {
        "hits": 0, "misses": 1, "size": 1, "bound": PLAN_CACHE_SIZE,
        "priced": 0, "refused_before_compile": 0, "unpriced": 0,
    }
    second = rdb.compile(SQL)
    assert second is first
    assert rdb.plan_cache_stats()["hits"] == 1
    # ...and equal to what an engine that never cached compiles
    assert second.plan.render() == fresh.plan.render()
    assert second.result_var == fresh.result_var
    assert second.column_names == fresh.column_names


def test_every_compile_surface_shares_the_cache():
    rdb = make_rdb()
    planned = rdb.compile(SQL)                      # RingDatabase.compile
    assert rdb._mal.compile_sql(SQL) is planned     # MalQpu.compile_sql
    compiled = rdb._mal.compile(MalQuery(SQL))      # MalQpu.compile
    assert compiled.payload is planned
    handle = rdb.submit_request(MalQuery(SQL))      # submit_request
    assert rdb.plan_cache_stats()["misses"] == 1
    assert rdb.plan_cache_stats()["hits"] == 3
    assert handle.footprint_bytes == compiled.footprint_bytes > 0
    assert handle.sql == SQL
    assert rdb.run_until_done()
    assert handle.result.rows() == local_rows(SQL)


def test_load_table_invalidates_and_new_partitions_are_bound():
    rdb = RingDatabase(DataCyclotronConfig(n_nodes=4, seed=7))
    rdb.load_table("a", {"x": np.arange(10)}, rows_per_partition=5)
    before = rdb._mal.compile("SELECT x FROM a")
    version = rdb.catalog.version
    rdb.load_table("b", {"y": np.arange(30)}, rows_per_partition=10)
    assert rdb.catalog.version > version
    after = rdb._mal.compile("SELECT x FROM a")
    assert after is not before                       # recompiled
    assert after.footprint == before.footprint       # same bindings
    wide = rdb._mal.compile("SELECT y FROM b")
    assert len(wide.footprint) == 3                  # all new partitions
    assert rdb.plan_cache_stats()["size"] == 2
    handle = rdb.submit("SELECT y FROM b WHERE y >= 28")
    assert rdb.run_until_done()
    assert handle.result.rows() == [(28,), (29,)]


def test_compile_errors_are_not_cached():
    rdb = make_rdb()
    for _ in range(2):
        with pytest.raises(SqlError):
            rdb.compile("SELECT nope FROM t")
    assert rdb.plan_cache_stats()["size"] == 0
    assert rdb.plan_cache_stats()["misses"] == 2


def test_cache_never_exceeds_its_bound_and_evicts_least_recent():
    rdb = make_rdb()
    hot = "SELECT v FROM t WHERE id = 0"
    rdb.compile(hot)
    for i in range(1, PLAN_CACHE_SIZE + 40):
        rdb.compile(f"SELECT v FROM t WHERE id = {i}")
        rdb.compile(hot)                             # stays recent
        assert rdb.plan_cache_stats()["size"] <= PLAN_CACHE_SIZE
    stats = rdb.plan_cache_stats()
    assert stats["size"] == PLAN_CACHE_SIZE
    assert stats["misses"] == PLAN_CACHE_SIZE + 40   # hot compiled once
    rdb.compile("SELECT v FROM t WHERE id = 1")      # evicted long ago
    assert rdb.plan_cache_stats()["misses"] == PLAN_CACHE_SIZE + 41


def test_counters_stay_out_of_the_metrics_summary():
    """The bench's sim_digest hashes summary(): host-side cache
    behaviour must not leak into it."""
    rdb = make_rdb()
    for _ in range(3):
        rdb.submit(SQL)
    assert rdb.run_until_done()
    flat = repr(rdb.dc.summary())
    assert "plan_cache" not in flat and "cache_hits" not in flat


# ----------------------------------------------------------------------
# one cached plan, many concurrent interpreters
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "variant", [{}, {"dataflow": True}, {"cache_intermediates": True}],
    ids=["linear", "dataflow", "cache_intermediates"],
)
def test_concurrent_queries_share_one_cached_plan(variant):
    rdb = make_rdb(**variant)
    expected = local_rows(SQL)
    before = copy.deepcopy(rdb.compile(SQL))
    # all four nodes run the one plan object at once, twice over
    handles = [rdb.submit(SQL, node=i % 4, arrival=0.001 * (i // 4))
               for i in range(8)]
    assert rdb.plan_cache_stats()["misses"] == 1
    assert rdb.run_until_done()
    for handle in handles:
        assert handle.result is not None
        assert handle.result.rows() == expected
    # results are per query: no two handles share a result table
    assert len({id(h.result) for h in handles}) == len(handles)
    # execution left the shared plan exactly as compiled
    after = rdb.compile(SQL)
    assert after.plan.render() == before.plan.render()
    assert after.plan.instructions == before.plan.instructions
    assert (after.result_var, after.column_names) == (
        before.result_var, before.column_names,
    )


def test_tpch_results_equal_local_database_with_the_cache_warm():
    tables = generate_tpch(0.001, seed=3)
    rdb = RingDatabase(DataCyclotronConfig(n_nodes=4, seed=3))
    local = Database()
    for name, columns in tables.items():
        rdb.load_table(name, columns, rows_per_partition=2000)
        local.load_table(name, columns, rows_per_partition=2000)
    texts = [q.sql for q in TPCH_QUERIES]
    assert len(texts) == 22
    for sql in texts:                                # warm: 22 misses
        rdb.compile(sql)
    handles = [
        rdb.submit(sql, node=i % 4, arrival=0.01 * i)
        for i, sql in enumerate(texts + texts)       # 44 hits
    ]
    assert rdb.plan_cache_stats()["misses"] == 22
    assert rdb.plan_cache_stats()["hits"] == 44
    assert rdb.run_until_done(max_time=3600.0)

    def canonical(result):
        return sorted(
            (tuple(float(f"{v:.9g}") if isinstance(v, float) else v for v in row)
             for row in result.rows()),
            key=repr,
        )

    for handle, sql in zip(handles, texts + texts):
        assert handle.result is not None, sql
        assert canonical(handle.result) == canonical(local.query(sql)), sql


# ----------------------------------------------------------------------
# one parse per statement: the shared AST is read-only
# ----------------------------------------------------------------------
AST_TEXTS = [
    "SELECT * FROM t",
    SQL,
    "SELECT count(distinct g) c, avg(v) a FROM t WHERE v BETWEEN 2 AND 8",
    "SELECT a.v FROM t a, t b WHERE a.id = b.g AND (b.v < 1 OR b.v > 9) "
    "ORDER BY v DESC LIMIT 5",
    "SELECT g, max(v) m FROM t GROUP BY g HAVING count(id) > 3",
]


@pytest.mark.parametrize("sql", AST_TEXTS)
def test_planner_and_estimator_leave_the_shared_ast_untouched(sql):
    rdb = make_rdb()
    estimator = QueryEstimator(
        StatisticsCatalog.from_catalog(rdb.catalog), rdb.cost_model
    )
    shared = parse_cached(sql)
    assert parse_cached(sql) is shared               # one parse per text
    pristine = copy.deepcopy(shared)
    assert pristine == parse(sql)
    estimator.estimate(sql)
    assert shared == pristine
    plan_select(shared, rdb.catalog)
    assert shared == pristine
    rdb.submit(sql)
    estimator.estimate(MalQuery(sql))
    assert rdb.run_until_done()
    assert shared == pristine
    # SELECT * still expands, in the plan rather than in the AST
    if sql == "SELECT * FROM t":
        assert rdb.compile(sql).column_names == ["id", "v", "g"]


# ----------------------------------------------------------------------
# the valve ledger equals a rescan of the handles, at every step
# ----------------------------------------------------------------------
def rescan(rdb):
    """What ``_shed`` used to compute by walking every handle."""
    busy = [h for h in rdb.handles if not h.done]
    return len(busy), sum(h.footprint_bytes for h in busy)


def assert_ledger_exact(rdb):
    assert (rdb._inflight, rdb._inflight_bytes) == rescan(rdb)


def test_valve_ledger_matches_a_rescan_of_the_handles():
    rdb = make_rdb(lifecycle_events=True)
    rdb.byte_budget = 6000
    rng = np.random.default_rng(5)
    requests = [
        SQL,
        "SELECT v FROM t WHERE id < 100",
        KvLookup(table="t", key=5, column="v"),
        StreamAggregate(table="t", value_column="v"),
        StreamAggregate(table="t", value_column="v", group_column="g"),
    ]
    sim = rdb.dc.sim
    for step in range(120):
        request = requests[int(rng.integers(len(requests)))]
        rdb.submit_request(request, node=int(rng.integers(4)))
        assert_ledger_exact(rdb)                     # shed handles are busy
        sim.run(until=sim.now + float(rng.uniform(0.0, 0.02)))
        assert_ledger_exact(rdb)
    shed = sum(rdb.metrics.queries_shed_by_reason.values())
    assert 0 < shed < 120                            # both paths exercised
    assert rdb.run_until_done()
    assert_ledger_exact(rdb)
    assert (rdb._inflight, rdb._inflight_bytes) == (0, 0)


def test_aborted_queries_leave_the_ledger():
    """A failed pin aborts the query; its bytes are still returned."""
    rdb = make_rdb()
    rdb.byte_budget = 1 << 40
    sql = "SELECT v FROM t WHERE id < 100"
    # node 0 believes the owners of the footprint are dead
    rdb.dc.nodes[0].unavailable_bats.update(rdb._mal.compile(sql).footprint)
    handle = rdb.submit(sql, node=0)
    assert rdb._inflight == 1 and rdb._inflight_bytes == handle.footprint_bytes
    assert rdb.run_until_done(max_time=30.0)
    assert handle.done and handle.result is None
    assert rdb.metrics.queries[handle.query_id].failed
    assert_ledger_exact(rdb)
    assert (rdb._inflight, rdb._inflight_bytes) == (0, 0)
