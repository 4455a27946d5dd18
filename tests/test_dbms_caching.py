"""Tests for automatic intermediate-result caching over the ring (§6.2)."""

import numpy as np
import pytest

from repro.core import DataCyclotronConfig
from repro.dbms import Database
from repro.dbms.caching import CACHEABLE_OPS, plan_fingerprints
from repro.dbms.executor import RingDatabase
from repro.dbms.mal import Plan


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def plan_a():
    p = Plan("user.a")
    t = p.emit("datacyclotron", "request", ("sys", "t", "id", 0))
    col = p.emit("datacyclotron", "pin", (t,))
    p.emit("algebra", "select", (col, 1, 5))
    return p


def plan_b_renamed():
    """Same structure as plan_a but with extra leading junk so variable
    numbers differ."""
    p = Plan("user.b")
    p.emit("sql", "resultSet", ())
    t = p.emit("datacyclotron", "request", ("sys", "t", "id", 0))
    col = p.emit("datacyclotron", "pin", (t,))
    p.emit("algebra", "select", (col, 1, 5))
    return p


def test_fingerprints_invariant_under_renaming():
    fa = plan_fingerprints(plan_a())
    fb = plan_fingerprints(plan_b_renamed())
    # the select instruction is index 2 in plan_a, index 3 in plan_b
    assert fa[2] == fb[3]


def test_fingerprints_differ_on_arguments():
    p1 = plan_a()
    p2 = Plan("user.c")
    t = p2.emit("datacyclotron", "request", ("sys", "t", "id", 0))
    col = p2.emit("datacyclotron", "pin", (t,))
    p2.emit("algebra", "select", (col, 1, 6))  # different bound
    assert plan_fingerprints(p1)[2] != plan_fingerprints(p2)[2]


def test_fingerprints_differ_on_base_data():
    p2 = Plan("user.d")
    t = p2.emit("datacyclotron", "request", ("sys", "t", "other", 0))
    col = p2.emit("datacyclotron", "pin", (t,))
    p2.emit("algebra", "select", (col, 1, 5))
    assert plan_fingerprints(plan_a())[2] != plan_fingerprints(p2)[2]


def test_undefined_vars_not_fingerprinted():
    from repro.dbms.mal import Instruction, Var

    p = Plan("user.e")
    p.append(Instruction("algebra", "select", (Var("UNDEFINED"), 1), ("X1",)))
    assert plan_fingerprints(p) == {}


# ----------------------------------------------------------------------
# end-to-end reuse
# ----------------------------------------------------------------------
def make_data(n=2000):
    rng = np.random.default_rng(4)
    return (
        {"id": np.arange(n), "v": rng.random(n)},
        {"t_id": rng.integers(0, n, n), "w": rng.random(n)},
    )


JOIN_SQL = (
    "SELECT sum(w) s FROM t, c WHERE c.t_id = t.id AND v > 0.25"
)


def test_second_query_reuses_intermediates():
    t, c = make_data()
    ring = RingDatabase(
        DataCyclotronConfig(n_nodes=4, seed=3),
        cache_intermediates=True,
        cache_min_bytes=1024,
    )
    ring.load_table("t", t, rows_per_partition=1000)
    ring.load_table("c", c, rows_per_partition=1000)
    first = ring.submit(JOIN_SQL, node=0)
    second = ring.submit(JOIN_SQL, node=2, arrival=1.0)
    assert ring.run_until_done(max_time=600.0)
    assert first.result is not None and second.result is not None
    assert first.result.rows() == second.result.rows()
    cache = ring.result_cache
    assert cache.publishes > 0
    assert cache.lookups > cache.misses  # at least one hit


def test_cached_results_match_uncached_and_local():
    t, c = make_data()
    local = Database()
    local.load_table("t", t)
    local.load_table("c", c)
    expected = local.query(JOIN_SQL).rows()

    for cached in (False, True):
        ring = RingDatabase(
            DataCyclotronConfig(n_nodes=3, seed=3),
            cache_intermediates=cached,
            cache_min_bytes=1024,
        )
        ring.load_table("t", t, rows_per_partition=700)
        ring.load_table("c", c, rows_per_partition=700)
        handles = [ring.submit(JOIN_SQL, node=i, arrival=0.3 * i) for i in range(3)]
        assert ring.run_until_done(max_time=600.0)
        for handle in handles:
            assert handle.result is not None
            assert handle.result.rows() == pytest.approx(expected)


def test_cache_disabled_by_default():
    ring = RingDatabase(DataCyclotronConfig(n_nodes=2))
    assert ring.result_cache is None


def test_small_results_not_published():
    t, c = make_data(n=50)  # tiny intermediates
    ring = RingDatabase(
        DataCyclotronConfig(n_nodes=2, seed=3),
        cache_intermediates=True,
        cache_min_bytes=10 * 1024 * 1024,  # nothing qualifies
    )
    ring.load_table("t", t)
    ring.load_table("c", c)
    handle = ring.submit(JOIN_SQL, node=0)
    assert ring.run_until_done(max_time=600.0)
    assert handle.result is not None
    assert ring.result_cache.publishes == 0


def test_cacheable_ops_is_sane():
    assert "algebra.join" in CACHEABLE_OPS
    assert "datacyclotron.pin" not in CACHEABLE_OPS
