"""Tests for dataflow-concurrent plan execution."""

import numpy as np
import pytest

from repro.core import DataCyclotronConfig
from repro.dbms.dataflow import DataflowExecutor
from repro.dbms.executor import RingDatabase
from repro.dbms.interpreter import UnknownOperator, local_registry
from repro.dbms.mal import Instruction, Plan, Var
from repro.sim.engine import Simulator
from repro.sim.process import Delay, Process


def run_dataflow(registry, plan, sim=None):
    sim = sim if sim is not None else Simulator()
    executor = DataflowExecutor(registry, sim)
    holder = {}

    def driver():
        env = yield from executor.run(plan)
        holder["env"] = env

    Process(sim, driver)
    sim.run()
    if "env" not in holder:
        raise holder.get("error", AssertionError("dataflow run did not finish"))
    return holder["env"]


# ----------------------------------------------------------------------
# basic semantics
# ----------------------------------------------------------------------
def make_catalog_registry():
    from repro.dbms.catalog import Catalog

    catalog = Catalog()
    catalog.load_table("sys", "t", {"id": np.array([3, 1, 2])})
    return local_registry(catalog)


def test_dataflow_matches_linear_execution():
    registry = make_catalog_registry()
    plan = Plan()
    a = plan.emit("sql", "bind", ("sys", "t", "id", 0))
    s = plan.emit("algebra", "sort", (a, False))
    env = run_dataflow(registry, plan)
    assert env[s.name].tail.tolist() == [1, 2, 3]


def test_dataflow_respects_dependencies_regardless_of_order():
    """Instructions may complete out of program order, but every operand
    is awaited."""
    registry = make_catalog_registry()
    trace = []

    def slow_op(value):
        yield Delay(1.0)
        trace.append("slow")
        return value

    def fast_op(value):
        trace.append("fast")
        return value

    registry["test.slow"] = slow_op
    registry["test.fast"] = fast_op
    plan = Plan()
    a = plan.emit("sql", "bind", ("sys", "t", "id", 0))
    b = plan.emit("test", "slow", (a,))      # finishes at t=1
    plan.emit("test", "fast", (a,))          # independent: finishes at t=0
    d = plan.emit("test", "fast", (b,))      # must wait for the slow op
    env = run_dataflow(registry, plan)
    assert trace == ["fast", "slow", "fast"]
    assert env[d.name] is env[b.name]


def test_dataflow_concurrent_blocking_ops_overlap():
    """Two independent 1-second blockers finish at t=1, not t=2."""
    registry = make_catalog_registry()

    def blocker():
        yield Delay(1.0)
        return "x"

    registry["test.block"] = blocker
    plan = Plan()
    plan.emit("test", "block", ())
    plan.emit("test", "block", ())
    sim = Simulator()
    run_dataflow(registry, plan, sim=sim)
    assert sim.now == pytest.approx(1.0)


def test_dataflow_error_propagates():
    registry = make_catalog_registry()
    plan = Plan()
    plan.emit("nope", "nada", ())
    with pytest.raises(UnknownOperator):
        run_dataflow(registry, plan)


def test_dataflow_undefined_variable():
    registry = make_catalog_registry()
    plan = Plan()
    plan.append(Instruction("algebra", "sort", (Var("GHOST"), False), ("OUT",)))
    with pytest.raises(NameError):
        run_dataflow(registry, plan)


def test_dataflow_multi_result_instructions():
    registry = make_catalog_registry()
    plan = Plan()
    a = plan.emit("sql", "bind", ("sys", "t", "id", 0))
    g, e = plan.emit("group", "new", (a,), n_results=2)
    c = plan.emit("aggr", "count", (e,))
    env = run_dataflow(registry, plan)
    assert env[c.name] == 3


# ----------------------------------------------------------------------
# on the ring
# ----------------------------------------------------------------------
def ring_pair(dataflow):
    rng = np.random.default_rng(6)
    n = 500
    ring = RingDatabase(DataCyclotronConfig(n_nodes=4, seed=6), dataflow=dataflow)
    ring.load_table("t", {"id": np.arange(n), "v": rng.random(n)},
                    rows_per_partition=250)
    ring.load_table("c", {"t_id": rng.integers(0, n, n), "w": rng.random(n)},
                    rows_per_partition=250)
    return ring


JOIN_SQL = (
    "SELECT t.v, c.w FROM t, c WHERE c.t_id = t.id AND v > 0.9 "
    "ORDER BY w DESC LIMIT 5"
)


def test_ring_dataflow_same_answers():
    linear = ring_pair(dataflow=False)
    concurrent = ring_pair(dataflow=True)
    h1 = linear.submit(JOIN_SQL, node=1)
    h2 = concurrent.submit(JOIN_SQL, node=1)
    assert linear.run_until_done(max_time=300.0)
    assert concurrent.run_until_done(max_time=300.0)
    assert h1.result.rows() == h2.result.rows()


def test_ring_dataflow_is_not_slower():
    """Concurrent pins overlap transfer waits: gross time <= linear."""
    linear = ring_pair(dataflow=False)
    concurrent = ring_pair(dataflow=True)
    linear.submit(JOIN_SQL, node=1)
    concurrent.submit(JOIN_SQL, node=1)
    assert linear.run_until_done(max_time=300.0)
    assert concurrent.run_until_done(max_time=300.0)
    lt_linear = linear.metrics.queries[0].lifetime
    lt_concurrent = concurrent.metrics.queries[0].lifetime
    assert lt_concurrent <= lt_linear + 1e-9


def test_dataflow_and_caching_mutually_exclusive():
    with pytest.raises(ValueError):
        RingDatabase(DataCyclotronConfig(n_nodes=2), dataflow=True,
                     cache_intermediates=True)
