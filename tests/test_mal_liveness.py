"""A MAL intermediate dies at its last use, and nothing observable moves.

Every compiled plan carries an end-of-life table (``PlannedQuery.dies``,
built by :func:`repro.dbms.mal.end_of_life`); the linear, caching and
dataflow interpreters drop each variable once its last reader has
resolved its arguments.  Oracle: the same statements run with the table
and without it (every variable kept until the plan ends, the behaviour
before the table existed).  The result rows must be identical -- floats
compared by ``repr`` -- and with the table, after every instruction the
environment holds only variables some later instruction reads, plus the
result.
"""

import pytest

from helpers import LiveSetEnv, result_of
from repro.core import DataCyclotronConfig
from repro.dbms import Database
from repro.dbms.caching import CachingInterpreter
from repro.dbms.dataflow import DataflowExecutor
from repro.dbms.executor import RingDatabase
from repro.dbms.interpreter import Interpreter
from repro.dbms.mal import Instruction, Plan, Var, end_of_life, liveness
from repro.dbms.optimizer import dc_rewrite
from repro.workloads.frontdoor import FrontDoorWorkload
from repro.workloads.tpch import TPCH_QUERIES, generate_tpch

#: ring options per interpreter; "local" is the single-node Database
MODES = {
    "local": None,
    "linear": {},
    "caching": {"cache_intermediates": True, "cache_min_bytes": 1024},
    "dataflow": {"dataflow": True},
}
#: the entry point each mode runs its plans through
ENTRY = {
    "local": (Interpreter, "run_gen"),
    "linear": (Interpreter, "run_gen"),
    "caching": (CachingInterpreter, "run_gen"),
    "dataflow": (DataflowExecutor, "run"),
}

FRONT = FrontDoorWorkload(
    n_rows=2400, rows_per_partition=100, hot_rows=1200, duration=2.0,
    burst_start=0.5, burst_end=1.0,
)


def statements() -> list:
    """The 22 TPC-H queries and the front door's SQL mix (narrow range
    scans and the 24-partition ``SELECT *``), each text once."""
    texts = [q.sql for q in TPCH_QUERIES]
    for _, _, request in FRONT.submissions():
        if isinstance(request, str) and request not in texts:
            texts.append(request)
    return texts


@pytest.fixture(scope="module")
def tables() -> dict:
    data = {
        name: (columns, 1000)
        for name, columns in generate_tpch(0.001, seed=1).items()
    }
    data[FRONT.table] = (FRONT.table_data(), FRONT.rows_per_partition)
    return data


def watch(monkeypatch, mode: str, with_table: bool) -> list:
    """Route the mode's interpreter through a :class:`LiveSetEnv` (with
    the table) or strip the table (without); returns the environments."""
    cls, method = ENTRY[mode]
    original = getattr(cls, method)
    envs = []

    def entry(self, plan, env=None, dies=None):
        assert env is None and dies is not None  # every compile builds one
        if not with_table:
            return original(self, plan, None, None)
        env = LiveSetEnv(plan, result_of(plan, dies))
        envs.append(env)
        return original(self, plan, env, dies)

    monkeypatch.setattr(cls, method, entry)
    return envs


def canonical(result) -> list:
    return [tuple(repr(v) for v in row) for row in result.rows()]


def run_mode(mode: str, tables: dict, texts: list) -> list:
    if MODES[mode] is None:
        db = Database()
        for name, (columns, rpp) in tables.items():
            db.load_table(name, columns, rows_per_partition=rpp)
        return [canonical(db.query(sql)) for sql in texts]
    rdb = RingDatabase(DataCyclotronConfig(n_nodes=4, seed=1), **MODES[mode])
    for name, (columns, rpp) in tables.items():
        rdb.load_table(name, columns, rows_per_partition=rpp)
    handles = [
        rdb.submit(sql, node=i % 4, arrival=0.05 * i) for i, sql in enumerate(texts)
    ]
    assert rdb.run_until_done(max_time=600.0)
    return [canonical(h.result) for h in handles]


@pytest.mark.parametrize("mode", sorted(MODES))
def test_freeing_keeps_results_and_holds_only_live_variables(
    mode, tables, monkeypatch
):
    texts = statements()
    with monkeypatch.context() as patch:
        watch(patch, mode, with_table=False)
        kept = run_mode(mode, tables, texts)
    envs = watch(monkeypatch, mode, with_table=True)
    freed = run_mode(mode, tables, texts)
    assert freed == kept
    assert all(rows for rows in kept[:3])  # the oracle compares something
    assert len(envs) >= len(texts)
    for env in envs:
        assert env.assignments > 0
        assert set(env) == {env.result_var}


# ----------------------------------------------------------------------
# the table itself
# ----------------------------------------------------------------------
def test_table_drops_each_variable_once_at_its_last_use():
    db = Database()
    db.load_table("t", {"a": list(range(40)), "b": list(range(40))},
                  rows_per_partition=10)
    for sql in (
        "SELECT a, b FROM t WHERE a >= 5",
        "SELECT a, sum(b) s FROM t GROUP BY a ORDER BY a",
    ):
        for planned in (db.compile(sql), db.compile_dc(sql)):
            plan, dies = planned.plan, planned.dies
            assert len(dies) == len(plan)
            dropped = [name for names in dies for name in names]
            assert len(dropped) == len(set(dropped))
            assert result_of(plan, dies) == planned.result_var
            for index, names in enumerate(dies):
                for name in names:
                    later = [i for i, ins in enumerate(plan) if name in ins.uses()]
                    assert max(later, default=plan.defining(name)) == index


def test_an_unread_result_dies_where_it_is_defined():
    plan = Plan("user.t")
    x1 = plan.emit("sql", "bind", ("sys", "t", "a", 0))
    plan.emit("bat", "reverse", (x1,))       # X2: never read
    x3 = plan.emit("bat", "mirror", (x1,))
    assert end_of_life(plan, keep=x3.name) == ((), ("X2",), ("X1",))


def test_liveness_keys_in_order_of_first_read_through_lists():
    plan = Plan("user.t")
    plan.append(Instruction("group", "multi", ([Var("B"), Var("A")],), ("G",)))
    plan.append(Instruction("bat", "reverse", (Var("A"),), ("R",)))
    first, last = liveness(plan)
    assert list(first) == ["B", "A"]
    assert first == {"B": 0, "A": 0}
    assert last == {"B": 0, "A": 1, "G": 0, "R": 1}


def test_dc_rewrite_carries_the_rewritten_plans_last_uses(tables):
    """The DC rewrite derives its output's last uses from the walk over
    its input; a fresh walk over the output must find the same."""
    db = Database()
    for name, (columns, rpp) in tables.items():
        db.load_table(name, columns, rows_per_partition=rpp)
    for sql in statements():
        out, last_use = dc_rewrite(db.compile(sql).plan)
        assert last_use == liveness(out)[1]
