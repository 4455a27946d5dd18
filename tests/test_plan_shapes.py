"""Plan templates per statement shape (docs/qpu.md section 7).

A text the MAL engine has not compiled, whose *shape* -- its tokens
with number and string literal values masked -- it has, binds its
literals into that shape's template instead of planning again.  The
bound plan must be what planning the text from scratch gives,
instruction for instruction.  The reference here is that from-scratch
compile, written out from the public pieces (parse, plan, DC rewrite,
end-of-life table, footprint): every text is drawn with hypothesis
literals, compiled after another text of its shape, and compared.
"""

import copy
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import DataCyclotronConfig
from repro.dbms.catalog import Catalog
from repro.dbms.cost import default_cost_model
from repro.dbms.database import Database
from repro.dbms.executor import RingDatabase
from repro.dbms.interpreter import local_registry
from repro.dbms.optimizer import dc_rewrite, requested_binds
from repro.dbms.qpu.mal import PLAN_CACHE_SIZE, MalQpu
from repro.dbms.sql import parse, plan_select
from repro.dbms.sql.parser import tokenize
from repro.workloads.frontdoor import FrontDoorWorkload
from repro.workloads.tpch import TPCH_QUERIES, generate_tpch

BENCH = Path(__file__).resolve().parent.parent / "bench"

SETTINGS = {
    "deadline": None,
    "max_examples": 12,
    "suppress_health_check": [HealthCheck.too_slow],
}


def light_queries():
    """``sql_tpch``'s four light templates (``bench/workloads.py``),
    formatted once; their literals are redrawn below."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return [
        text.format(d=400, e=700, k=3, q=24) for text in workloads.LIGHT_QUERIES
    ]


DOOR = FrontDoorWorkload(n_rows=1200, rows_per_partition=100, hot_rows=1000)
DOOR_TEXTS = sorted({
    request for _, _, request in DOOR.submissions() if isinstance(request, str)
})[:1] + [f"SELECT * FROM {DOOR.table}"]

TEXTS = (
    [("tpch", q.sql) for q in TPCH_QUERIES]
    + [("tpch", sql) for sql in light_queries()]
    + [("door", sql) for sql in DOOR_TEXTS]
)


def _catalog(kind: str) -> Catalog:
    catalog = Catalog()
    if kind == "tpch":
        for name, columns in generate_tpch(0.001, seed=3).items():
            catalog.load_table("sys", name, columns, rows_per_partition=2000)
    else:
        catalog.load_table(
            "sys", DOOR.table, DOOR.table_data(),
            rows_per_partition=DOOR.rows_per_partition,
        )
    return catalog


CATALOGS = {kind: _catalog(kind) for kind in ("tpch", "door")}


def engine(catalog: Catalog) -> MalQpu:
    return MalQpu(catalog, local_registry(catalog), default_cost_model())


def reference(catalog: Catalog, sql: str, name: str):
    """``sql`` planned from scratch: what every compile did before
    plans had templates."""
    planned = plan_select(parse(sql), catalog, name=name)
    plan, last_use = dc_rewrite(planned.plan)
    bat_ids = tuple(catalog.handle(*args).bat_id for args in requested_binds(plan))
    nbytes = sum(catalog.handle_by_id(b).bat.nbytes for b in bat_ids)
    return bat_ids, nbytes, planned.finished(plan, last_use)


def record(footprint, nbytes, planned):
    return {
        "name": planned.plan.name,
        "instructions": [
            (instr.opname, repr(instr.args), instr.results)
            for instr in planned.plan.instructions
        ],
        "counter": planned.plan._counter,
        "dies": planned.dies,
        "footprint": footprint,
        "bytes": nbytes,
        "result_var": planned.result_var,
        "column_names": planned.column_names,
    }


def assert_compiles_like_from_scratch(qpu: MalQpu, sql: str) -> None:
    compiled = qpu.compile(sql)
    assert compiled.description == sql and compiled.engine == "mal"
    expected = reference(qpu.catalog, sql, compiled.payload.plan.name)
    assert record(compiled.footprint, compiled.footprint_bytes, compiled.payload) \
        == record(*expected)
    assert compiled.payload.plan.name == f"user.s{qpu._plan_counter}_1"


# ----------------------------------------------------------------------
# drawn literals
# ----------------------------------------------------------------------
_STRING = re.compile(r"'(?:[^']|'')*'")

integers = st.integers(0, 99_999).map(str)
decimals = st.one_of(
    st.tuples(st.integers(0, 9_999), st.integers(0, 999)).map(
        lambda p: f"{p[0]}.{p[1]}"
    ),
    st.integers(0, 999).map(lambda i: f"{i}."),
    st.integers(0, 999).map(lambda f: f".{f}"),
)
numbers = st.one_of(integers, decimals)
strings = st.text(max_size=6).map(lambda s: "'" + s.replace("'", "''") + "'")


@st.composite
def redrawn(draw, sql: str) -> str:
    """``sql`` with every literal redrawn: a number as an int or a
    decimal (the ``LIMIT`` count as an int), a string as a string."""
    tokens = tokenize(sql)
    pieces, end = [], 0
    for prev, tok in zip([None] + tokens, tokens):
        if tok.kind == "number":
            span = len(tok.value)
            limit = prev is not None and prev.value == "limit"
            value = draw(st.integers(1, 500).map(str) if limit else numbers)
        elif tok.kind == "string":
            span = _STRING.match(sql, tok.pos).end() - tok.pos
            value = draw(strings)
        else:
            continue
        pieces += [sql[end:tok.pos], value]
        end = tok.pos + span
    return "".join(pieces) + sql[end:]


@pytest.mark.parametrize(
    "kind,sql", TEXTS, ids=[f"{kind}{i}" for i, (kind, _) in enumerate(TEXTS)]
)
@settings(**SETTINGS)
@given(data=st.data())
def test_a_bound_plan_equals_its_own_compile(kind, sql, data):
    first = data.draw(redrawn(sql), label="first")
    second = data.draw(redrawn(sql), label="second")
    qpu = engine(CATALOGS[kind])
    assert_compiles_like_from_scratch(qpu, first)
    assert_compiles_like_from_scratch(qpu, second)
    stats = qpu.plan_cache_stats()
    assert stats["shapes"] == 1
    if first != second:
        assert stats["shape_binds"] + stats["shape_fallbacks"] == 1
        limits = re.findall(r"(?i)\blimit\s+(\d+)", first + " " + second)
        if len(set(limits)) < 2:      # only a LIMIT count forces a replan
            assert stats["shape_binds"] == 1


def test_the_bench_shapes_bind_and_share_their_instructions():
    qpu = engine(CATALOGS["door"])
    texts = [
        f"SELECT val FROM front WHERE id >= {lo} AND id < {lo + 250}"
        for lo in range(0, 500, 50)
    ]
    compiled = [qpu.compile(sql) for sql in texts]
    assert qpu.plan_cache_stats()["shapes"] == 1
    assert qpu.plan_cache_stats()["shape_binds"] == len(texts) - 1
    first, *rest = (c.payload for c in compiled)
    for planned in rest:
        shared = [
            a is b for a, b in zip(first.plan.instructions, planned.plan.instructions)
        ]
        # only the two range selections hold a literal
        assert shared.count(False) == 2
        assert planned.dies is first.dies
        assert planned.column_names is first.column_names
    for sql in texts:
        assert_compiles_like_from_scratch(engine(CATALOGS["door"]), sql)


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------
def t_catalog() -> Catalog:
    catalog = Catalog()
    catalog.load_table("sys", "t", table_data(), rows_per_partition=100)
    return catalog


N_ROWS = 600


def table_data():
    rng = np.random.default_rng(11)
    return {
        "id": np.arange(N_ROWS, dtype=np.int64),
        "v": np.round(rng.uniform(0.0, 10.0, N_ROWS), 3),
        "g": rng.integers(0, 4, N_ROWS),
    }


@pytest.mark.parametrize("texts,shapes,binds,fallbacks", [
    # int, float and a decimal without a fraction share a shape
    (["SELECT v FROM t WHERE id < 5", "SELECT v FROM t WHERE id < 5.5",
      "SELECT v FROM t WHERE id < 7."], 1, 2, 0),
    # a string literal is another shape
    (["SELECT v FROM t WHERE g = 2", "SELECT v FROM t WHERE g = '2'",
      "SELECT v FROM t WHERE g = 'it''s'"], 2, 1, 0),
    # keyword case and layout do not change the shape
    (["SELECT v FROM t WHERE id BETWEEN 1 AND 9",
      "select v\n  from t WHERE id between 2 AND 8"], 1, 1, 0),
    # IN lists of different lengths are different shapes
    (["SELECT v FROM t WHERE g IN (1, 2)", "SELECT v FROM t WHERE g IN (1, 2, 3)",
      "SELECT v FROM t WHERE g IN (3, 0)"], 2, 1, 0),
    # the LIMIT count is planned, not bound: a new count plans again
    (["SELECT v FROM t ORDER BY v LIMIT 5", "SELECT v FROM t ORDER BY v LIMIT 7",
      "SELECT v FROM t WHERE id > 3 ORDER BY v LIMIT 5",
      "SELECT v FROM t WHERE id > 4 ORDER BY v LIMIT 5"], 2, 1, 1),
    # a literal in the select list lands in an argument: it binds
    (["SELECT v * 2 x, g FROM t", "SELECT v * 3.5 x, g FROM t"], 1, 1, 0),
    # ...unless the planner folds it: that shape always plans per text
    (["SELECT v * (1 + 2) x FROM t", "SELECT v * (2 + 2) x FROM t",
      "SELECT v * (2 + 2) x FROM t WHERE id <> 4"], 2, 0, 1),
    # HAVING and != literals, and literal-op-column comparisons
    (["SELECT g, count(*) c FROM t WHERE 5 < id AND v <> 1 GROUP BY g "
      "HAVING count(id) > 3",
      "SELECT g, count(*) c FROM t WHERE 7 < id AND v <> 2.5 GROUP BY g "
      "HAVING count(id) > 40"], 1, 1, 0),
])
def test_edge_cases_bind_or_replan_as_their_shape_says(texts, shapes, binds, fallbacks):
    qpu = engine(t_catalog())
    for sql in texts:
        assert_compiles_like_from_scratch(qpu, sql)
    stats = qpu.plan_cache_stats()
    assert (stats["shapes"], stats["shape_binds"], stats["shape_fallbacks"]) == (
        shapes, binds, fallbacks,
    )
    assert stats["misses"] == len(texts)


def test_errors_are_the_texts_own_and_leave_no_template():
    qpu = engine(t_catalog())
    from repro.dbms.sql import SqlError

    for sql, message in [
        ("SELECT v FROM t WHERE 1 = 2", "unsupported predicate"),
        ("SELECT nope FROM t WHERE id < 3", "unknown column 'nope'"),
        ("SELECT v FROM t WHERE id < 3 @", "unexpected character '@' at offset 29"),
        ("SELECT 1 + 2 FROM t", "bare literals"),
    ]:
        for _ in range(2):
            with pytest.raises(SqlError, match=re.escape(message)):
                qpu.compile(sql)
    stats = qpu.plan_cache_stats()
    assert stats["misses"] == 8 and stats["size"] == 0
    # a text that fails leaves no shape behind
    assert stats["shapes"] == stats["shape_binds"] == stats["shape_fallbacks"] == 0


def test_a_fractional_limit_is_a_syntax_error_and_leaves_no_template():
    from repro.dbms.sql import SqlError

    qpu = engine(t_catalog())
    for sql in ("SELECT v FROM t LIMIT 2.5", "SELECT v FROM t LIMIT .5"):
        with pytest.raises(SqlError, match="LIMIT needs a whole number"):
            qpu.compile(sql)
    stats = qpu.plan_cache_stats()
    assert stats["size"] == stats["shapes"] == 0


def test_a_catalog_version_bump_drops_the_templates():
    catalog = t_catalog()
    qpu = engine(catalog)
    qpu.compile("SELECT v FROM t WHERE id < 10")
    qpu.compile("SELECT v FROM t WHERE id < 20")
    assert qpu.plan_cache_stats()["shape_binds"] == 1
    catalog.load_table("sys", "u", {"x": np.arange(10)})
    assert_compiles_like_from_scratch(qpu, "SELECT v FROM t WHERE id < 30")
    stats = qpu.plan_cache_stats()
    assert (stats["shapes"], stats["shape_binds"], stats["size"]) == (2, 1, 1)


def test_templates_keep_to_the_cache_bound():
    qpu = engine(t_catalog())
    for i in range(PLAN_CACHE_SIZE + 10):
        qpu.compile(f"SELECT v v{i} FROM t WHERE id > 1")   # alias: a shape
    assert len(qpu._templates) == PLAN_CACHE_SIZE
    assert qpu.plan_cache_stats()["shapes"] == PLAN_CACHE_SIZE + 10


# ----------------------------------------------------------------------
# shared instructions, many concurrent interpreters
# ----------------------------------------------------------------------
SHAPE = "SELECT g, sum(v) s FROM t WHERE id >= {lo} AND id < {hi} GROUP BY g ORDER BY g"


@pytest.mark.parametrize(
    "variant", [{}, {"dataflow": True}, {"cache_intermediates": True}],
    ids=["linear", "dataflow", "cache_intermediates"],
)
def test_bound_plans_run_concurrently_and_stay_as_compiled(variant):
    """Plans of one shape share instruction objects; interpreters --
    the result cache's fingerprints and the dataflow graph included --
    must not take an instruction to belong to one plan."""
    rdb = RingDatabase(DataCyclotronConfig(n_nodes=4, seed=7), **variant)
    rdb.load_table("t", table_data(), rows_per_partition=100)
    local = Database()
    local.load_table("t", table_data(), rows_per_partition=100)
    texts = [SHAPE.format(lo=lo, hi=lo + 300) for lo in (0, 100, 200, 300)]
    before = [copy.deepcopy(rdb.compile(sql)) for sql in texts]
    assert rdb.plan_cache_stats()["shape_binds"] == len(texts) - 1
    shared = set(map(id, rdb.compile(texts[0]).plan.instructions))
    assert any(
        id(instr) in shared for instr in rdb.compile(texts[1]).plan.instructions
    )
    handles = [
        rdb.submit(sql, node=i % 4, arrival=0.001 * (i // 4))
        for i, sql in enumerate(texts + texts)
    ]
    assert rdb.run_until_done()
    for handle, sql in zip(handles, texts + texts):
        assert handle.result.rows() == local.query(sql).rows()
    for sql, planned in zip(texts, before):
        after = rdb.compile(sql)
        assert after.plan.render() == planned.plan.render()
        assert after.plan.instructions == planned.plan.instructions
        assert (after.dies, after.result_var, after.column_names) == (
            planned.dies, planned.result_var, planned.column_names,
        )
