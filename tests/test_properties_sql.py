"""Property tests: the SQL engine vs a brute-force reference evaluator.

Hypothesis generates small random tables and queries from the supported
dialect; every answer is checked against a naive nested-loop evaluation
in plain Python.  This guards the whole pipeline -- parser, planner,
kernel -- far beyond the hand-written cases.
"""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import LiveSetEnv
from repro.dbms import Database

SETTINGS = {
    "deadline": None,
    "max_examples": 40,
    "suppress_health_check": [HealthCheck.too_slow],
}

values = st.integers(min_value=0, max_value=9)
rows = st.integers(min_value=1, max_value=25)


@st.composite
def table_t(draw):
    n = draw(rows)
    return {
        "a": [draw(values) for _ in range(n)],
        "b": [draw(values) for _ in range(n)],
    }


@st.composite
def table_pair(draw):
    t = draw(table_t())
    m = draw(rows)
    c = {
        "k": [draw(values) for _ in range(m)],
        "x": [draw(values) for _ in range(m)],
    }
    return t, c


def make_db(tables, rows_per_partition=None):
    db = Database()
    for name, data in tables.items():
        db.load_table(
            name,
            {k: np.array(v, dtype=np.int64) for k, v in data.items()},
            rows_per_partition=rows_per_partition,
        )
    return db


# ----------------------------------------------------------------------
# single-table filters
# ----------------------------------------------------------------------
@settings(**SETTINGS)
@given(t=table_t(), lo=values, hi=values, op=st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
def test_property_filter_matches_reference(t, lo, hi, op):
    db = make_db({"t": t})
    sql = f"SELECT a FROM t WHERE a BETWEEN {min(lo, hi)} AND {max(lo, hi)} AND b {op} {lo}"
    got = sorted(v for (v,) in db.query(sql).rows())

    def matches(a, b):
        in_range = min(lo, hi) <= a <= max(lo, hi)
        cmp = {
            "<": b < lo, "<=": b <= lo, ">": b > lo,
            ">=": b >= lo, "=": b == lo, "!=": b != lo,
        }[op]
        return in_range and cmp

    expected = sorted(a for a, b in zip(t["a"], t["b"]) if matches(a, b))
    assert got == expected


@settings(**SETTINGS)
@given(t=table_t(), v1=values, v2=values)
def test_property_or_group_matches_reference(t, v1, v2):
    db = make_db({"t": t})
    sql = f"SELECT a FROM t WHERE (a = {v1} OR b = {v2})"
    got = sorted(v for (v,) in db.query(sql).rows())
    expected = sorted(a for a, b in zip(t["a"], t["b"]) if a == v1 or b == v2)
    assert got == expected


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------
@settings(**SETTINGS)
@given(pair=table_pair(), bound=values)
def test_property_join_matches_reference(pair, bound):
    t, c = pair
    db = make_db({"t": t, "c": c})
    sql = f"SELECT t.a, c.x FROM t, c WHERE c.k = t.a AND c.x >= {bound}"
    got = sorted(db.query(sql).rows())
    expected = sorted(
        (a, x)
        for a in t["a"]
        for k, x in zip(c["k"], c["x"])
        if k == a and x >= bound
    )
    assert got == expected


# ----------------------------------------------------------------------
# grouped aggregates
# ----------------------------------------------------------------------
@settings(**SETTINGS)
@given(t=table_t())
def test_property_group_by_matches_reference(t):
    db = make_db({"t": t})
    rs = db.query("SELECT a, sum(b) s, count(*) n FROM t GROUP BY a ORDER BY a")
    expected = {}
    for a, b in zip(t["a"], t["b"]):
        total, count = expected.get(a, (0, 0))
        expected[a] = (total + b, count + 1)
    assert rs.rows() == [
        (a, float(total), count) if isinstance(rs.rows()[0][1], float) else (a, total, count)
        for a, (total, count) in sorted(expected.items())
    ]


@settings(**SETTINGS)
@given(t=table_t(), threshold=st.integers(min_value=0, max_value=30))
def test_property_having_matches_reference(t, threshold):
    db = make_db({"t": t})
    rs = db.query(
        f"SELECT a, sum(b) s FROM t GROUP BY a HAVING sum(b) > {threshold} ORDER BY a"
    )
    expected = {}
    for a, b in zip(t["a"], t["b"]):
        expected[a] = expected.get(a, 0) + b
    kept = sorted((a, s) for a, s in expected.items() if s > threshold)
    got = [(a, int(s)) for a, s in rs.rows()]
    assert got == kept


@settings(**SETTINGS)
@given(t=table_t())
def test_property_scalar_aggregates_match_reference(t):
    db = make_db({"t": t})
    rs = db.query("SELECT sum(a) s, min(b) mn, max(b) mx, count(*) n FROM t")
    (s, mn, mx, n), = rs.rows()
    assert s == sum(t["a"])
    assert mn == min(t["b"]) and mx == max(t["b"])
    assert n == len(t["a"])


@settings(**SETTINGS)
@given(t=table_t(), limit=st.integers(min_value=0, max_value=10))
def test_property_order_limit_matches_reference(t, limit):
    db = make_db({"t": t})
    rs = db.query(f"SELECT a, b FROM t ORDER BY a, b DESC LIMIT {limit}")
    expected = sorted(zip(t["a"], t["b"]), key=lambda p: (p[0], -p[1]))[:limit]
    assert rs.rows() == expected


@settings(**SETTINGS)
@given(t=table_t())
def test_property_count_distinct_matches_reference(t):
    db = make_db({"t": t})
    rs = db.query("SELECT a, count(DISTINCT b) d FROM t GROUP BY a ORDER BY a")
    expected = {}
    for a, b in zip(t["a"], t["b"]):
        expected.setdefault(a, set()).add(b)
    assert rs.rows() == [(a, len(s)) for a, s in sorted(expected.items())]


# ----------------------------------------------------------------------
# the optimizer passes never change answers
# ----------------------------------------------------------------------
@settings(**SETTINGS)
@given(pair=table_pair(), bound=values)
def test_property_passes_preserve_semantics(pair, bound):
    t, c = pair
    db = make_db({"t": t, "c": c})
    sql = (
        f"SELECT t.a, t.a, c.x FROM t, c WHERE c.k = t.a AND c.x >= {bound} "
        f"ORDER BY x LIMIT 7"
    )
    plain = db.execute(db.compile(sql)).rows()
    optimized = db.execute(db.compile(sql, optimize=True)).rows()
    assert plain == optimized


# ----------------------------------------------------------------------
# freeing intermediates at their last use never changes answers
# ----------------------------------------------------------------------
@settings(**SETTINGS)
@given(
    pair=table_pair(), bound=values,
    rows_per_partition=st.integers(min_value=1, max_value=8),
)
def test_property_end_of_life_table_preserves_answers(pair, bound, rows_per_partition):
    t, c = pair
    db = make_db({"t": t, "c": c}, rows_per_partition=rows_per_partition)
    texts = (
        f"SELECT t.a, c.x FROM t, c WHERE c.k = t.a AND c.x >= {bound} ORDER BY x LIMIT 7",
        f"SELECT a, sum(b) s, count(*) n FROM t WHERE b >= {bound} GROUP BY a ORDER BY a",
        f"SELECT a, count(DISTINCT b) d FROM t GROUP BY a HAVING count(*) > {bound}",
        "SELECT * FROM c",
    )
    for sql in texts:
        for planned in (db.compile(sql), db.compile(sql, optimize=True)):
            kept = db.execute(replace(planned, dies=None))
            env = LiveSetEnv(planned.plan, planned.result_var)
            db.interpreter.run(planned.plan, env, planned.dies)
            assert set(env) == {planned.result_var}
            freed = env[planned.result_var]
            assert [tuple(map(repr, row)) for row in freed.rows()] == [
                tuple(map(repr, row)) for row in kept.rows()
            ]
