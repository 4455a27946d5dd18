"""Tests for the SQL front-end: parser, planner and end-to-end queries."""

import numpy as np
import pytest

from repro.dbms import Database
from repro.dbms.sql import SqlError, parse
from repro.dbms.sql.parser import (
    AggCall,
    Between,
    BinOp,
    ColumnRef,
    Comparison,
    InList,
    Literal,
)


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def test_parse_basic_select():
    ast = parse("SELECT a, b FROM t")
    assert [i.expr for i in ast.items] == [ColumnRef("a"), ColumnRef("b")]
    assert ast.tables[0].name == "t"


def test_parse_qualified_and_aliased():
    ast = parse("SELECT x.a FROM t x WHERE x.a = 3")
    assert ast.tables[0].alias == "x"
    assert ast.items[0].expr == ColumnRef("a", table="x")
    assert ast.where == [Comparison("==", ColumnRef("a", "x"), Literal(3))]


def test_parse_operators_normalised():
    ast = parse("SELECT a FROM t WHERE a <> 1 AND a != 2 AND a = 3")
    ops = [p.op for p in ast.where]
    assert ops == ["!=", "!=", "=="]


def test_parse_between_and_in():
    ast = parse("SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2, 3)")
    assert ast.where[0] == Between(ColumnRef("a"), Literal(1), Literal(5))
    assert ast.where[1] == InList(ColumnRef("b"), (Literal(1), Literal(2), Literal(3)))


def test_parse_aggregates():
    ast = parse("SELECT sum(a), count(*), avg(a * b) FROM t")
    assert ast.items[0].expr == AggCall("sum", ColumnRef("a"))
    assert ast.items[1].expr == AggCall("count", None)
    assert ast.items[2].expr == AggCall(
        "avg", BinOp("*", ColumnRef("a"), ColumnRef("b"))
    )


def test_parse_expression_precedence():
    ast = parse("SELECT a + b * c FROM t")
    expr = ast.items[0].expr
    assert expr == BinOp("+", ColumnRef("a"), BinOp("*", ColumnRef("b"), ColumnRef("c")))


def test_parse_parenthesised_expression():
    ast = parse("SELECT (a + b) * c FROM t")
    expr = ast.items[0].expr
    assert expr.op == "*"
    assert expr.left == BinOp("+", ColumnRef("a"), ColumnRef("b"))


def test_parse_group_order_limit():
    ast = parse(
        "SELECT a, sum(b) s FROM t GROUP BY a ORDER BY s DESC LIMIT 10"
    )
    assert ast.group_by == [ColumnRef("a")]
    assert ast.order_by[0].descending
    assert ast.limit == 10


def test_parse_string_literals():
    ast = parse("SELECT a FROM t WHERE name = 'O''Brien'")
    assert ast.where[0].right == Literal("O'Brien")


@pytest.mark.parametrize("count", ["2.5", ".5", "1.0"])
def test_a_fractional_limit_is_a_syntax_error(count):
    with pytest.raises(SqlError, match=f"LIMIT needs a whole number, got '{count}'"):
        parse(f"SELECT v FROM t LIMIT {count}")


def test_parse_errors():
    with pytest.raises(SqlError):
        parse("SELECT FROM t")
    with pytest.raises(SqlError):
        parse("SELECT a t")  # missing FROM
    with pytest.raises(SqlError):
        parse("SELECT a FROM t WHERE a ~ 3")
    with pytest.raises(SqlError):
        parse("SELECT a FROM t extra garbage ,")


# ----------------------------------------------------------------------
# end-to-end on the embedded database
# ----------------------------------------------------------------------
@pytest.fixture
def db():
    database = Database()
    database.load_table(
        "items",
        {
            "id": np.arange(8),
            "price": np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]),
            "qty": np.array([1, 2, 3, 4, 1, 2, 3, 4]),
            "cat": np.array(["a", "b", "a", "b", "a", "b", "a", "b"]),
        },
    )
    database.load_table(
        "orders",
        {
            "item_id": np.array([0, 0, 2, 5, 7, 7, 7]),
            "amount": np.array([5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0]),
        },
    )
    return database


def test_projection_and_filter(db):
    rs = db.query("SELECT id FROM items WHERE price > 55")
    assert list(rs.column("id")) == [5, 6, 7]


def test_between(db):
    rs = db.query("SELECT id FROM items WHERE price BETWEEN 20 AND 40")
    assert list(rs.column("id")) == [1, 2, 3]


def test_in_list(db):
    rs = db.query("SELECT price FROM items WHERE id IN (1, 3, 5)")
    assert list(rs.column("price")) == [20.0, 40.0, 60.0]


def test_not_equal(db):
    rs = db.query("SELECT id FROM items WHERE cat != 'a' AND id < 4")
    assert list(rs.column("id")) == [1, 3]


def test_conjunction(db):
    rs = db.query("SELECT id FROM items WHERE price >= 30 AND qty <= 2")
    assert list(rs.column("id")) == [4, 5]


def test_join(db):
    rs = db.query(
        "SELECT items.price, orders.amount FROM items, orders "
        "WHERE orders.item_id = items.id"
    )
    rows = sorted(rs.rows())
    assert rows == [
        (10.0, 5.0),
        (10.0, 6.0),
        (30.0, 7.0),
        (60.0, 8.0),
        (80.0, 9.0),
        (80.0, 10.0),
        (80.0, 11.0),
    ]


def test_join_with_filters_on_both_sides(db):
    rs = db.query(
        "SELECT amount FROM items, orders "
        "WHERE orders.item_id = items.id AND items.price > 50 AND amount < 11"
    )
    assert sorted(rs.column("amount")) == [8.0, 9.0, 10.0]


def test_scalar_aggregates(db):
    rs = db.query("SELECT sum(price) s, count(*) n, min(qty) mn FROM items")
    assert rs.rows() == [(360.0, 8, 1)]


def test_aggregate_of_expression(db):
    rs = db.query("SELECT sum(price * qty) FROM items WHERE id < 3")
    assert rs.rows() == [(10.0 + 40.0 + 90.0,)]


def test_group_by(db):
    rs = db.query(
        "SELECT cat, sum(price) total, count(*) n FROM items GROUP BY cat"
    )
    assert sorted(rs.rows()) == [("a", 160.0, 4), ("b", 200.0, 4)]


def test_group_by_ordered_by_aggregate(db):
    rs = db.query(
        "SELECT item_id, sum(amount) s FROM orders GROUP BY item_id ORDER BY s DESC"
    )
    assert list(rs.column("item_id")) == [7, 0, 5, 2]


def test_order_by_limit(db):
    rs = db.query("SELECT id, price FROM items ORDER BY price DESC LIMIT 3")
    assert list(rs.column("id")) == [7, 6, 5]


def test_multi_key_order(db):
    rs = db.query("SELECT qty, id FROM items ORDER BY qty, id DESC")
    assert rs.rows()[0] == (1, 4)
    assert rs.rows()[1] == (1, 0)


def test_join_via_unqualified_columns(db):
    rs = db.query(
        "SELECT amount FROM items, orders WHERE item_id = id AND id = 2"
    )
    assert list(rs.column("amount")) == [7.0]


def test_partitioned_table_queries_identical():
    """Partitioning must not change any query answer."""
    whole = Database()
    parts = Database()
    rng = np.random.default_rng(7)
    data = {
        "k": rng.integers(0, 50, 200),
        "v": rng.random(200),
    }
    whole.load_table("t", data)
    parts.load_table("t", data, rows_per_partition=17)
    for sql in [
        "SELECT count(*) c FROM t WHERE v > 0.5",
        "SELECT sum(v) s FROM t WHERE k < 25",
        "SELECT k, count(*) n FROM t GROUP BY k ORDER BY n DESC LIMIT 5",
    ]:
        assert whole.query(sql).rows() == parts.query(sql).rows()


def test_self_join_rejected_without_aliases_conflict(db):
    with pytest.raises(SqlError):
        db.query("SELECT id FROM items, items")


def test_unknown_column(db):
    with pytest.raises(SqlError):
        db.query("SELECT nope FROM items")


def test_ambiguous_column():
    db = Database()
    db.load_table("a", {"x": [1], "k": [1]})
    db.load_table("b", {"x": [1], "k": [1]})
    with pytest.raises(SqlError):
        db.query("SELECT x FROM a, b WHERE a.k = b.k")


def test_cross_join_rejected(db):
    with pytest.raises(SqlError):
        db.query("SELECT items.id FROM items, orders")


def test_group_by_non_key_column_rejected(db):
    with pytest.raises(SqlError):
        db.query("SELECT price, cat FROM items GROUP BY cat")


def test_mixed_aggregate_plain_rejected(db):
    with pytest.raises(SqlError):
        db.query("SELECT price, sum(qty) FROM items")


def test_explain_contains_bind_and_join(db):
    text = db.explain(
        "SELECT items.price FROM items, orders WHERE orders.item_id = items.id"
    )
    assert "sql.bind" in text
    assert "algebra.join" in text


def test_paper_example_query():
    """The exact query of the paper's Table 1."""
    db = Database()
    db.load_table("t", {"id": np.array([1, 2, 3])})
    db.load_table("c", {"t_id": np.array([2, 3, 3, 9])})
    rs = db.query("select c.t_id from t, c where c.t_id = t.id")
    assert sorted(rs.column("t_id")) == [2, 3, 3]
