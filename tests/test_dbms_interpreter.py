"""Unit tests for the MAL interpreter and registries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dbms import interpreter as interpreter_module
from repro.dbms.bat import BAT
from repro.dbms.catalog import Catalog
from repro.dbms.interpreter import (
    Interpreter,
    ResultSet,
    UnknownOperator,
    _group_multi,
    local_registry,
)
from repro.dbms.mal import Instruction, Plan, Var


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.load_table("sys", "t", {"id": np.array([1, 2, 3]), "v": np.array([9.0, 8.0, 7.0])})
    return cat


def test_run_simple_plan(catalog):
    plan = Plan()
    col = plan.emit("sql", "bind", ("sys", "t", "v", 0))
    sel = plan.emit("algebra", "select", (col, 7.5, None))
    interp = Interpreter(local_registry(catalog))
    env = interp.run(plan)
    assert env[sel.name].tail.tolist() == [9.0, 8.0]


def test_unknown_operator(catalog):
    plan = Plan()
    plan.emit("nope", "nada", ())
    with pytest.raises(UnknownOperator):
        Interpreter(local_registry(catalog)).run(plan)


def test_variable_before_assignment(catalog):
    plan = Plan()
    plan.append(Instruction("bat", "reverse", (Var("XMISSING"),), ("OUT",)))
    with pytest.raises(NameError):
        Interpreter(local_registry(catalog)).run(plan)


def test_multi_result_assignment(catalog):
    plan = Plan()
    col = plan.emit("sql", "bind", ("sys", "t", "id", 0))
    g, e = plan.emit("group", "new", (col,), n_results=2)
    env = Interpreter(local_registry(catalog)).run(plan)
    assert isinstance(env[g.name], BAT)
    assert isinstance(env[e.name], BAT)


def test_generator_function_support(catalog):
    """Registry entries may be generators; the sync runner rejects yields
    but run_gen drives them."""
    registry = local_registry(catalog)

    def blocking_op():
        yield "a-future"
        return 42

    registry["test.block"] = blocking_op
    plan = Plan()
    out = plan.emit("test", "block", ())
    gen = Interpreter(registry).run_gen(plan)
    yielded = next(gen)
    assert yielded == "a-future"
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value[out.name] == 42


def test_sync_runner_rejects_blocking(catalog):
    registry = local_registry(catalog)

    def blocking_op():
        yield "x"

    registry["test.block"] = blocking_op
    plan = Plan()
    plan.emit("test", "block", ())
    with pytest.raises(RuntimeError):
        Interpreter(registry).run(plan)


def test_result_set_api():
    rs = ResultSet()
    rs.add_column("a", BAT.dense([1, 2]))
    rs.add_column("b", 42)
    assert rs.names == ["a", "b"]
    assert rs.column("a").tolist() == [1, 2]
    assert rs.column("b") == 42


def test_result_set_rows_broadcast_scalars():
    rs = ResultSet()
    rs.add_column("n", 7)
    assert rs.rows() == [(7,)]
    assert rs.n_rows == 1


def test_empty_result_set():
    rs = ResultSet()
    assert rs.rows() == []
    assert rs.n_rows == 0


# ----------------------------------------------------------------------
# group.multi against the row-at-a-time body it replaced
# ----------------------------------------------------------------------
def group_multi_row_loop(bats: list):
    """``_group_multi`` as it was: one Python tuple per row, grouped by
    ``np.unique`` over the object array.  Kept as the reference."""
    n = len(bats[0])
    if n == 0:
        empty = BAT.empty(np.int64)
        return empty, [BAT.empty(b.tail.dtype) for b in bats]
    keys = np.empty(n, dtype=object)
    columns = [np.asarray(b.tail) for b in bats]
    for i in range(n):
        keys[i] = tuple(c[i] for c in columns)
    values, inverse = np.unique(keys, return_inverse=True)
    groups = BAT(inverse.astype(np.int64), head=bats[0].head_array())
    extents = [
        BAT(np.array([v[k] for v in values]), head=None)
        for k in range(len(columns))
    ]
    return groups, extents


def assert_same_grouping(got, want) -> None:
    """Group ids, extents, their order and dtypes, element for element."""
    (got_groups, got_extents), (want_groups, want_extents) = got, want
    assert got_groups.head_array().tolist() == want_groups.head_array().tolist()
    assert got_groups.tail.tolist() == want_groups.tail.tolist()
    assert got_groups.tail.dtype == want_groups.tail.dtype
    assert len(got_extents) == len(want_extents)
    for g, w in zip(got_extents, want_extents):
        assert g.head_array().tolist() == w.head_array().tolist()
        assert g.tail.tolist() == w.tail.tolist()
        # exact, not just the kind: operator cost is charged on nbytes,
        # so a wider string extent would move simulated time
        assert g.tail.dtype == w.tail.dtype


KEY_COLUMNS = {
    "int": st.integers(min_value=-2, max_value=3),
    "float": st.sampled_from([-1.5, 0.0, 0.25, 2.0, 1e12]),
    "str": st.sampled_from(["", "a", "B", "ab", "abcdefgh", "b"]),
    "bool": st.booleans(),
}


@st.composite
def key_tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(KEY_COLUMNS)), min_size=1, max_size=4))
    n = draw(st.integers(min_value=0, max_value=40))
    columns = []
    for kind in kinds:
        values = draw(st.lists(KEY_COLUMNS[kind], min_size=n, max_size=n))
        dtype = {"int": np.int64, "float": np.float64, "str": "<U12", "bool": bool}[kind]
        columns.append(np.array(values, dtype=dtype))
    return columns


@settings(max_examples=300, deadline=None)
@given(key_tables(), st.booleans())
def test_property_group_multi_equals_row_loop(columns, dense):
    """1-4 key columns of int/float/str/bool, duplicates, empty input:
    ids in the lexicographic order of the key tuples, same extents."""
    n = len(columns[0])
    head = None if dense else np.arange(n)[::-1] * 3
    bats = [BAT(column, head=head) for column in columns]
    assert_same_grouping(_group_multi(bats), group_multi_row_loop(bats))


def test_group_multi_int32_and_one_giant_group():
    bats = [
        BAT.dense(np.zeros(2000, dtype=np.int32)),
        BAT.dense(np.full(2000, "same")),
    ]
    got = _group_multi(bats)
    assert_same_grouping(got, group_multi_row_loop(bats))
    assert got[0].tail.max() == 0 and got[1][0].tail.dtype == np.int32


def test_group_multi_redensifies_before_codes_overflow(monkeypatch):
    """Many high-cardinality columns: the mixed-radix code is folded back
    to dense ids instead of overflowing int64."""
    rng = np.random.default_rng(3)
    bats = [BAT.dense(rng.permutation(64)) for _ in range(4)]
    bats.append(BAT.dense(np.arange(64) // 2))
    want = group_multi_row_loop(bats)
    assert_same_grouping(_group_multi(bats), want)  # 64**4 * 32 fits
    monkeypatch.setattr(interpreter_module, "_MAX_GROUP_CODE", 64 * 64)
    assert_same_grouping(_group_multi(bats), want)  # now it must fold


def test_group_multi_validation():
    with pytest.raises(ValueError):
        _group_multi([])
    with pytest.raises(ValueError):
        _group_multi([BAT.dense([1, 2]), BAT.dense([1])])
