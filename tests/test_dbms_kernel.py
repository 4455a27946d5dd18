"""Unit and property tests for the relational operator kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dbms import kernel
from repro.dbms.bat import BAT, OID_DTYPE


# ----------------------------------------------------------------------
# selections
# ----------------------------------------------------------------------
def test_select_range_inclusive():
    b = BAT.dense([1, 5, 3, 7, 5])
    s = kernel.select_range(b, 3, 5)
    assert s.to_pairs() == [(1, 5), (2, 3), (4, 5)]


def test_select_range_exclusive_bounds():
    b = BAT.dense([1, 2, 3, 4])
    s = kernel.select_range(b, 1, 4, low_inclusive=False, high_inclusive=False)
    assert [t for _, t in s.to_pairs()] == [2, 3]


def test_select_range_open_ended():
    b = BAT.dense([1, 2, 3])
    assert len(kernel.select_range(b, low=2)) == 2
    assert len(kernel.select_range(b, high=2)) == 2
    assert len(kernel.select_range(b)) == 3


def test_select_eq():
    b = BAT.dense(["a", "b", "a"])
    s = kernel.select_eq(b, "a")
    assert s.head_array().tolist() == [0, 2]


def test_select_notnil():
    b = BAT.dense([1.0, np.nan, 3.0])
    assert kernel.select_notnil(b).tail.tolist() == [1.0, 3.0]
    ints = BAT.dense([1, 2])
    assert kernel.select_notnil(ints) is ints


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------
def test_join_basic():
    left = BAT(np.array([10, 20, 30]), head=np.array([0, 1, 2]))
    right = BAT(np.array(["x", "y"]), head=np.array([20, 10]))
    j = kernel.join(left, right)
    assert j.to_pairs() == [(0, "y"), (1, "x")]


def test_join_matches_values_not_positions():
    left = BAT.from_pairs([(0, 10), (1, 20)])
    right = BAT.from_pairs([(20, "twenty"), (10, "ten")])
    j = kernel.join(left, right)
    assert j.to_pairs() == [(0, "ten"), (1, "twenty")]


def test_join_multiplies_on_duplicates():
    left = BAT.from_pairs([(0, 5)])
    right = BAT.from_pairs([(5, "a"), (5, "b")])
    j = kernel.join(left, right)
    assert sorted(j.to_pairs()) == [(0, "a"), (0, "b")]


def test_join_left_major_order():
    left = BAT.from_pairs([(0, 2), (1, 1), (2, 2)])
    right = BAT.from_pairs([(1, "one"), (2, "two")])
    j = kernel.join(left, right)
    assert j.to_pairs() == [(0, "two"), (1, "one"), (2, "two")]


def test_join_no_matches():
    j = kernel.join(BAT.from_pairs([(0, 1)]), BAT.from_pairs([(9, "x")]))
    assert len(j) == 0


def test_leftfetchjoin_positional():
    col = BAT.dense([10.0, 11.0, 12.0, 13.0], hseqbase=100)
    pos = BAT.dense([102, 100])
    f = kernel.leftfetchjoin(pos, col)
    assert f.tail.tolist() == [12.0, 10.0]


def test_leftfetchjoin_requires_dense():
    col = BAT.from_pairs([(5, 1.0)])
    with pytest.raises(ValueError):
        kernel.leftfetchjoin(BAT.dense([5]), col)


def test_leftfetchjoin_out_of_range():
    col = BAT.dense([1.0, 2.0])
    with pytest.raises(IndexError):
        kernel.leftfetchjoin(BAT.dense([5]), col)


def test_semijoin_and_antijoin():
    left = BAT.from_pairs([(0, "a"), (1, "b"), (2, "c")])
    right = BAT.from_pairs([(0, 0), (2, 0)])
    assert kernel.semijoin(left, right).head_array().tolist() == [0, 2]
    assert kernel.antijoin_heads(left, right).head_array().tolist() == [1]


@given(
    st.lists(st.integers(min_value=0, max_value=20), max_size=30),
    st.lists(st.integers(min_value=0, max_value=20), max_size=30),
)
def test_property_join_equals_nested_loop(ltails, rheads):
    """The sorted-merge join agrees with a brute-force nested loop."""
    left = BAT.dense(np.array(ltails, dtype=np.int64))
    right = BAT(
        np.arange(len(rheads), dtype=np.int64),
        head=np.array(rheads, dtype=np.int64),
    )
    j = kernel.join(left, right)
    expected = [
        (lh, rt)
        for lh, lt in zip(range(len(ltails)), ltails)
        for rh, rt in zip(rheads, range(len(rheads)))
        if lt == rh
    ]
    assert sorted(j.to_pairs()) == sorted(expected)


# ----------------------------------------------------------------------
# set operations
# ----------------------------------------------------------------------
def test_union_concatenates():
    a = BAT.dense([1, 2], hseqbase=0)
    b = BAT.dense([3], hseqbase=2)
    u = kernel.union(a, b)
    assert u.to_pairs() == [(0, 1), (1, 2), (2, 3)]


def test_intersect_difference_heads():
    a = BAT.from_pairs([(1, 1), (2, 2), (3, 3)])
    b = BAT.from_pairs([(2, 0), (3, 0)])
    assert kernel.intersect_heads(a, b).head_array().tolist() == [2, 3]
    assert kernel.difference_heads(a, b).head_array().tolist() == [1]


# ----------------------------------------------------------------------
# grouping / aggregation
# ----------------------------------------------------------------------
def test_group():
    b = BAT.dense(["x", "y", "x", "z"])
    groups, extents = kernel.group(b)
    assert extents.tail.tolist() == ["x", "y", "z"]
    assert groups.tail.tolist() == [0, 1, 0, 2]


def test_aggregate_scalars():
    b = BAT.dense([1.0, 2.0, 3.0])
    assert kernel.aggregate(b, "sum") == 6.0
    assert kernel.aggregate(b, "min") == 1.0
    assert kernel.aggregate(b, "max") == 3.0
    assert kernel.aggregate(b, "avg") == 2.0
    assert kernel.aggregate(b, "count") == 3


def test_aggregate_empty():
    b = BAT.empty()
    assert kernel.aggregate(b, "count") == 0
    assert kernel.aggregate(b, "sum") is None


def test_aggregate_unknown():
    with pytest.raises(ValueError):
        kernel.aggregate(BAT.dense([1]), "median")


def test_group_aggregate_all_funcs():
    values = BAT.dense([1.0, 2.0, 3.0, 4.0])
    groups = BAT.dense([0, 1, 0, 1])
    assert kernel.group_aggregate(values, groups, 2, "sum").tail.tolist() == [4.0, 6.0]
    assert kernel.group_aggregate(values, groups, 2, "min").tail.tolist() == [1.0, 2.0]
    assert kernel.group_aggregate(values, groups, 2, "max").tail.tolist() == [3.0, 4.0]
    assert kernel.group_aggregate(values, groups, 2, "avg").tail.tolist() == [2.0, 3.0]
    assert kernel.group_aggregate(values, groups, 2, "count").tail.tolist() == [2, 2]


def test_group_aggregate_alignment_check():
    with pytest.raises(ValueError):
        kernel.group_aggregate(BAT.dense([1.0]), BAT.dense([0, 1]), 2, "sum")


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_property_group_sum_matches_python(pairs):
    gids = BAT.dense(np.array([g for g, _ in pairs], dtype=np.int64))
    vals = BAT.dense(np.array([v for _, v in pairs]))
    out = kernel.group_aggregate(vals, gids, 5, "sum")
    expected = [0.0] * 5
    for g, v in pairs:
        expected[g] += v
    assert np.allclose(out.tail, expected)


# ----------------------------------------------------------------------
# ordering
# ----------------------------------------------------------------------
def test_sort_ascending_descending():
    b = BAT.dense([3, 1, 2])
    assert kernel.sort(b).tail.tolist() == [1, 2, 3]
    assert kernel.sort(b, descending=True).tail.tolist() == [3, 2, 1]


def test_sort_preserves_head_pairing():
    b = BAT.dense([30, 10, 20], hseqbase=100)
    s = kernel.sort(b)
    assert s.to_pairs() == [(101, 10), (102, 20), (100, 30)]


def test_sort_is_stable():
    b = BAT.from_pairs([(0, 1), (1, 1), (2, 0)])
    s = kernel.sort(b)
    assert s.head_array().tolist() == [2, 0, 1]


def test_topn():
    b = BAT.dense([5, 1, 4, 2, 3])
    assert kernel.topn(b, 2).tail.tolist() == [1, 2]
    assert kernel.topn(b, 2, descending=True).tail.tolist() == [5, 4]
    with pytest.raises(ValueError):
        kernel.topn(b, -1)


def test_unique_tails():
    assert kernel.unique_tails(BAT.dense([3, 1, 3, 2])).tail.tolist() == [1, 2, 3]


# ----------------------------------------------------------------------
# element-wise
# ----------------------------------------------------------------------
def test_arith_bat_bat_and_scalar():
    a = BAT.dense([1.0, 2.0])
    b = BAT.dense([10.0, 20.0])
    assert kernel.arith("+", a, b).tail.tolist() == [11.0, 22.0]
    assert kernel.arith("*", a, 3).tail.tolist() == [3.0, 6.0]
    assert kernel.arith("-", 10, a).tail.tolist() == [9.0, 8.0]


def test_arith_errors():
    a = BAT.dense([1.0])
    with pytest.raises(ValueError):
        kernel.arith("%", a, a)
    with pytest.raises(ValueError):
        kernel.arith("+", a, BAT.dense([1.0, 2.0]))
    with pytest.raises(TypeError):
        kernel.arith("+", 1, 2)


def test_compare_ops():
    a = BAT.dense([1, 2, 3])
    assert kernel.compare("<", a, 2).tail.tolist() == [True, False, False]
    assert kernel.compare("==", a, BAT.dense([1, 0, 3])).tail.tolist() == [
        True,
        False,
        True,
    ]
    with pytest.raises(ValueError):
        kernel.compare("~", a, 1)


def test_count_bat():
    assert kernel.count_bat(BAT.dense([1, 2, 3])) == 3


# ----------------------------------------------------------------------
# BAT ordering properties and their fast paths (paper section 3.1)
# ----------------------------------------------------------------------
def test_sorted_property_cached_and_propagated():
    b = kernel.sort(BAT.dense([3, 1, 2]))
    assert b.tail_is_sorted()
    d = kernel.sort(BAT.dense([3, 1, 2]), descending=True)
    assert not d.tail_is_sorted()


def test_dense_head_is_sorted_by_nature():
    assert BAT.dense([5, 1, 3]).head_is_sorted()
    assert not BAT.from_pairs([(2, "a"), (1, "b")]).head_is_sorted()


def test_select_range_fast_path_matches_scan():
    values = np.sort(np.random.default_rng(0).integers(0, 100, 500))
    sorted_bat = BAT.dense(values, hseqbase=10)
    assert sorted_bat.tail_is_sorted()
    unsorted_bat = BAT(values.copy(), head=np.arange(10, 510))
    unsorted_bat._tsorted = False  # force the scan path
    for low, high, li, hi in [
        (20, 60, True, True),
        (20, 60, False, False),
        (None, 50, True, True),
        (30, None, True, False),
        (200, 300, True, True),  # empty result
    ]:
        fast = kernel.select_range(sorted_bat, low, high, li, hi)
        slow = kernel.select_range(unsorted_bat, low, high, li, hi)
        assert fast.to_pairs() == slow.to_pairs(), (low, high, li, hi)
        if len(fast):
            assert fast.tail_is_sorted()


def test_select_range_fast_path_preserves_oids():
    b = BAT.dense([10, 20, 30, 40], hseqbase=100)
    s = kernel.select_range(b, 20, 30)
    assert s.to_pairs() == [(101, 20), (102, 30)]


def test_join_sorted_right_head_matches_generic():
    rng = np.random.default_rng(1)
    left = BAT.dense(rng.integers(0, 50, 200))
    heads = np.sort(rng.choice(100, 50, replace=False))
    right_sorted = BAT(np.arange(50.0), head=heads)
    assert right_sorted.head_is_sorted()
    shuffled = rng.permutation(50)
    right_shuffled = BAT(np.arange(50.0)[shuffled], head=heads[shuffled])
    a = kernel.join(left, right_sorted)
    b = kernel.join(left, right_shuffled)
    assert sorted(a.to_pairs()) == sorted(b.to_pairs())


@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
)
def test_property_sorted_select_equals_scan(values, a, b):
    low, high = min(a, b), max(a, b)
    arr = np.sort(np.array(values, dtype=np.int64))
    fast = kernel.select_range(BAT.dense(arr), low, high)
    expected = [(i, v) for i, v in enumerate(arr.tolist()) if low <= v <= high]
    assert fast.to_pairs() == expected


# ----------------------------------------------------------------------
# bulk kernels against the row-at-a-time bodies they replaced
# ----------------------------------------------------------------------
def join_row_loop(left: BAT, right: BAT) -> BAT:
    """``kernel.join`` as it was: one Python iteration per matching left
    row.  Kept as the reference the bulk gather must equal."""
    rheads = right.head_array()
    if right.head_is_sorted():
        order = np.arange(len(rheads), dtype=np.int64)
        sorted_heads = rheads
    else:
        order = np.argsort(rheads, kind="stable")
        sorted_heads = rheads[order]
    lt = np.asarray(left.tail)
    lo = np.searchsorted(sorted_heads, lt, side="left")
    hi = np.searchsorted(sorted_heads, lt, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return BAT(
            np.empty(0, dtype=right.tail.dtype),
            head=np.empty(0, dtype=OID_DTYPE),
        )
    out_left = np.repeat(left.head_array(), counts)
    idx = np.empty(total, dtype=np.int64)
    pos = 0
    for i in np.nonzero(counts)[0]:
        n = counts[i]
        idx[pos : pos + n] = order[lo[i] : hi[i]]
        pos += n
    return BAT(right.tail[idx], head=out_left)


def group_count_distinct_row_loop(values: BAT, groups: BAT, n_groups: int) -> BAT:
    """``kernel.group_count_distinct`` as it was: one tuple per row."""
    if len(values) == 0:
        return BAT(np.zeros(n_groups, dtype=np.int64), head=None)
    gid = np.asarray(groups.tail, dtype=np.int64)
    pairs = np.empty(len(values), dtype=object)
    vals = np.asarray(values.tail)
    for i in range(len(values)):
        pairs[i] = (gid[i], vals[i])
    out = np.zeros(n_groups, dtype=np.int64)
    for g, _ in np.unique(pairs):
        out[g] += 1
    return BAT(out, head=None)


def assert_same_bat(got: BAT, want: BAT) -> None:
    """Element for element: heads, tails, their order and dtypes."""
    assert got.head_array().tolist() == want.head_array().tolist()
    assert got.tail.tolist() == want.tail.tolist()
    assert got.tail.dtype == want.tail.dtype
    assert got.head_array().dtype == want.head_array().dtype


# few distinct keys, so both sides carry duplicates and long runs
KEYS = st.integers(min_value=0, max_value=6)
TAIL_KINDS = {
    "int": lambda n: np.arange(n, dtype=np.int64) * 3,
    "int32": lambda n: np.arange(n, dtype=np.int32),
    "float": lambda n: np.arange(n, dtype=np.float64) / 4,
    "str": lambda n: np.array([f"r{i}" for i in range(n)], dtype="<U8"),
}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(KEYS, max_size=40),
    st.lists(KEYS, max_size=40),
    st.sampled_from(sorted(TAIL_KINDS)),
    st.booleans(),
    st.booleans(),
)
def test_property_join_equals_row_loop(ltails, rheads, kind, sort_right, dense_left):
    """Duplicates on both sides, empty sides, sorted and unsorted right
    heads, every tail kind: same pairs, same order, same dtypes."""
    if sort_right:
        rheads = sorted(rheads)
    ltails = np.array(ltails, dtype=np.int64)
    left = (
        BAT.dense(ltails, hseqbase=7)
        if dense_left
        else BAT(ltails, head=np.arange(len(ltails))[::-1] * 2)
    )
    right = BAT(
        TAIL_KINDS[kind](len(rheads)), head=np.array(rheads, dtype=np.int64)
    )
    assert_same_bat(kernel.join(left, right), join_row_loop(left, right))


@pytest.mark.parametrize("kind", sorted(TAIL_KINDS))
def test_join_zero_matches_keeps_tail_dtype(kind):
    left = BAT.dense(np.array([1, 2, 3]))
    right = BAT(TAIL_KINDS[kind](2), head=np.array([8, 9]))
    got = kernel.join(left, right)
    assert_same_bat(got, join_row_loop(left, right))
    assert len(got) == 0


def test_join_one_giant_run():
    """Every left row matches every right row (one run of equal heads);
    equal right heads keep their original relative order."""
    left = BAT.dense(np.full(50, 4))
    right = BAT(np.arange(300.0), head=np.full(300, 4))
    got = kernel.join(left, right)
    assert len(got) == 50 * 300
    assert_same_bat(got, join_row_loop(left, right))
    shuffled = np.random.default_rng(5).permutation(600)
    right = BAT(np.arange(600.0), head=np.repeat([4, 2], 300)[shuffled])
    assert_same_bat(kernel.join(left, right), join_row_loop(left, right))


def test_join_float_left_tails():
    left = BAT.dense(np.array([1.0, 2.5, 2.0, 1.0]))
    right = BAT(np.array(["a", "b", "c"]), head=np.array([2, 1, 2]))
    assert_same_bat(kernel.join(left, right), join_row_loop(left, right))


GROUPED_VALUES = st.one_of(
    st.lists(st.tuples(KEYS, st.integers(-3, 3)), max_size=50),
    st.lists(
        st.tuples(KEYS, st.sampled_from([0.0, 0.5, -1.5, 1e9, 2.0])), max_size=50
    ),
    st.lists(st.tuples(KEYS, st.sampled_from(["", "a", "ab", "b", "ba"])), max_size=50),
)


@settings(max_examples=300, deadline=None)
@given(GROUPED_VALUES, st.integers(min_value=0, max_value=3))
def test_property_group_count_distinct_equals_row_loop(pairs, spare_groups):
    """int, float and str values; groups with no row count zero."""
    gids = np.array([g for g, _ in pairs], dtype=np.int64)
    values = BAT.dense(np.array([v for _, v in pairs]))
    groups = BAT.dense(gids)
    n_groups = (int(gids.max()) + 1 if len(gids) else 0) + spare_groups
    assert_same_bat(
        kernel.group_count_distinct(values, groups, n_groups),
        group_count_distinct_row_loop(values, groups, n_groups),
    )


def test_group_count_distinct_one_giant_group():
    rng = np.random.default_rng(2)
    values = BAT.dense(rng.integers(0, 40, 5000))
    groups = BAT.dense(np.zeros(5000, dtype=np.int64))
    out = kernel.group_count_distinct(values, groups, 1)
    assert out.tail.tolist() == [len(set(values.tail.tolist()))]
