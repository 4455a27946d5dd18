"""The binary-column storage engine's operator kernel.

The bottom layer of the MonetDB software stack (paper section 3.1) "is
formed by a library that implements a binary-column storage engine".
These are the relational operators the MAL plans of Tables 1 and 2 call:
``algebra.select``, ``algebra.join``, ``bat.reverse``, ``algebra.markT``
and friends, plus grouping/aggregation/sorting needed by the SQL
front-end.

Every function takes and returns :class:`~repro.dbms.bat.BAT` values and
is purely functional -- operators never mutate their inputs, mirroring
MonetDB's materialise-all-intermediates execution model.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.dbms.bat import BAT, OID_DTYPE

__all__ = [
    "select_range",
    "select_eq",
    "select_notnil",
    "join",
    "leftfetchjoin",
    "semijoin",
    "antijoin_heads",
    "union",
    "intersect_heads",
    "difference_heads",
    "group",
    "aggregate",
    "group_aggregate",
    "group_count_distinct",
    "unique_heads",
    "sort",
    "topn",
    "unique_tails",
    "arith",
    "compare",
    "count_bat",
]


# ----------------------------------------------------------------------
# selections
# ----------------------------------------------------------------------
def select_range(
    bat: BAT,
    low=None,
    high=None,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> BAT:
    """``algebra.select``: keep pairs whose tail is within [low, high].

    A sorted tail (the cached BAT property of section 3.1) turns the
    scan into two binary searches and a slice.
    """
    if len(bat) > 1 and bat.tail_is_sorted():
        lo_idx = 0
        hi_idx = len(bat)
        if low is not None:
            side = "left" if low_inclusive else "right"
            lo_idx = int(np.searchsorted(bat.tail, low, side=side))
        if high is not None:
            side = "right" if high_inclusive else "left"
            hi_idx = int(np.searchsorted(bat.tail, high, side=side))
        out = bat.slice(lo_idx, max(hi_idx, lo_idx))
        out._tsorted = True  # a slice of a sorted tail stays sorted
        return out
    mask = np.ones(len(bat), dtype=bool)
    if low is not None:
        mask &= (bat.tail >= low) if low_inclusive else (bat.tail > low)
    if high is not None:
        mask &= (bat.tail <= high) if high_inclusive else (bat.tail < high)
    return BAT(bat.tail[mask], head=bat.head_array()[mask])


def select_eq(bat: BAT, value) -> BAT:
    """``algebra.select`` with a point predicate."""
    mask = bat.tail == value
    return BAT(bat.tail[mask], head=bat.head_array()[mask])


def select_notnil(bat: BAT) -> BAT:
    """Drop NaN tails (the engine's nil representation for floats)."""
    if np.issubdtype(bat.tail.dtype, np.floating):
        mask = ~np.isnan(bat.tail)
        return BAT(bat.tail[mask], head=bat.head_array()[mask])
    return bat


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------
def join(left: BAT, right: BAT) -> BAT:
    """``algebra.join``: equi-join left.tail with right.head.

    Returns (left.head, right.tail) for every matching pair, in
    left-major order -- the classic BAT-algebra join of the MAL plans.
    A sorted right head ("sorted columns lead to sort-merge join
    operations", section 3.1) skips the sort pass.
    """
    rheads = right.head_array()
    if right.head_is_sorted():
        order = None  # positions in the sorted heads are right positions
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
    # Gather the matching right positions in left-major order: every
    # left row i contributes the run lo[i]..hi[i] of the sorted heads,
    # i.e. its run start repeated counts[i] times plus 0..counts[i]-1.
    run_start = np.cumsum(counts) - counts
    idx = np.repeat(lo - run_start, counts) + np.arange(total, dtype=np.int64)
    if order is not None:
        idx = order[idx]
    return BAT(right.tail[idx], head=out_left)


def leftfetchjoin(positions: BAT, column: BAT) -> BAT:
    """``algebra.leftfetchjoin``: positional fetch through a void head.

    ``positions`` maps new OIDs to OIDs of ``column`` (which must have a
    dense head); returns (positions.head, column.tail[positions.tail]).
    This is the cheap projection MonetDB uses after candidate selection.
    """
    if not column.is_dense_head:
        raise ValueError("leftfetchjoin needs a dense-headed column")
    offsets = np.asarray(positions.tail, dtype=np.int64) - column.hseqbase
    if len(offsets) and (offsets.min() < 0 or offsets.max() >= len(column)):
        raise IndexError("positions out of column range")
    return BAT(column.tail[offsets], head=positions.head_array())


def semijoin(left: BAT, right: BAT) -> BAT:
    """``algebra.semijoin``: keep left pairs whose head appears in
    right's head."""
    keep = np.isin(left.head_array(), right.head_array())
    return BAT(left.tail[keep], head=left.head_array()[keep])


def antijoin_heads(left: BAT, right: BAT) -> BAT:
    """Keep left pairs whose head does NOT appear in right's head."""
    keep = ~np.isin(left.head_array(), right.head_array())
    return BAT(left.tail[keep], head=left.head_array()[keep])


# ----------------------------------------------------------------------
# set operations on candidate lists
# ----------------------------------------------------------------------
def union(a: BAT, b: BAT) -> BAT:
    """Concatenate two BATs (the per-partition combine of bound columns)."""
    head = np.concatenate([a.head_array(), b.head_array()])
    tail = np.concatenate([np.asarray(a.tail), np.asarray(b.tail)])
    return BAT(tail, head=head)


def intersect_heads(a: BAT, b: BAT) -> BAT:
    """Pairs of ``a`` whose head also occurs in ``b`` (candidate AND)."""
    return semijoin(a, b)


def difference_heads(a: BAT, b: BAT) -> BAT:
    return antijoin_heads(a, b)


# ----------------------------------------------------------------------
# grouping and aggregation
# ----------------------------------------------------------------------
def group(bat: BAT) -> Tuple[BAT, BAT]:
    """``group.new``: partition by tail value.

    Returns ``(groups, extents)``: *groups* maps each input head to its
    group id; *extents* maps each group id to a representative tail
    value.
    """
    values, inverse = np.unique(np.asarray(bat.tail), return_inverse=True)
    groups = BAT(inverse.astype(OID_DTYPE), head=bat.head_array())
    extents = BAT(values, head=None)
    return groups, extents


_AGG_FUNCS: Dict[str, Callable[[np.ndarray], float]] = {
    "sum": np.sum,
    "min": np.min,
    "max": np.max,
    "avg": np.mean,
    "count": len,
}


def aggregate(bat: BAT, func: str):
    """``aggr.sum`` etc.: scalar aggregate over the whole tail."""
    if func not in _AGG_FUNCS:
        raise ValueError(f"unknown aggregate {func!r}")
    if len(bat) == 0:
        return 0 if func == "count" else None
    result = _AGG_FUNCS[func](np.asarray(bat.tail))
    return result.item() if hasattr(result, "item") else result


def group_aggregate(values: BAT, groups: BAT, n_groups: int, func: str) -> BAT:
    """Per-group aggregate: values and groups must be head-aligned.

    Returns a dense-headed BAT mapping group id -> aggregate.
    """
    if func not in _AGG_FUNCS:
        raise ValueError(f"unknown aggregate {func!r}")
    if len(values) != len(groups):
        raise ValueError("values and groups must align")
    gid = np.asarray(groups.tail, dtype=np.int64)
    if func == "count":
        out = np.bincount(gid, minlength=n_groups).astype(np.int64)
        return BAT(out, head=None)
    vals = np.asarray(values.tail, dtype=np.float64)
    if func == "sum":
        out = np.bincount(gid, weights=vals, minlength=n_groups)
    elif func == "avg":
        sums = np.bincount(gid, weights=vals, minlength=n_groups)
        counts = np.bincount(gid, minlength=n_groups)
        with np.errstate(invalid="ignore"):
            out = sums / np.maximum(counts, 1)
    else:  # min / max need a scatter pass
        fill = np.inf if func == "min" else -np.inf
        out = np.full(n_groups, fill)
        np.minimum.at(out, gid, vals) if func == "min" else np.maximum.at(
            out, gid, vals
        )
    return BAT(out, head=None)


# ----------------------------------------------------------------------
# ordering
# ----------------------------------------------------------------------
def sort(bat: BAT, descending: bool = False) -> BAT:
    """``algebra.sort``: reorder pairs by tail value (stable).

    The result carries the sorted-tail property for downstream fast
    paths (ascending sorts only).
    """
    order = np.argsort(np.asarray(bat.tail), kind="stable")
    if descending:
        order = order[::-1]
    return BAT(
        bat.tail[order],
        head=bat.head_array()[order],
        tail_sorted=not descending,
    )


def topn(bat: BAT, n: int, descending: bool = False) -> BAT:
    """``algebra.slice`` after sort: the first ``n`` pairs by tail."""
    if n < 0:
        raise ValueError("n cannot be negative")
    return sort(bat, descending=descending).slice(0, n)


def unique_tails(bat: BAT) -> BAT:
    """Distinct tail values (dense head)."""
    return BAT(np.unique(np.asarray(bat.tail)), head=None)


def unique_heads(bat: BAT) -> BAT:
    """Drop pairs with duplicate heads, keeping the first occurrence.

    Candidate lists built from OR-ed selections may contain the same OID
    twice; deduplicating by head restores set semantics before joins.
    """
    heads = bat.head_array()
    _, first = np.unique(heads, return_index=True)
    first.sort()
    return BAT(bat.tail[first], head=heads[first])


def group_count_distinct(values: BAT, groups: BAT, n_groups: int) -> BAT:
    """COUNT(DISTINCT value) per group; values and groups head-aligned."""
    if len(values) != len(groups):
        raise ValueError("values and groups must align")
    if len(values) == 0:
        return BAT(np.zeros(n_groups, dtype=np.int64), head=None)
    gid = np.asarray(groups.tail, dtype=np.int64)
    # one code per (group, value) pair: the distinct codes of a group
    # are its distinct values
    distinct, codes = np.unique(np.asarray(values.tail), return_inverse=True)
    pairs = np.unique(gid * len(distinct) + codes)
    out = np.bincount(pairs // len(distinct), minlength=n_groups)
    return BAT(out.astype(np.int64), head=None)


# ----------------------------------------------------------------------
# scalar maps
# ----------------------------------------------------------------------
_ARITH: Dict[str, Callable] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
}

_COMPARE: Dict[str, Callable] = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def arith(op: str, left, right) -> BAT:
    """``batcalc``: element-wise arithmetic; either side may be a scalar
    (at least one must be a BAT)."""
    if op not in _ARITH:
        raise ValueError(f"unknown operator {op!r}")
    if isinstance(left, BAT) and isinstance(right, BAT):
        if len(right) != len(left):
            raise ValueError("operand length mismatch")
        return BAT(_ARITH[op](np.asarray(left.tail), right.tail), head=left.head)
    if isinstance(left, BAT):
        return BAT(_ARITH[op](np.asarray(left.tail), right), head=left.head)
    if isinstance(right, BAT):
        return BAT(_ARITH[op](left, np.asarray(right.tail)), head=right.head)
    raise TypeError("arith needs at least one BAT operand")


def compare(op: str, left: BAT, right) -> BAT:
    """Element-wise comparison producing a boolean-tailed BAT."""
    if op not in _COMPARE:
        raise ValueError(f"unknown operator {op!r}")
    rtail = right.tail if isinstance(right, BAT) else right
    return BAT(_COMPARE[op](np.asarray(left.tail), rtail), head=left.head)


def count_bat(bat: BAT) -> int:
    """``aggr.count``."""
    return len(bat)
