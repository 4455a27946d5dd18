"""The MAL interpreter and the local function registry.

"The MAL program is interpreted in a linear fashion.  The overhead of
the interpreter is kept low, well below one usec per instruction"
(paper section 3.2).  This interpreter walks the plan in order; an
instruction's implementation may be

* a plain function -- executed immediately, or
* a generator function -- its generator is driven by the caller
  (``yield from``), which is how the Data Cyclotron's blocking ``pin()``
  call suspends the interpreter thread inside the simulation.

The :func:`local_registry` implements every operator the SQL planner
emits against the in-process column kernel -- the "single node MonetDB
instance" baseline of the paper's TPC-H calibration.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Generator, Optional, Tuple

import numpy as np

from repro.dbms import kernel
from repro.dbms.bat import BAT
from repro.dbms.catalog import Catalog
from repro.dbms.mal import Dies, Instruction, Plan, Var

__all__ = ["Interpreter", "local_registry", "ResultSet", "UnknownOperator"]

Registry = Dict[str, Callable]


class UnknownOperator(KeyError):
    """Raised when a plan calls an operator the registry lacks."""


class ResultSet:
    """The query result table built by ``sql.resultSet`` / ``sql.rsCol``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.columns: list = []

    def add_column(self, name: str, values) -> None:
        self.names.append(name)
        self.columns.append(values)

    @property
    def n_rows(self) -> int:
        if not self.columns:
            return 0
        first = self.columns[0]
        return len(first) if hasattr(first, "__len__") else 1

    def rows(self) -> list[tuple]:
        cols = [
            c.tail if isinstance(c, BAT) else c
            for c in self.columns
        ]
        cols = [c if hasattr(c, "__len__") else [c] for c in cols]

        def native(value):
            return value.item() if hasattr(value, "item") else value

        return (
            [tuple(native(v) for v in row) for row in zip(*[list(c) for c in cols])]
            if cols
            else []
        )

    def column(self, name: str):
        col = self.columns[self.names.index(name)]
        return col.tail if isinstance(col, BAT) else col

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultSet {self.names} n={self.n_rows}>"


class Interpreter:
    """Executes a plan against a function registry."""

    def __init__(self, registry: Registry):
        self.registry = registry

    def run(
        self,
        plan: Plan,
        env: Optional[Dict[str, Any]] = None,
        dies: Optional[Dies] = None,
    ) -> Dict[str, Any]:
        """Execute synchronously; returns the final variable environment."""
        gen = self.run_gen(plan, env, dies)
        try:
            while True:
                next(gen)
                raise RuntimeError(
                    "plan yielded (blocking op) under the synchronous interpreter"
                )
        except StopIteration as stop:
            return stop.value

    def run_gen(
        self,
        plan: Plan,
        env: Optional[Dict[str, Any]] = None,
        dies: Optional[Dies] = None,
    ) -> Generator[Any, None, Dict[str, Any]]:
        """Execute as a generator: blocking operators yield upwards.

        With the plan's end-of-life table ``dies``, each instruction's
        dead variables leave ``env`` once its results are assigned;
        without it every variable lives until the plan ends.
        """
        env = env if env is not None else {}
        for index, instr in enumerate(plan):
            fn = self.registry.get(instr.opname)
            if fn is None:
                raise UnknownOperator(instr.opname)
            args = tuple(self._resolve(a, env) for a in instr.args)
            result = fn(*args)
            if inspect.isgenerator(result):
                result = yield from result
            self._assign(instr, result, env)
            if dies is not None:
                for name in dies[index]:
                    del env[name]
        return env

    @staticmethod
    def _resolve(arg: Any, env: Dict[str, Any]) -> Any:
        if isinstance(arg, Var):
            return _value(arg, env)
        if isinstance(arg, (list, tuple)):
            return [_value(a, env) if isinstance(a, Var) else a for a in arg]
        return arg

    @staticmethod
    def _assign(instr: Instruction, result: Any, env: Dict[str, Any]) -> None:
        if not instr.results:
            return
        if len(instr.results) == 1:
            env[instr.results[0]] = result
        else:
            if not isinstance(result, tuple) or len(result) != len(instr.results):
                raise ValueError(
                    f"{instr.opname} returned {result!r} for {instr.results}"
                )
            for name, value in zip(instr.results, result):
                env[name] = value


def _value(var: Var, env: Dict[str, Any]) -> Any:
    try:
        return env[var.name]
    except KeyError:
        raise NameError(f"variable {var.name} used before assignment") from None


# ----------------------------------------------------------------------
# the local (single-node) registry
# ----------------------------------------------------------------------
def positions(bat: BAT) -> BAT:
    """Dense-headed map: result row -> the pair's old head OID."""
    return BAT(bat.head_array().copy(), head=None)


def fetchjoin(pos: BAT, column: BAT) -> BAT:
    """General fetch: join pos.tail against column.head (any head)."""
    if column.is_dense_head:
        return kernel.leftfetchjoin(pos, column)
    return kernel.join(pos, column)


def local_registry(catalog: Catalog) -> Registry:
    """Operator implementations for purely local execution."""

    def bind(schema: str, table: str, column: str, partition: int) -> BAT:
        return catalog.bind(schema, table, column, partition)

    def result_set(*_meta) -> ResultSet:
        # MonetDB's sql.resultSet takes shape metadata (e.g. Table 1's
        # ``sql.resultSet(1, 1, X15)``); our ResultSet collects lazily.
        return ResultSet()

    def rs_col(rs: ResultSet, name: str, *rest) -> ResultSet:
        # two calling conventions: ours ``(rs, name, values)`` and
        # MonetDB's ``(rs, tableName, colName, type, digits, scale, bat)``
        # as printed in the paper's Table 1.
        if not rest:
            raise TypeError("sql.rsCol needs a values argument")
        if len(rest) == 1:
            values = rest[0]
        else:
            name = str(rest[0])
            values = rest[-1]
        rs.add_column(name, values)
        return rs

    return {
        "sql.bind": bind,
        "sql.resultSet": result_set,
        "sql.rsCol": rs_col,
        # output plumbing of the paper's plans (simulation no-ops)
        "io.stdout": lambda: None,
        "sql.exportResult": lambda _stream, rs: rs,
        # selections
        "algebra.select": kernel.select_range,
        "algebra.selectEq": kernel.select_eq,
        # joins & fetches
        "algebra.join": kernel.join,
        "algebra.leftfetchjoin": kernel.leftfetchjoin,
        "algebra.fetchjoin": fetchjoin,
        "algebra.semijoin": kernel.semijoin,
        "algebra.antijoin": kernel.antijoin_heads,
        # shape
        "bat.reverse": lambda b: b.reverse(),
        "bat.mirror": lambda b: b.mirror(),
        "algebra.markH": lambda b, base=0: b.mark(base),
        "algebra.markT": lambda b, base=0: b.mark_tail(base),
        "algebra.positions": positions,
        "algebra.slice": lambda b, lo, hi: b.slice(lo, hi),
        "bat.union": kernel.union,
        "algebra.kunion": kernel.union,
        "algebra.kintersect": kernel.intersect_heads,
        "algebra.kdifference": kernel.difference_heads,
        # grouping / aggregation
        "group.new": kernel.group,
        "group.multi": _group_multi,
        "aggr.scalar": kernel.aggregate,
        # (values, groups, extents, func): group count comes from extents
        "aggr.group": lambda values, groups, extents, func: kernel.group_aggregate(
            values, groups, len(extents), func
        ),
        "aggr.count": kernel.count_bat,
        # ordering
        "algebra.sort": kernel.sort,
        "algebra.topn": kernel.topn,
        "algebra.unique": kernel.unique_tails,
        "algebra.uniqueHeads": kernel.unique_heads,
        "algebra.nth": lambda seq, i: seq[i],
        "aggr.countDistinct": lambda values, groups, extents: (
            kernel.group_count_distinct(values, groups, len(extents))
        ),
        # element-wise
        "calc.arith": kernel.arith,
        "calc.compare": kernel.compare,
        "calc.const": lambda value: value,
        "bat.new": lambda values: BAT.dense(values),
    }


#: mixed-radix group codes are re-densified before they could pass this
_MAX_GROUP_CODE = 2**62


def _group_multi(bats: list) -> Tuple[BAT, list]:
    """Group by several head-aligned columns at once.

    Returns (groups, extents_list): groups maps each head to a combined
    group id; extents_list has, per input column, a dense BAT mapping
    group id -> that column's key value.  Group ids follow the
    lexicographic order of the key tuples.
    """
    if not bats:
        raise ValueError("group.multi needs at least one column")
    n = len(bats[0])
    for b in bats:
        if len(b) != n:
            raise ValueError("group.multi columns must align")
    if n == 0:
        empty = BAT.empty(np.int64)
        return empty, [BAT.empty(b.tail.dtype) for b in bats]
    # Factorise each column into its sorted-value codes and combine the
    # codes as mixed-radix digits, first column most significant: the
    # combined integers sort exactly as the key tuples do.
    columns = [np.asarray(b.tail) for b in bats]
    combined = np.zeros(n, dtype=np.int64)
    radix = 1
    for column in columns:
        distinct, codes = np.unique(column, return_inverse=True)
        if radix * len(distinct) > _MAX_GROUP_CODE:
            # order-preserving re-densification keeps the digits in int64
            dense, combined = np.unique(combined, return_inverse=True)
            radix = len(dense)
        combined = combined * len(distinct) + codes
        radix *= len(distinct)
    _, first, inverse = np.unique(combined, return_index=True, return_inverse=True)
    groups = BAT(inverse.astype(np.int64), head=bats[0].head_array())
    return groups, [BAT(_extent(column[first]), head=None) for column in columns]


def _extent(keys: np.ndarray) -> np.ndarray:
    """String keys at the width of the longest one, as ``np.array`` over
    the values would size them: operator cost is charged on ``nbytes``,
    so a wider extent would read as a slower plan."""
    if keys.dtype.kind not in "US":
        return keys
    width = max(int(np.char.str_len(keys).max()), 1)
    return keys.astype(f"{keys.dtype.kind}{width}")
