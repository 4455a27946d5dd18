"""Pre-compilation query estimation from catalog statistics.

:class:`QueryEstimator` answers, *before any QPU compiles anything*,
the three questions the serving tier needs:

* which engine class will take the request (mirrors ``accepts``),
* how many persistent BAT bytes it will ask the ring for (mirrors each
  engine's ``compile`` footprint), and
* what that footprint prices to under the shared operator cost model
  (mirrors ``estimate_cost``).

For the MAL engine the footprint walk reproduces the planner's binding
rules exactly -- every referenced column binds *all* its partitions,
plus the join-universe bind of a predicate-free driving table -- so on
in-catalog queries the predicted bytes equal
``CompiledQuery.footprint_bytes`` to the byte.  Histogram selectivities
refine the *cost* picture (output cardinality, deadline choice), not
the footprint: the ring ships whole BATs regardless of how selective a
predicate is, which is exactly why footprint prediction can be exact.

The estimator also owns the accuracy feedback loop: callers report
predicted-vs-actual (``record``) and read it back per query class
(``accuracy_report``), which `repro stats` prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.dbms.cost import OperatorCostModel, default_cost_model
from repro.dbms.qpu.base import KvLookup, MalQuery, StreamAggregate
from repro.dbms.sql.parser import (
    AggCall,
    Between,
    BinOp,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    OrGroup,
    SqlError,
    Star,
    parse_cached,
)
from repro.dbms.statistics.catalog import StatisticsCatalog, TableStats

__all__ = ["EstimateError", "QueryEstimate", "QueryEstimator"]

_MERGEABLE = ("sum", "count", "min", "max", "avg")

# distinct SQL texts priced per catalog before the memo starts over
_SQL_MEMO = 1024


class EstimateError(ValueError):
    """The request cannot be costed (unknown table/column, bad SQL)."""


@dataclass(frozen=True)
class QueryEstimate:
    """What the front door knows about a request before compilation.

    Frozen: one estimate answers every request with the same SQL text
    (:meth:`QueryEstimator.estimate`)."""

    engine: str            # predicted engine class: mal / kv / stream
    query_class: str       # feedback bucket, e.g. "mal:join", "kv"
    footprint_bats: int    # predicted number of persistent BATs touched
    footprint_bytes: int   # predicted persistent bytes behind them
    cost: float            # predicted one-pass operator cost (seconds)
    selectivity: float     # predicted fraction of rows surviving WHERE
    description: str = ""


@dataclass
class _ClassAccuracy:
    """Running predicted-vs-actual tallies for one query class."""

    queries: int = 0
    exact_bytes: int = 0
    zero_actual: int = 0
    sum_ratio: float = 0.0
    max_ratio: float = 0.0
    min_ratio: float = float("inf")
    sum_abs_rel_error: float = 0.0
    predicted_bytes: int = 0
    actual_bytes: int = 0
    sum_service_time: float = 0.0
    n_service: int = 0


class QueryEstimator:
    """Statistics-driven footprint/cost prediction + feedback loop."""

    def __init__(
        self,
        stats: StatisticsCatalog,
        cost_model: Optional[OperatorCostModel] = None,
        schema: str = "sys",
    ):
        self.stats = stats
        self.cost_model = cost_model or default_cost_model()
        self.schema = schema  # of a KV / stream request naming none
        self._accuracy: Dict[str, _ClassAccuracy] = {}
        # (request, stats, estimate) of the last answer
        self._last: Tuple[object, Optional[StatisticsCatalog], object] = (
            None, None, None
        )
        # SQL text -> estimate, priced from ``_sql_stats``
        self._sql: Dict[str, QueryEstimate] = {}
        self._sql_stats: Optional[StatisticsCatalog] = None

    # ==================================================================
    # estimation
    # ==================================================================
    def estimate(self, request) -> QueryEstimate:
        """Predict engine / footprint / cost for any supported request.

        The last answer is kept by identity: the front door prices an
        arrival and the dispatcher's valve prices the same object a
        moment later, so the second is a lookup.  SQL is also priced once
        per text: a burst repeats a handful of statements.  An estimate
        is a pure function of the request and the statistics, and both
        are compared, so a rebuilt catalog is never answered from before.
        """
        last_request, last_stats, last = self._last
        if request is last_request and self.stats is last_stats:
            return last
        estimate = self._estimate(request)
        self._last = (request, self.stats, estimate)
        return estimate

    def _estimate(self, request) -> QueryEstimate:
        if isinstance(request, KvLookup):
            return self._estimate_kv(request)
        if isinstance(request, StreamAggregate):
            return self._estimate_stream(request)
        sql = request.sql if isinstance(request, MalQuery) else request
        if not isinstance(sql, str):
            raise EstimateError(f"cannot estimate request {request!r}")
        memo = self._sql
        if self.stats is not self._sql_stats or len(memo) >= _SQL_MEMO:
            memo.clear()
            self._sql_stats = self.stats
        estimate = memo.get(sql)
        if estimate is None:
            estimate = memo[sql] = self._estimate_sql(sql)
        return estimate

    # ------------------------------------------------------------------
    def _estimate_kv(self, request: KvLookup) -> QueryEstimate:
        ts = self._table(self._schema_of(request), request.table)
        cs = self._column(ts, request.column)
        hit = 0 <= request.key < ts.n_rows
        if hit:
            part = min(
                ts.n_partitions - 1,
                request.key // max(1, ts.rows_per_partition),
            )
            nbytes, bats = cs.partition_bytes[part], 1
        else:
            nbytes, bats = 0, 0  # a miss pins nothing
        return QueryEstimate(
            engine="kv",
            query_class="kv",
            footprint_bats=bats,
            footprint_bytes=nbytes,
            cost=self.cost_model.fixed,
            selectivity=(1.0 / ts.n_rows) if hit and ts.n_rows else 0.0,
            description=request.describe(),
        )

    # ------------------------------------------------------------------
    def _estimate_stream(self, request: StreamAggregate) -> QueryEstimate:
        if request.func not in _MERGEABLE:
            raise EstimateError(
                f"aggregate {request.func!r} is not decomposable"
            )
        ts = self._table(self._schema_of(request), request.table)
        nbytes = self._column(ts, request.value_column).total_bytes
        bats = ts.n_partitions
        if request.group_column is not None:
            nbytes += self._column(ts, request.group_column).total_bytes
            bats += ts.n_partitions
        return QueryEstimate(
            engine="stream",
            query_class=f"stream:{request.func}",
            footprint_bats=bats,
            footprint_bytes=nbytes,
            cost=self.cost_model.bytes_cost(nbytes),
            selectivity=1.0,
            description=request.describe(),
        )

    # ------------------------------------------------------------------
    def _estimate_sql(self, sql: str) -> QueryEstimate:
        try:
            ast = parse_cached(sql)
        except SqlError as exc:
            raise EstimateError(str(exc)) from exc
        bindings: Dict[str, TableStats] = {}
        for ref in ast.tables:
            if ref.binding in bindings:
                raise EstimateError(f"duplicate table binding {ref.binding!r}")
            bindings[ref.binding] = self._table(ref.schema, ref.name)

        refs: Set[Tuple[str, str]] = set()
        selective: Set[str] = set()    # bindings with single-table selections
        selectivity = 1.0

        if any(isinstance(item.expr, Star) for item in ast.items):
            # the planner expands * to every column of every FROM table
            for binding, ts in bindings.items():
                refs.update((binding, column) for column in ts.columns)
        else:
            for item in ast.items:
                self._collect_expr(item.expr, bindings, refs)

        for pred in ast.where:
            sel = self._collect_predicate(pred, bindings, refs, selective)
            selectivity *= sel
        for col in ast.group_by:
            refs.add(self._resolve(col, bindings))
        for cond in ast.having:
            if cond.agg.arg is not None:
                self._collect_expr(cond.agg.arg, bindings, refs)
        output_names = [
            self._item_name(item, i) for i, item in enumerate(ast.items)
        ]
        for item in ast.order_by:
            ref = item.expr
            if not isinstance(ref, ColumnRef):
                continue
            # an output alias (or output column name) wins over a base
            # column, mirroring the planner's ``_order_key``
            if ref.table is None and ref.column in output_names:
                continue
            refs.add(self._resolve(ref, bindings))

        # join-universe rule: a driving table with no selection binds its
        # first catalog column as the candidate universe (planner
        # ``_init_state``), so it rides the ring even when unreferenced
        first = ast.tables[0].binding
        if first not in selective:
            refs.add((first, bindings[first].first_column))

        nbytes = sum(
            bindings[b].column(c).total_bytes for b, c in refs
        )
        bats = sum(bindings[b].n_partitions for b, _ in refs)
        if len(ast.tables) > 1:
            shape = "join"
        elif ast.group_by:
            shape = "group"
        elif any(isinstance(i.expr, AggCall) for i in ast.items):
            shape = "agg"
        else:
            shape = "scan"
        return QueryEstimate(
            engine="mal",
            query_class=f"mal:{shape}",
            footprint_bats=bats,
            footprint_bytes=nbytes,
            cost=self.cost_model.bytes_cost(nbytes),
            selectivity=max(0.0, min(1.0, selectivity)),
            description=sql,
        )

    # ------------------------------------------------------------------
    # AST walks (mirror repro.dbms.sql.planner resolution rules)
    # ------------------------------------------------------------------
    def _schema_of(self, request) -> str:
        """The KV and streaming engines' own default-schema rule."""
        return request.schema if request.schema is not None else self.schema

    def _table(self, schema: str, name: str) -> TableStats:
        try:
            return self.stats.table(schema, name)
        except KeyError as exc:
            raise EstimateError(str(exc)) from exc

    @staticmethod
    def _column(ts: TableStats, name: str):
        try:
            return ts.column(name)
        except KeyError as exc:
            raise EstimateError(str(exc)) from exc

    def _resolve(
        self, ref: ColumnRef, bindings: Dict[str, TableStats]
    ) -> Tuple[str, str]:
        if ref.table is not None:
            ts = bindings.get(ref.table)
            if ts is None:
                raise EstimateError(f"unknown table reference {ref.table!r}")
            self._column(ts, ref.column)
            return ref.table, ref.column
        owners = [b for b, ts in bindings.items() if ref.column in ts.columns]
        if not owners:
            raise EstimateError(f"unknown column {ref.column!r}")
        if len(owners) > 1:
            raise EstimateError(f"ambiguous column {ref.column!r} (in {owners})")
        return owners[0], ref.column

    @staticmethod
    def _item_name(item, idx: int) -> str:
        """The planner's output-column naming (``_item_name``)."""
        if item.alias:
            return item.alias
        if isinstance(item.expr, ColumnRef):
            return item.expr.column
        if isinstance(item.expr, AggCall):
            inner = "*" if item.expr.arg is None else "expr"
            if isinstance(item.expr.arg, ColumnRef):
                inner = item.expr.arg.column
            return f"{item.expr.func}_{inner}"
        return f"col_{idx}"

    def _collect_expr(self, expr, bindings, refs) -> None:
        if isinstance(expr, ColumnRef):
            refs.add(self._resolve(expr, bindings))
        elif isinstance(expr, BinOp):
            self._collect_expr(expr.left, bindings, refs)
            self._collect_expr(expr.right, bindings, refs)
        elif isinstance(expr, AggCall) and expr.arg is not None:
            self._collect_expr(expr.arg, bindings, refs)

    def _collect_predicate(self, pred, bindings, refs, selective) -> float:
        """Collect column references; return the predicate's selectivity
        and mark bindings that gained a single-table selection."""
        if isinstance(pred, (Between, InList)):
            binding, column = self._resolve(pred.col, bindings)
            refs.add((binding, column))
            selective.add(binding)
            cs = bindings[binding].column(column)
            if isinstance(pred, Between):
                return cs.selectivity_between(pred.low.value, pred.high.value)
            hits = sum(cs.selectivity_eq(lit.value) for lit in pred.values)
            return min(1.0, hits)
        if isinstance(pred, OrGroup):
            miss = 1.0
            for branch in pred.preds:
                miss *= 1.0 - self._collect_predicate(
                    branch, bindings, refs, selective
                )
            return 1.0 - miss
        if not isinstance(pred, Comparison):
            raise EstimateError(f"unsupported predicate {pred!r}")
        lcol = isinstance(pred.left, ColumnRef)
        rcol = isinstance(pred.right, ColumnRef)
        if lcol and rcol:
            # a join edge (==, cross-binding) or a post-join filter;
            # neither creates a single-table candidate list
            refs.add(self._resolve(pred.left, bindings))
            refs.add(self._resolve(pred.right, bindings))
            return 1.0
        if lcol and isinstance(pred.right, Literal):
            binding, column = self._resolve(pred.left, bindings)
            op, value = pred.op, pred.right.value
        elif rcol and isinstance(pred.left, Literal):
            binding, column = self._resolve(pred.right, bindings)
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            op, value = flip.get(pred.op, pred.op), pred.left.value
        else:
            raise EstimateError(f"unsupported predicate {pred!r}")
        refs.add((binding, column))
        selective.add(binding)
        return bindings[binding].column(column).selectivity_cmp(op, value)

    # ==================================================================
    # accuracy feedback loop
    # ==================================================================
    def record(
        self,
        estimate: QueryEstimate,
        actual_bytes: int,
        service_time: Optional[float] = None,
    ) -> float:
        """Fold one predicted-vs-actual observation into the per-class
        tallies; returns the bytes ratio (predicted / actual)."""
        acc = self._accuracy.setdefault(estimate.query_class, _ClassAccuracy())
        acc.queries += 1
        acc.predicted_bytes += estimate.footprint_bytes
        acc.actual_bytes += actual_bytes
        if service_time is not None:
            acc.sum_service_time += service_time
            acc.n_service += 1
        if estimate.footprint_bytes == actual_bytes:
            acc.exact_bytes += 1
        if actual_bytes == 0:
            if estimate.footprint_bytes != 0:
                acc.zero_actual += 1
            ratio = 1.0 if estimate.footprint_bytes == 0 else float("inf")
            if ratio == 1.0:
                self._fold_ratio(acc, ratio)
            return ratio
        ratio = estimate.footprint_bytes / actual_bytes
        self._fold_ratio(acc, ratio)
        return ratio

    @staticmethod
    def _fold_ratio(acc: _ClassAccuracy, ratio: float) -> None:
        acc.sum_ratio += ratio
        acc.max_ratio = max(acc.max_ratio, ratio)
        acc.min_ratio = min(acc.min_ratio, ratio)
        acc.sum_abs_rel_error += abs(ratio - 1.0)

    def accuracy_report(self) -> Dict[str, dict]:
        """Per-class predicted-vs-actual summary (see `repro stats`)."""
        report: Dict[str, dict] = {}
        for cls in sorted(self._accuracy):
            acc = self._accuracy[cls]
            rated = acc.queries - acc.zero_actual
            report[cls] = {
                "queries": acc.queries,
                "exact_bytes_fraction": acc.exact_bytes / max(1, acc.queries),
                "mean_bytes_ratio": acc.sum_ratio / max(1, rated),
                "min_bytes_ratio": 0.0 if rated == 0 else acc.min_ratio,
                "max_bytes_ratio": acc.max_ratio,
                "mean_abs_rel_error": acc.sum_abs_rel_error / max(1, rated),
                "predicted_bytes": acc.predicted_bytes,
                "actual_bytes": acc.actual_bytes,
                "mean_service_time": (
                    acc.sum_service_time / acc.n_service
                    if acc.n_service else None
                ),
            }
        return report
