"""Pre-compilation query estimation from catalog statistics.

:class:`QueryEstimator` answers, *before anything is compiled*, the
questions the serving tier asks of a request: which engine takes it,
how many persistent BAT bytes it will ask the ring for, what that
prices to, and what fraction of rows survives its selections.

The engine answers the first three itself: the estimator routes the
request as the dispatcher does and asks that engine's ``price``
(docs/qpu.md section 1), which declares the footprint its ``compile``
would, and its ``estimate_cost``.  So the predicted bytes are the
compiled bytes by construction, for every engine, a new one included.
The MAL engine prices a text from its shape's plan template, and the
planner records on that plan the query class and the single-table
selections, resolved to columns; the estimator reads each selection's
selectivity off the column histograms, over the text's own literals.
Selectivity refines the cost picture, not the footprint: the ring
ships whole BATs however selective a predicate is.

The estimator also owns the accuracy feedback loop: callers report
predicted-vs-actual (``record``) and read it back per query class
(``accuracy_report``), which `repro stats` prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.dbms.qpu.base import CompiledQuery, KvLookup, MalQuery, StreamAggregate
from repro.dbms.sql.planner import PlannedQuery
from repro.dbms.statistics.catalog import StatisticsCatalog

__all__ = ["EstimateError", "QueryEstimate", "QueryEstimator"]

# distinct SQL texts priced per catalog before the memo starts over
_SQL_MEMO = 1024


class EstimateError(ValueError):
    """The request cannot be priced: no engine takes it, or its engine
    refuses it (bad SQL, unknown table or column, an aggregate that
    cannot be split)."""


@dataclass(frozen=True)
class QueryEstimate:
    """What the front door knows about a request before compilation.

    Frozen: one estimate answers every request with the same SQL text
    (:meth:`QueryEstimator.estimate`)."""

    engine: str            # predicted engine class: mal / kv / stream
    query_class: str       # feedback bucket, e.g. "mal:join", "kv"
    footprint_bytes: int   # predicted persistent bytes behind the footprint
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
    """Engine-priced footprints, histogram selectivities, and the
    predicted-vs-actual feedback loop.

    ``route`` maps a request to the engine that would run it
    (``RingDatabase.route``).
    """

    def __init__(self, stats: StatisticsCatalog, route: Callable[[Any], Any]):
        self.stats = stats
        self.route = route
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
        sql = request.sql if isinstance(request, MalQuery) else request
        if not isinstance(sql, str):
            return self._price(request)
        memo = self._sql
        if self.stats is not self._sql_stats or len(memo) >= _SQL_MEMO:
            memo.clear()
            self._sql_stats = self.stats
        estimate = memo.get(sql)
        if estimate is None:
            estimate = memo[sql] = self._price(sql)
        return estimate

    def _price(self, request) -> QueryEstimate:
        """Ask the engine that would run ``request`` for its price."""
        try:
            qpu = self.route(request)
        except TypeError as exc:  # no engine takes it
            raise EstimateError(str(exc)) from exc
        try:
            priced = qpu.price(request)
        except (KeyError, ValueError) as exc:  # SqlError is a ValueError
            raise EstimateError(str(exc)) from exc
        query_class, selectivity = self._selected(request, priced)
        return QueryEstimate(
            engine=priced.engine,
            query_class=query_class,
            footprint_bytes=priced.footprint_bytes,
            cost=qpu.estimate_cost(priced),
            selectivity=selectivity,
            description=priced.description,
        )

    def _selected(self, request, priced: CompiledQuery) -> Tuple[str, float]:
        """The feedback bucket of a priced request, and the fraction of
        rows it selects: a MAL plan's selections multiplied in WHERE
        order, a point lookup's one row (none on a miss), a fold's
        every row."""
        planned = priced.payload
        if isinstance(planned, PlannedQuery):
            selectivity = 1.0
            for selection in planned.selections:
                selectivity *= self._selectivity(selection)
            return (
                f"{priced.engine}:{planned.query_class}",
                max(0.0, min(1.0, selectivity)),
            )
        if isinstance(request, KvLookup):
            if not priced.footprint:
                return priced.engine, 0.0
            handle = planned[1]  # the KV engine's probed partition
            n_rows = self.stats.table(handle.schema, handle.table).n_rows
            return priced.engine, 1.0 / n_rows
        if isinstance(request, StreamAggregate):
            return f"{priced.engine}:{request.func}", 1.0
        return priced.engine, 1.0

    def _selectivity(self, selection: tuple) -> float:
        """One ``PlannedQuery.selections`` entry's selectivity."""
        op, column, value = selection
        if op == "or":
            miss = 1.0
            for branch in value:
                miss *= 1.0 - self._selectivity(branch)
            return 1.0 - miss
        schema, table, name = column
        stats = self.stats.table(schema, table).column(name)
        if op == "between":
            return stats.selectivity_between(*value)
        if op == "in":
            return min(1.0, sum(stats.selectivity_eq(v) for v in value))
        return stats.selectivity_cmp(op, value)

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
