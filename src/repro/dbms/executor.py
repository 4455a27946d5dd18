"""Distributed query execution over the storage ring (functional mode).

This module closes the loop of the paper's architecture (Figure 2), but
since the QPU refactor (docs/qpu.md) it owns only the *ring side* of
query processing: pricing, admission, query-id assignment,
registration, completion and the intermediate-result cache.  The
processing itself
lives behind the :class:`~repro.dbms.qpu.QueryProcessingUnit` protocol
-- :class:`RingDatabase` is a thin dispatcher that routes each submitted
request to the first accepting engine:

* SQL text / :class:`MalQuery` -> the MAL engine (compile to a plan,
  DC-optimize, interpret on a ring node -- the paper's own model);
* :class:`KvLookup` -> the KV engine (single-BAT point probe);
* :class:`StreamAggregate` -> the streaming engine (fold partitions in
  ring-cycle order).

All engines move data exclusively through request/pin/unpin, so they
share one hot-set economy: a KV tenant hammering two partitions raises
their LOI against an analytic tenant's scan footprint.

Every query registers on the bus the same way, whatever its engine;
``tests/test_qpu_golden.py`` pins the MAL path's event stream (5 seeds
x 3 workloads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence

import repro.events.types as ev
from repro.core.config import DataCyclotronConfig
from repro.core.ring import DataCyclotron
from repro.dbms.catalog import Catalog
from repro.dbms.cost import OperatorCostModel, default_cost_model
from repro.dbms.interpreter import ResultSet, local_registry
from repro.dbms.qpu import (
    CompiledQuery,
    KvQpu,
    MalQpu,
    QpuContext,
    QueryAbort,
    QueryProcessingUnit,
    StreamingAggQpu,
)
from repro.dbms.sql.planner import PlannedQuery
from repro.dbms.statistics import (
    EstimateError,
    QueryEstimate,
    QueryEstimator,
    StatisticsCatalog,
)
from repro.sim.process import Process

__all__ = [
    "OperatorCostModel",
    "QueryHandle",
    "RingDatabase",
    "QueryAbort",
    "default_cost_model",
]


@dataclass
class QueryHandle:
    """Tracks one submitted distributed query."""

    query_id: int
    node: int
    sql: str
    process: Process
    engine: str = "mal"
    request: Any = None
    estimated_cost: float = 0.0
    footprint_bytes: int = 0  # persistent bytes behind the compiled footprint

    @property
    def done(self) -> bool:
        return self.process.finished

    @property
    def result(self) -> Optional[ResultSet]:
        """The result, or None if the query failed / is still running.

        MAL queries resolve to a :class:`ResultSet`; KV lookups to a
        scalar; streaming aggregates to a scalar or ``{group: value}``.
        """
        if not self.process.finished:
            return None
        return self.process.result


class RingDatabase:
    """A distributed database over a simulated Data Cyclotron ring.

    >>> from repro.core import DataCyclotronConfig
    >>> rdb = RingDatabase(DataCyclotronConfig(n_nodes=4))
    >>> _ = rdb.load_table("t", {"id": [1, 2, 3], "v": [1.0, 2.0, 3.0]})
    >>> handle = rdb.submit("SELECT v FROM t WHERE id >= 2", node=1)
    >>> rdb.run_until_done()
    True
    >>> handle.result.rows()
    [(2.0,), (3.0,)]

    Point lookups and streaming aggregates ride the same ring:

    >>> from repro.dbms.qpu import KvLookup, StreamAggregate
    >>> kv = rdb.submit_request(KvLookup(table="t", key=1, column="v"))
    >>> agg = rdb.submit_request(StreamAggregate(table="t", value_column="v"))
    >>> rdb.run_until_done()
    True
    >>> kv.result, agg.result
    (2.0, 6.0)
    """

    def __init__(
        self,
        config: Optional[DataCyclotronConfig] = None,
        cost_model: Optional[OperatorCostModel] = None,
        schema: str = "sys",
        cache_intermediates: bool = False,
        cache_min_bytes: int = 64 * 1024,
        dataflow: bool = False,
        lifecycle_events: bool = True,
    ):
        """``dataflow=True`` executes MAL plans with instruction-level
        concurrency (the paper's "concurrent interpreter threads"),
        letting several pins block at once; mutually exclusive with
        ``cache_intermediates``.

        Every query, whatever its engine, registers on the bus with a
        :class:`~repro.events.types.QpuQueryRouted` and a
        :class:`~repro.events.types.QueryRegistered` tagged with the
        engine class (docs/qpu.md).
        """
        # fossil: bench/ passes lifecycle_events=True; ROADMAP item 1(f)
        # drops the keyword with it
        if not lifecycle_events:
            raise ValueError("lifecycle_events=False: every query registers on the bus")
        if dataflow and cache_intermediates:
            raise ValueError(
                "dataflow execution and intermediate caching are mutually exclusive"
            )
        self.dataflow = dataflow
        self.schema = schema
        self.catalog = Catalog()
        self.dc = DataCyclotron(config)
        self.cost_model = cost_model if cost_model is not None else default_cost_model()
        self._local_registry = local_registry(self.catalog)
        self._next_query_id = 0
        self.handles: List[QueryHandle] = []
        # byte-aware admission (docs/overload.md): cap the persistent
        # bytes behind all inflight footprints.  Off by default.
        self.byte_budget: Optional[int] = None
        # the valve's ledger: handles whose process has not ended yet
        # (refused ones included until their no-op process runs), and
        # the footprint bytes behind them
        self._inflight = 0
        self._inflight_bytes = 0
        # the one statistics-driven estimator the valve and the front
        # door price with, built on first use (see ``estimator``), and
        # what pricing did at the dispatcher (``plan_cache_stats``)
        self._estimator: Optional[QueryEstimator] = None
        self._stats_version = -1
        self._priced = 0
        self._refused_before_compile = 0
        self._unpriced = 0
        # section 6.2: intermediates circulate as first-class ring data
        self.result_cache = None
        self.cache_min_bytes = cache_min_bytes
        if cache_intermediates:
            from repro.xtn.result_cache import ResultCache

            self.result_cache = ResultCache(self.dc)
        self.qpus: List[QueryProcessingUnit] = []
        self._mal = MalQpu(
            self.catalog,
            self._local_registry,
            self.cost_model,
            dataflow=dataflow,
            result_cache=self.result_cache,
            cache_min_bytes=cache_min_bytes,
        )
        self.register_qpu(self._mal)
        self.register_qpu(KvQpu(self.catalog, self.cost_model, schema=schema))
        self.register_qpu(StreamingAggQpu(self.catalog, self.cost_model, schema=schema))

    # ------------------------------------------------------------------
    # engine registry
    # ------------------------------------------------------------------
    def register_qpu(self, qpu: QueryProcessingUnit) -> QueryProcessingUnit:
        """Plug in an engine; earlier registrations win routing ties."""
        self.qpus.append(qpu)
        return qpu

    def route(self, request: Any) -> QueryProcessingUnit:
        """The first registered QPU that accepts ``request``."""
        for qpu in self.qpus:
            if qpu.accepts(request):
                return qpu
        raise TypeError(f"no registered QPU accepts {request!r}")

    # ------------------------------------------------------------------
    # data loading
    # ------------------------------------------------------------------
    def load_table(
        self,
        name: str,
        data: Dict[str, Sequence],
        rows_per_partition: Optional[int] = None,
        schema: Optional[str] = None,
    ):
        """Load a table and spread its partition BATs over the ring.

        Every partition becomes an individually owned BAT (section 4,
        Figure 2): round-robin placement over the nodes, with the real
        column payload attached so pins hand back usable data.
        """
        schema = schema if schema is not None else self.schema
        table = self.catalog.load_table(
            schema, name, data, rows_per_partition=rows_per_partition
        )
        for handle in self.catalog.all_handles():
            if handle.schema == schema and handle.table == name:
                self.dc.add_bat(
                    handle.bat_id,
                    size=max(handle.bat.nbytes, 1),
                    payload=handle.bat,
                )
        return table

    def load_csv(
        self,
        name: str,
        path,
        rows_per_partition: Optional[int] = None,
        schema: Optional[str] = None,
    ):
        """Load a headered CSV and spread its partitions over the ring."""
        from repro.dbms.io_utils import read_csv_columns

        return self.load_table(
            name,
            read_csv_columns(path),
            rows_per_partition=rows_per_partition,
            schema=schema,
        )

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def compile(self, sql: str) -> PlannedQuery:
        return self._mal.compile_sql(sql)

    @property
    def estimator(self) -> QueryEstimator:
        """The database's one :class:`QueryEstimator` (docs/frontdoor.md).

        Its :class:`StatisticsCatalog` is built on first use -- a
        database that no valve or front door prices never summarises
        its tables -- and rebuilt whenever ``Catalog.version`` moves,
        as the plan cache is.  The estimator object itself stays, so
        its accuracy feedback survives a late load.
        """
        version = self.catalog.version
        if self._stats_version != version:
            stats = StatisticsCatalog.from_catalog(self.catalog)
            if self._estimator is None:
                self._estimator = QueryEstimator(stats, self.route)
            else:
                self._estimator.stats = stats
            self._stats_version = version
        return self._estimator

    def plan_cache_stats(self) -> Dict[str, int]:
        """The MAL engine's compile-once cache -- hits, misses, size,
        bound -- and what pricing before compile did at the valve:
        ``priced`` requests, ``refused_before_compile`` (refused on
        their estimate, never compiled) and ``unpriced`` (the estimator
        could not price them, so they were compiled first).

        Deliberately not part of ``metrics.summary()``: host-side cache
        behaviour is not simulated behaviour.
        """
        stats = self._mal.plan_cache_stats()
        stats["priced"] = self._priced
        stats["refused_before_compile"] = self._refused_before_compile
        stats["unpriced"] = self._unpriced
        return stats

    @property
    def next_query_id(self) -> int:
        """The id the next dispatched request will get."""
        return self._next_query_id

    def skip_query_id(self) -> None:
        """Consume :attr:`next_query_id` for a request refused before it
        reached the dispatcher (the front door's refusals).  A refusal
        consumes an id wherever it happens, as a dispatcher refusal
        does, so twins that refuse at different stages agree on ids."""
        self._next_query_id += 1

    def submit(
        self, sql: str, node: int = 0, arrival: Optional[float] = None
    ) -> QueryHandle:
        """Compile and schedule a SQL query on ``node`` at ``arrival``."""
        return self.submit_request(sql, node=node, arrival=arrival)

    def submit_request(
        self,
        request: Any,
        node: int = 0,
        arrival: Optional[float] = None,
        tag: Optional[str] = None,
    ) -> QueryHandle:
        """Route any engine request to its QPU and schedule it.

        Route, price, valve, compile: when ``byte_budget`` is set the
        request is priced with :attr:`estimator` first and a refused one
        is never compiled (docs/qpu.md section 7).  With the valve off
        nothing is priced and the request compiles straight away.

        ``arrival`` defaults to the current simulated time.  ``tag``
        overrides the registration tag (default: the engine class) --
        the front door uses it to label serving tiers for SLO
        accounting.
        """
        if arrival is None:
            arrival = self.dc.sim.now
        if not 0 <= node < self.dc.config.n_nodes:
            raise ValueError(f"node {node} out of range")
        delay = arrival - self.dc.sim.now
        if delay < 0:
            raise ValueError("arrival is in the past")
        qpu = self.route(request)
        valved = self.byte_budget is not None
        estimate = self._price(request) if valved else None
        compiled = None if estimate is not None else qpu.compile(request)
        # the ledger books the bytes the decision was made on
        weight = (
            compiled.footprint_bytes if estimate is None
            else estimate.footprint_bytes
        )
        shed = self._shed(weight)
        if compiled is None and not shed:
            compiled = qpu.compile(request)
        query_id = self._next_query_id
        self._next_query_id += 1
        if shed:
            if compiled is None:
                self._refused_before_compile += 1
                return self._shed_handle(
                    request, query_id, node, estimate.engine,
                    estimate.description, estimate.cost,
                )
            return self._shed_handle(
                request, query_id, node, compiled.engine,
                compiled.description, qpu.estimate_cost(compiled),
            )
        runtime = self.dc.nodes[node]
        estimated = qpu.estimate_cost(compiled)
        ctx = QpuContext(
            runtime=runtime,
            query_id=query_id,
            catalog=self.catalog,
            cost_model=self.cost_model,
        )

        def process() -> Generator:
            try:
                self._register(runtime.sim.now, query_id, node,
                               qpu.engine_class, compiled, estimated, tag=tag)
                try:
                    result = yield from qpu.execute(compiled, ctx)
                except QueryAbort as abort:
                    self._release_pins(ctx, runtime, query_id)
                    runtime.finish_query(query_id, failed=True, error=str(abort))
                    return None
                runtime.finish_query(query_id)
                return result
            finally:
                self._leave(weight)

        self.dc._submitted += 1
        proc = Process(self.dc.sim, process, start_delay=delay)
        handle = QueryHandle(
            query_id=query_id,
            node=node,
            sql=compiled.description,
            process=proc,
            engine=qpu.engine_class,
            request=request,
            estimated_cost=estimated,
            footprint_bytes=compiled.footprint_bytes,
        )
        self.handles.append(handle)
        self._enter(weight)
        return handle

    # ------------------------------------------------------------------
    # dispatcher-owned lifecycle pieces
    # ------------------------------------------------------------------
    def _register(
        self,
        now: float,
        query_id: int,
        node: int,
        engine: str,
        compiled: CompiledQuery,
        estimated: float,
        tag: Optional[str] = None,
    ) -> None:
        label = engine if tag is None else tag
        bus = self.dc.bus
        if bus.active:
            bus.publish(
                ev.QpuQueryRouted(
                    t=now,
                    query_id=query_id,
                    engine=engine,
                    node=node,
                    footprint=len(compiled.footprint),
                    cost=estimated,
                )
            )
            bus.publish(ev.QueryRegistered(now, query_id, node, tag=label))

    def _price(self, request: Any) -> Optional[QueryEstimate]:
        """The request's estimate, or None when its engine refused to
        price it: then it is compiled, which raises the refusal."""
        try:
            estimate = self.estimator.estimate(request)
        except EstimateError:
            self._unpriced += 1
            return None
        self._priced += 1
        return estimate

    def _shed(self, footprint_bytes: int) -> bool:
        """The byte valve: True refuses, with ``reason="byte-valve"``.

        It weighs each query by its *estimated* footprint bytes -- the
        engine's own price, so ``CompiledQuery.footprint_bytes`` to the
        byte -- so one wide analytic scan can't hide behind a point
        lookup, and a refused request is never compiled.  An empty valve
        always admits, so progress is guaranteed even for a query wider
        than the whole budget.
        """
        return bool(
            self._inflight
            and self.byte_budget is not None
            and self._inflight_bytes + footprint_bytes > self.byte_budget
        )

    def _shed_handle(
        self, request, query_id: int, node: int, engine: str,
        description: str, estimated: float,
    ) -> QueryHandle:
        bus = self.dc.bus
        if bus.active:
            bus.publish(
                ev.QueryShed(
                    self.dc.sim.now, query_id, node, engine=engine,
                    reason="byte-valve",
                )
            )

        def refused() -> Generator:
            self._leave(0)
            return None
            yield  # pragma: no cover - makes this a generator

        handle = QueryHandle(
            query_id=query_id,
            node=node,
            sql=description,
            process=Process(self.dc.sim, refused),
            engine=engine,
            request=request,
            estimated_cost=estimated,
        )
        self.handles.append(handle)
        self._enter(0)  # weighs nothing, but is busy
        return handle

    # The ledger moves in the handle's own generator, never through
    # Process.join()/Future callbacks: those post simulator events and
    # would change every event count and digest.
    def _enter(self, footprint_bytes: int) -> None:
        self._inflight += 1
        self._inflight_bytes += footprint_bytes

    def _leave(self, footprint_bytes: int) -> None:
        self._inflight -= 1
        self._inflight_bytes -= footprint_bytes

    @staticmethod
    def _release_pins(ctx: QpuContext, runtime, query_id: int) -> None:
        """On abort, free whatever the engine still holds pinned."""
        for bat_id in list(ctx.pinned):
            runtime.unpin(query_id, bat_id)
        ctx.pinned.clear()

    # ------------------------------------------------------------------
    def run_until_done(self, max_time: float = 600.0) -> bool:
        return self.dc.run_until_done(max_time=max_time)

    @property
    def metrics(self):
        return self.dc.metrics
