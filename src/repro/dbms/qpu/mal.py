"""The MAL engine as a QueryProcessingUnit.

This is the original `repro.dbms` stack -- SQL parser, column-at-a-time
planner, DC optimizer (Table 2) and the linear/caching/dataflow
interpreters -- rehosted behind the QPU protocol.  The execution path is
byte-for-byte the pre-refactor one (the golden suite in
``tests/test_qpu_golden.py`` pins the event streams): the engine wraps
the local operator registry with cost-charging generators, and the three
``datacyclotron.*`` plan calls talk to the node runtime exactly as
before.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Generator

from repro.core.runtime import NodeRuntime
from repro.dbms.bat import BAT
from repro.dbms.catalog import Catalog
from repro.dbms.cost import OperatorCostModel
from repro.dbms.interpreter import Interpreter
from repro.dbms.optimizer import dc_rewrite, requested_binds
from repro.dbms.qpu.base import (
    CompiledQuery,
    MalQuery,
    QpuContext,
    QueryAbort,
    QueryProcessingUnit,
)
from repro.dbms.sql import parse_cached, plan_select
from repro.dbms.sql.planner import PlannedQuery

__all__ = ["MalQpu", "dc_registry"]

#: compiled statements one engine keeps (least recently used go first).
#: A plan holds ~340 bytes per instruction -- 67 KB for a two-column
#: scan of 24 partitions, 200 KB for a six-column ``SELECT *`` -- and its
#: end-of-life table ~44 more (8.8 KB and 26 KB), so the bound is what
#: the cache may retain: ~11-28 MB of plans.  The table is what keeps a
#: run's own footprint small: after each instruction only variables a
#: later instruction reads, and the result, stay live.  Behind a
#: dispatcher valve a request is priced on its estimated footprint
#: before it is compiled and a refused one never reaches ``compile``, so
#: the one-off texts a full valve turns away do not fill the cache
#: (docs/qpu.md section 7).
PLAN_CACHE_SIZE = 128


def dc_registry(
    base: Dict[str, Any],
    runtime: NodeRuntime,
    query_id: int,
    catalog: Catalog,
    cost_model: OperatorCostModel,
) -> Dict[str, Any]:
    """Wrap the local registry for ring execution.

    Local operators become generators that charge simulated CPU time;
    the three datacyclotron calls talk to the node's DC runtime.
    """
    pinned_ids: Dict[int, int] = {}  # id(payload BAT) -> bat_id

    def wrap(fn):
        def runner(*args) -> Generator:
            result = fn(*args)
            cost = cost_model.cost(args, result)
            if cost > 0:
                yield runtime.exec_op(cost)
            return result

        return runner

    registry: Dict[str, Any] = {name: wrap(fn) for name, fn in base.items()}

    def dc_request(schema: str, table: str, column: str, partition: int) -> int:
        handle = catalog.handle(schema, table, column, partition)
        runtime.request(query_id, [handle.bat_id])
        return handle.bat_id

    def dc_pin(bat_id: int) -> Generator:
        fut = runtime.pin(query_id, bat_id)
        yield fut
        result = fut.value
        if not result.ok:
            raise QueryAbort(result.error or f"pin of BAT {bat_id} failed")
        payload = result.payload
        if payload is None:
            raise QueryAbort(f"BAT {bat_id} carries no payload (performance mode?)")
        pinned_ids[id(payload)] = bat_id
        return payload

    def dc_unpin(payload: BAT) -> None:
        bat_id = pinned_ids.pop(id(payload), None)
        if bat_id is not None:
            runtime.unpin(query_id, bat_id)

    registry["datacyclotron.request"] = dc_request
    registry["datacyclotron.pin"] = dc_pin
    registry["datacyclotron.unpin"] = dc_unpin
    return registry


class MalQpu(QueryProcessingUnit):
    """Full SQL over the ring: the paper's own processing model."""

    engine_class = "mal"

    def __init__(
        self,
        catalog: Catalog,
        local_registry: Dict[str, Any],
        cost_model: OperatorCostModel,
        dataflow: bool = False,
        result_cache=None,
        cache_min_bytes: int = 64 * 1024,
    ):
        self.catalog = catalog
        self.local_registry = local_registry
        self.cost_model = cost_model
        self.dataflow = dataflow
        self.result_cache = result_cache
        self.cache_min_bytes = cache_min_bytes
        self._plan_counter = 0
        # statement text -> CompiledQuery, valid for one catalog version
        self._plan_cache: "OrderedDict[str, CompiledQuery]" = OrderedDict()
        self._plan_cache_version = catalog.version
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    # ------------------------------------------------------------------
    def accepts(self, request: Any) -> bool:
        return isinstance(request, (MalQuery, str))

    def compile_sql(self, sql: str) -> PlannedQuery:
        """SQL -> DC-optimized MAL plan (Table 1 -> Table 2)."""
        return self.compile(sql).payload

    def compile(self, request: Any) -> CompiledQuery:
        """Compile once per statement text and catalog version.

        The cached :class:`CompiledQuery` (plan, result variable,
        footprint and its bytes) is shared by every later submission of
        the same text: execution only reads it -- each interpreter
        builds its own variable environment -- so sharing is safe.  Any
        catalog change may bind other partitions, so it drops the lot.
        """
        sql = request.sql if isinstance(request, MalQuery) else request
        cache = self._plan_cache
        if self._plan_cache_version != self.catalog.version:
            cache.clear()
            self._plan_cache_version = self.catalog.version
        compiled = cache.get(sql)
        if compiled is not None:
            self.plan_cache_hits += 1
            cache.move_to_end(sql)
            return compiled
        self.plan_cache_misses += 1
        compiled = self._compile_uncached(sql)
        cache[sql] = compiled
        if len(cache) > PLAN_CACHE_SIZE:
            cache.popitem(last=False)
        return compiled

    def plan_cache_stats(self) -> Dict[str, int]:
        """Hits, misses, current size and the fixed bound of the cache."""
        return {
            "hits": self.plan_cache_hits,
            "misses": self.plan_cache_misses,
            "size": len(self._plan_cache),
            "bound": PLAN_CACHE_SIZE,
        }

    def _compile_uncached(self, sql: str) -> CompiledQuery:
        self._plan_counter += 1
        planned = plan_select(
            parse_cached(sql), self.catalog, name=f"user.s{self._plan_counter}_1"
        )
        plan, last_use = dc_rewrite(planned.plan)
        bat_ids = tuple(
            self.catalog.handle(*args).bat_id for args in requested_binds(plan)
        )
        nbytes = sum(
            self.catalog.handle_by_id(b).bat.nbytes for b in bat_ids
        )
        return CompiledQuery(
            engine=self.engine_class,
            footprint=bat_ids,
            footprint_bytes=nbytes,
            payload=planned.finished(plan, last_use),
            description=sql,
        )

    def estimate_cost(self, compiled: CompiledQuery) -> float:
        # one interpreter pass over the persistent footprint: a lower
        # bound (intermediates add to it), good enough for admission
        return self.cost_model.bytes_cost(compiled.footprint_bytes)

    # ------------------------------------------------------------------
    def execute(
        self, compiled: CompiledQuery, ctx: QpuContext
    ) -> Generator[Any, Any, Any]:
        planned: PlannedQuery = compiled.payload
        registry = dc_registry(
            self.local_registry, ctx.runtime, ctx.query_id,
            self.catalog, self.cost_model,
        )
        if self.dataflow:
            from repro.dbms.dataflow import DataflowExecutor

            executor = DataflowExecutor(registry, ctx.runtime.sim)
            env = yield from executor.run(planned.plan, dies=planned.dies)
        else:
            env = yield from self._interpreter(registry, ctx).run_gen(
                planned.plan, dies=planned.dies
            )
        return env[planned.result_var]

    def _interpreter(self, registry: Dict[str, Any], ctx: QpuContext) -> Interpreter:
        if self.result_cache is not None:
            from repro.dbms.caching import CachingInterpreter

            return CachingInterpreter(
                registry,
                cache=self.result_cache,
                runtime=ctx.runtime,
                query_id=ctx.query_id,
                min_publish_bytes=self.cache_min_bytes,
            )
        return Interpreter(registry)
