"""A key-value point-lookup engine on the storage ring.

The smallest possible QPU: no plan, no interpreter -- one request, one
pin, one array probe, one unpin.  It is *latency-bound*: the dominant
term is how long the partition BAT takes to rotate past the querying
node, so its SLO axis is p99 latency rather than throughput
(docs/qpu.md).  Because lookups still flow through request/pin/unpin,
hot keys raise their partition's LOI exactly like analytic scans do --
KV tenants and MAL tenants compete in one hot-set economy.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

import repro.events.types as ev
from repro.dbms.catalog import Catalog, ColumnHandle
from repro.dbms.cost import OperatorCostModel
from repro.dbms.qpu.base import (
    CompiledQuery,
    KvLookup,
    QpuContext,
    QueryProcessingUnit,
)

__all__ = ["KvQpu"]


class KvQpu(QueryProcessingUnit):
    """Single-BAT OID probes: ``table[key].column``."""

    engine_class = "kv"

    def __init__(self, catalog: Catalog, cost_model: OperatorCostModel,
                 schema: str = "sys"):
        self.catalog = catalog
        self.cost_model = cost_model
        self.schema = schema

    # ------------------------------------------------------------------
    def accepts(self, request: Any) -> bool:
        return isinstance(request, KvLookup)

    def _partition_handle(self, request: KvLookup) -> Optional[ColumnHandle]:
        """The one partition whose OID range covers ``key`` (or None)."""
        schema = request.schema if request.schema is not None else self.schema
        for handle in self.catalog.column_handles(
            schema, request.table, request.column
        ):
            base = handle.bat.hseqbase
            if base <= request.key < base + len(handle.bat):
                return handle
        return None

    def compile(self, request: KvLookup) -> CompiledQuery:
        handle = self._partition_handle(request)
        if handle is None:
            # a miss is a valid answer: empty footprint, no ring traffic
            return CompiledQuery(
                engine=self.engine_class,
                footprint=(),
                footprint_bytes=0,
                payload=(request, None),
                description=request.describe(),
            )
        return CompiledQuery(
            engine=self.engine_class,
            footprint=(handle.bat_id,),
            footprint_bytes=handle.bat.nbytes,
            payload=(request, handle),
            description=request.describe(),
        )

    def estimate_cost(self, compiled: CompiledQuery) -> float:
        # a point probe touches one cache line, not the whole BAT
        return self.cost_model.fixed

    # ------------------------------------------------------------------
    def execute(
        self, compiled: CompiledQuery, ctx: QpuContext
    ) -> Generator[Any, Any, Any]:
        request, handle = compiled.payload
        if handle is None:
            self._publish_probe(ctx, bat_id=-1, hit=False)
            return None
        bat_id = handle.bat_id
        ctx.request([bat_id])
        fut = ctx.pin(bat_id)
        yield fut
        payload = ctx.pin_payload(fut.value, bat_id)
        value = payload.tail[request.key - payload.hseqbase]
        value = value.item() if hasattr(value, "item") else value
        cost = self.estimate_cost(compiled)
        if cost > 0:
            yield ctx.exec_op(cost)
        ctx.unpin(bat_id)
        self._publish_probe(ctx, bat_id=bat_id, hit=True)
        return value

    def _publish_probe(self, ctx: QpuContext, bat_id: int, hit: bool) -> None:
        bus = ctx.bus
        if bus is not None and bus.active:
            bus.publish(
                ev.KvProbeServed(
                    t=ctx.now,
                    query_id=ctx.query_id,
                    bat_id=bat_id,
                    node=ctx.node,
                    hit=hit,
                )
            )
