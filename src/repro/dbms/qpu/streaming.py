"""A streaming-aggregate engine that consumes BATs in ring-cycle order.

The first engine to exploit the ring's *broadcast* nature directly: a
classic scan pins its working set in table order, but the storage ring
delivers every hot BAT past every node once per rotation anyway.  This
QPU requests all partitions of the aggregated column(s) up front, then
folds each partition into a running (group-)aggregate *in whatever
order the ring delivers them*, unpinning immediately after each fold --
its pinned-memory high-water mark is one partition (two when grouping),
independent of table size.

Aggregates are the decomposable ones (sum/count/min/max, avg as
sum+count), so per-partition partials merge exactly.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

import repro.events.types as ev
from repro.dbms.catalog import Catalog, ColumnHandle
from repro.dbms.cost import OperatorCostModel
from repro.dbms.qpu.base import (
    CompiledQuery,
    QpuContext,
    QueryProcessingUnit,
    StreamAggregate,
    as_resolved,
)
from repro.sim.process import all_of

__all__ = ["StreamingAggQpu"]

_MERGEABLE = ("sum", "count", "min", "max", "avg")


class _Partial:
    """A running decomposable aggregate: scalar or per-group."""

    __slots__ = ("func", "sums", "counts")

    def __init__(self, func: str):
        self.func = func
        self.sums: Dict[Any, float] = {}
        self.counts: Dict[Any, int] = {}

    def fold(self, group_keys, values: np.ndarray) -> None:
        """Merge one partition's rows; ``group_keys`` may be None."""
        if group_keys is None:
            self._fold_one(None, values)
            return
        keys = np.asarray(group_keys)
        for key in np.unique(keys):
            self._fold_one(key.item(), values[keys == key])

    def _fold_one(self, key, vals: np.ndarray) -> None:
        n = len(vals)
        if n == 0:
            return
        self.counts[key] = self.counts.get(key, 0) + n
        if self.func in ("sum", "avg"):
            self.sums[key] = self.sums.get(key, 0.0) + float(vals.sum())
        elif self.func in ("min", "max"):
            part = float(vals.min() if self.func == "min" else vals.max())
            prev = self.sums.get(key)
            if prev is None:
                self.sums[key] = part
            else:
                self.sums[key] = min(prev, part) if self.func == "min" else max(prev, part)

    def result(self, grouped: bool):
        def finish(key):
            if self.func == "count":
                return self.counts[key]
            if self.func == "avg":
                return self.sums[key] / self.counts[key]
            return self.sums[key]

        if not grouped:
            if not self.counts:
                return 0 if self.func == "count" else None
            return finish(None)
        return {key: finish(key) for key in sorted(self.counts)}


class StreamingAggQpu(QueryProcessingUnit):
    """Incremental (group-)aggregates folded in BAT arrival order."""

    engine_class = "stream"

    def __init__(self, catalog: Catalog, cost_model: OperatorCostModel,
                 schema: str = "sys"):
        self.catalog = catalog
        self.cost_model = cost_model
        self.schema = schema

    # ------------------------------------------------------------------
    def accepts(self, request: Any) -> bool:
        return isinstance(request, StreamAggregate)

    def compile(self, request: StreamAggregate) -> CompiledQuery:
        if request.func not in _MERGEABLE:
            raise ValueError(
                f"aggregate {request.func!r} is not decomposable; "
                f"streaming supports {_MERGEABLE}"
            )
        schema = request.schema if request.schema is not None else self.schema
        value_handles = self.catalog.column_handles(
            schema, request.table, request.value_column
        )
        group_handles: Optional[List[ColumnHandle]] = None
        if request.group_column is not None:
            group_handles = self.catalog.column_handles(
                schema, request.table, request.group_column
            )
        partitions: List[Tuple[ColumnHandle, Optional[ColumnHandle]]] = [
            (vh, group_handles[i] if group_handles else None)
            for i, vh in enumerate(value_handles)
        ]
        footprint: List[int] = [vh.bat_id for vh, _ in partitions]
        footprint += [gh.bat_id for _, gh in partitions if gh is not None]
        nbytes = sum(self.catalog.handle_by_id(b).bat.nbytes for b in footprint)
        return CompiledQuery(
            engine=self.engine_class,
            footprint=tuple(footprint),
            footprint_bytes=nbytes,
            payload=(request, partitions),
            description=request.describe(),
        )

    def estimate_cost(self, compiled: CompiledQuery) -> float:
        return self.cost_model.bytes_cost(compiled.footprint_bytes)

    # ------------------------------------------------------------------
    def execute(
        self, compiled: CompiledQuery, ctx: QpuContext
    ) -> Generator[Any, Any, Any]:
        request, partitions = compiled.payload
        # announce the whole footprint at once: every partition's LOI
        # rises now, and the ring starts streaming them our way
        ctx.request(compiled.footprint)
        partial = _Partial(request.func)

        # one future per *partition*: ready when all its columns arrived
        partition_ready = []
        pin_futures: List[List] = []
        for vh, gh in partitions:
            futs = [ctx.pin(vh.bat_id)]
            if gh is not None:
                futs.append(ctx.pin(gh.bat_id))
            pin_futures.append(futs)
            partition_ready.append(all_of(ctx.sim, futs))

        for waiter in as_resolved(ctx.sim, partition_ready):
            index, results = yield waiter
            vh, gh = partitions[index]
            value_bat = ctx.pin_payload(results[0], vh.bat_id)
            group_keys = None
            nbytes = value_bat.nbytes
            if gh is not None:
                group_bat = ctx.pin_payload(results[1], gh.bat_id)
                group_keys = np.asarray(group_bat.tail)
                nbytes += group_bat.nbytes
            values = np.asarray(value_bat.tail)
            partial.fold(group_keys, values)
            cost = self.cost_model.bytes_cost(nbytes)
            if cost > 0:
                yield ctx.exec_op(cost)
            # consumed: release immediately, the ring keeps the copy
            ctx.unpin(vh.bat_id)
            if gh is not None:
                ctx.unpin(gh.bat_id)
            self._publish_consumed(ctx, vh.bat_id, len(values))

        return partial.result(grouped=request.group_column is not None)

    def _publish_consumed(self, ctx: QpuContext, bat_id: int, rows: int) -> None:
        bus = ctx.bus
        if bus is not None and bus.active:
            bus.publish(
                ev.StreamBatConsumed(
                    t=ctx.now,
                    query_id=ctx.query_id,
                    bat_id=bat_id,
                    node=ctx.node,
                    rows=rows,
                )
            )
