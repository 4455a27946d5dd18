"""Query lifecycle: specs and the interpreter-thread process.

A query in the Data Cyclotron (sections 4.1 and 5.4) is, from the DC
layer's perspective, a sequence of calls: one ``request()`` for every
BAT it touches at registration time, then alternating operator execution
and ``pin()`` calls, and finally the ``unpin()`` calls.  The TPC-H
calibration (section 5.4) describes the timing rule we generalise here:

    "The first pin call, pin(X3), is scheduled OpT1 msec after the query
    registration.  The second one is scheduled OpT2 msec after the X3
    reception by the previous pin call. ... A query is finished T msec
    after ... the last pin call."

A :class:`QuerySpec` is therefore a list of :class:`PinStep`\\ s -- each
an (operator-time, bat-id) pair -- plus a tail execution time.  The
section 5.1 micro-benchmark maps onto this with one step per accessed
BAT whose ``op_time`` is the processing time scored for the previous
BAT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence

from repro.core.runtime import NodeRuntime, PinResult
from repro.events.types import QueryRegistered

__all__ = ["PinStep", "QuerySpec", "query_process"]


@dataclass(frozen=True, slots=True)
class PinStep:
    """One (operator-burst, pin) pair of a query plan."""

    bat_id: int
    op_time: float = 0.0  # CPU seconds executed before this pin is issued

    def __post_init__(self) -> None:
        if math.isnan(self.op_time):
            raise ValueError("operator time cannot be NaN")


@dataclass(slots=True)
class QuerySpec:
    """Everything needed to replay one query against the ring."""

    query_id: int
    node: int
    arrival: float
    steps: List[PinStep]
    tail_time: float = 0.0
    tag: str = ""
    # priority tier for graceful degradation (docs/overload.md): higher
    # tiers survive longer under brownout; 0 is best-effort traffic
    tier: int = 0

    def __post_init__(self) -> None:
        # "not >= 0" also refuses NaN, which no comparison orders
        if not self.arrival >= 0:
            raise ValueError(f"arrival time must be >= 0, not {self.arrival}")
        if not self.tail_time >= 0:
            raise ValueError(f"tail time must be >= 0, not {self.tail_time}")

    @property
    def bat_ids(self) -> List[int]:
        """Distinct BATs in first-use order (the request() list)."""
        seen = set()
        out: List[int] = []
        for step in self.steps:
            if step.bat_id not in seen:
                seen.add(step.bat_id)
                out.append(step.bat_id)
        return out

    @property
    def net_execution_time(self) -> float:
        """Execution time with all data local (the paper's "net" time)."""
        return sum(s.op_time for s in self.steps) + self.tail_time

    @classmethod
    def simple(
        cls,
        query_id: int,
        node: int,
        arrival: float,
        bat_ids: Sequence[int],
        processing_times: Sequence[float],
        tag: str = "",
        tier: int = 0,
    ) -> "QuerySpec":
        """The section 5.1 shape: per-BAT processing times.

        BAT *i* is pinned after the processing time of BAT *i-1* has been
        spent; the last BAT's processing time becomes the tail.
        """
        if len(bat_ids) != len(processing_times):
            raise ValueError("bat_ids and processing_times must align")
        if not bat_ids:
            raise ValueError("a query needs at least one BAT")
        steps = [
            PinStep(bat_id=b, op_time=(0.0 if i == 0 else processing_times[i - 1]))
            for i, b in enumerate(bat_ids)
        ]
        return cls(
            query_id=query_id,
            node=node,
            arrival=arrival,
            steps=steps,
            tail_time=processing_times[-1],
            tag=tag,
            tier=tier,
        )


def query_process(runtime: NodeRuntime, spec: QuerySpec) -> Generator:
    """The interpreter thread of one query, as a simulated process.

    Mirrors the massaged MAL plan of Table 2: request() everything up
    front, then pin -> execute -> ... -> unpin, and report completion.
    """
    if runtime.bus.active:
        runtime.bus.publish(
            QueryRegistered(runtime.sim.now, spec.query_id, spec.node, spec.tag)
        )
    runtime.request(spec.query_id, spec.bat_ids)

    pinned: List[int] = []
    failed: Optional[str] = None
    for step in spec.steps:
        if step.op_time > 0:
            yield runtime.exec_op(step.op_time)
        fut = runtime.pin(spec.query_id, step.bat_id)
        yield fut
        result: PinResult = fut.value
        if not result.ok:
            failed = result.error or "pin failed"
            break
        pinned.append(step.bat_id)

    if failed is None and spec.tail_time > 0:
        yield runtime.exec_op(spec.tail_time)

    for bat_id in pinned:
        runtime.unpin(spec.query_id, bat_id)
    runtime.finish_query(spec.query_id, failed=failed is not None, error=failed or "")
    # The generator's return value becomes the Process result: None on
    # success, the error string on failure.  The retry manager
    # (repro.resilience) joins on it to decide whether to fail over.
    return failed
