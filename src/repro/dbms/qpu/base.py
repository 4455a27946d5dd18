"""The QueryProcessingUnit protocol: pluggable engines on one ring.

The ring economy of the paper -- LOI-driven hot set, request/pin/unpin
-- is engine-agnostic, but the original executor hard-wired one engine:
the linear MAL interpreter.  Following *Towards application-specific
query processing systems*, this module narrows the engine boundary to
four calls:

* ``compile(request)`` turns an engine-specific request into a
  :class:`CompiledQuery` that *declares the BAT footprint* the engine
  will ask the ring for;
* ``price(request)`` declares the same footprint, bytes and
  description without keeping anything a refused request would leave
  behind: the front door and the byte valve price with it, so each
  engine answers its own price;
* ``estimate_cost(compiled)`` prices the query for admission and
  routing decisions;
* ``execute(compiled, ctx)`` is a simulation generator: it yields
  Futures/Delays exactly like any node process, talks to the ring only
  through the :class:`QpuContext`, and returns the query result.

``RingDatabase`` (:mod:`repro.dbms.executor`) is the dispatcher: it
routes each submitted request to the first QPU whose ``accepts`` says
yes, owns query-id assignment, registration, admission and completion,
and never looks inside a plan again.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional, Sequence, Tuple

from repro.core.runtime import NodeRuntime
from repro.dbms.catalog import Catalog
from repro.dbms.cost import OperatorCostModel

__all__ = [
    "QueryAbort",
    "MalQuery",
    "KvLookup",
    "StreamAggregate",
    "CompiledQuery",
    "QpuContext",
    "QueryProcessingUnit",
    "as_resolved",
]


class QueryAbort(RuntimeError):
    """A pin failed (e.g. the BAT no longer exists): the query aborts."""


# ----------------------------------------------------------------------
# typed requests: what tenants submit
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MalQuery:
    """A SQL query for the MAL engine (parse -> plan -> dc_optimize)."""

    sql: str

    def describe(self) -> str:
        return self.sql


@dataclass(frozen=True)
class KvLookup:
    """A point lookup: fetch ``column`` of the row with OID ``key``.

    Latency-bound and planless: the engine probes exactly one partition
    BAT, so its ring footprint is a single request/pin/unpin.
    """

    table: str
    key: int
    column: str
    schema: Optional[str] = None

    def describe(self) -> str:
        return f"KV {self.table}[{self.key}].{self.column}"


@dataclass(frozen=True)
class StreamAggregate:
    """An incremental aggregate consumed in ring-cycle order.

    The streaming engine requests every partition of ``value_column``
    (and ``group_column``, if grouping) up front, then folds each
    partition into the running aggregate *in whatever order the ring
    delivers them*, unpinning immediately -- it never holds a working
    set, exploiting the ring's broadcast nature directly.
    """

    table: str
    value_column: str
    func: str = "sum"
    group_column: Optional[str] = None
    schema: Optional[str] = None

    def describe(self) -> str:
        group = f" BY {self.group_column}" if self.group_column else ""
        return f"STREAM {self.func}({self.table}.{self.value_column}){group}"


# ----------------------------------------------------------------------
# the compiled artefact and the execution context
# ----------------------------------------------------------------------
@dataclass
class CompiledQuery:
    """What a QPU promises the dispatcher before execution starts."""

    engine: str                      # the compiling QPU's engine_class
    footprint: Tuple[int, ...]       # BAT ids the engine will touch
    footprint_bytes: int             # total persistent bytes behind them
    payload: Any = None              # engine-private compilation artefact
    description: str = ""            # human-readable request summary


@dataclass
class QpuContext:
    """The ring facade handed to an executing QPU.

    Engines interact with the Data Cyclotron *only* through this object
    (plus the values they yield): request/pin/unpin for data movement,
    ``exec_op`` to charge simulated CPU time, and the bus for typed
    per-engine events.
    """

    runtime: NodeRuntime
    query_id: int
    catalog: Catalog
    cost_model: OperatorCostModel
    pinned: List[int] = field(default_factory=list)

    @property
    def node(self) -> int:
        return self.runtime.node_id

    @property
    def sim(self):
        return self.runtime.sim

    @property
    def bus(self):
        return self.runtime.bus

    @property
    def now(self) -> float:
        return self.runtime.sim.now

    # -- ring interaction ----------------------------------------------
    def request(self, bat_ids: Sequence[int]) -> None:
        """Announce interest: a non-blocking anti-clockwise request."""
        self.runtime.request(self.query_id, list(bat_ids))

    def pin(self, bat_id: int):
        """A Future resolving to a PinResult when the BAT flows past."""
        return self.runtime.pin(self.query_id, bat_id)

    def pin_payload(self, pin_result, bat_id: int):
        """Unwrap a resolved pin, aborting the query on failure."""
        if not pin_result.ok:
            raise QueryAbort(pin_result.error or f"pin of BAT {bat_id} failed")
        payload = pin_result.payload
        if payload is None:
            raise QueryAbort(f"BAT {bat_id} carries no payload (performance mode?)")
        self.pinned.append(bat_id)
        return payload

    def unpin(self, bat_id: int) -> None:
        self.runtime.unpin(self.query_id, bat_id)
        try:
            self.pinned.remove(bat_id)
        except ValueError:
            pass

    def exec_op(self, duration: float):
        """A Future resolving after ``duration`` simulated CPU seconds."""
        return self.runtime.exec_op(duration)


class QueryProcessingUnit(ABC):
    """One pluggable engine: compile, price, and execute on the ring."""

    #: stable identifier used for routing, metrics and SLO verdicts
    engine_class: str = "abstract"

    def accepts(self, request: Any) -> bool:
        """Whether this QPU knows how to run ``request``."""
        raise NotImplementedError

    @abstractmethod
    def compile(self, request: Any) -> CompiledQuery:
        """Turn a request into a footprint-declaring compiled query."""

    def price(self, request: Any) -> CompiledQuery:
        """The footprint, bytes and description ``compile`` would
        declare, caching nothing a refusal would leave behind; the
        result is weighed, never executed.  An engine whose ``compile``
        caches nothing prices by compiling."""
        return self.compile(request)

    def estimate_cost(self, compiled: CompiledQuery) -> float:
        """Simulated CPU seconds one pass over the footprint would take."""
        raise NotImplementedError

    @abstractmethod
    def execute(
        self, compiled: CompiledQuery, ctx: QpuContext
    ) -> Generator[Any, Any, Any]:
        """A simulation generator producing the query result."""


# ----------------------------------------------------------------------
# combinator: consume futures in resolution order
# ----------------------------------------------------------------------
def as_resolved(sim, futures):
    """Yieldable futures that fire one-by-one, in resolution order.

    ``for waiter in as_resolved(sim, futures): value = yield waiter`` is
    the streaming engine's consumption loop: each ``waiter`` resolves to
    the *(index, value)* of the next underlying future to complete --
    the ring decides the order, the engine just folds.  Resolution ties
    are broken FIFO by the simulator's callback queue, so the order is
    deterministic.
    """
    from repro.sim.process import Future

    futures = list(futures)
    waiters: List[Future] = [Future(sim) for _ in futures]
    arrivals = [0]  # how many underlying futures resolved so far

    def on_done(index):
        def _cb(value):
            slot = arrivals[0]
            arrivals[0] += 1
            waiters[slot].resolve((index, value))

        return _cb

    for index, fut in enumerate(futures):
        fut.add_callback(on_done(index))
    return waiters
