"""Trace calibration: run the 22 plans, record the pin schedule + OpT.

Paper, section 5.4: "The scheduling algorithm for the pin calls can be
exemplified using the code in Table 2.  The first pin call, pin(X3), is
scheduled OpT1 msec after the query registration.  The second one, is
scheduled OpT2 msec after the X3 reception by the previous pin call.
The OpTx for a pin call is the sum of all operators execution times,
since the last pin call, until the actual pin call.  A query is finished
T msec after, the sum of the remaining operators' execution times, after
the last pin call."

:func:`calibrate` executes each DC-optimized plan against the local
engine with an instrumented registry: every kernel operator runs for
real (so intermediate sizes are the true ones) and its cost -- from the
same :class:`~repro.dbms.cost.OperatorCostModel` the distributed
executor charges (one canonical factory: :func:`~repro.dbms.cost.default_cost_model`) -- accumulates into the OpT of the next pin call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dbms.database import Database
from repro.dbms.cost import OperatorCostModel, default_cost_model
from repro.dbms.interpreter import Interpreter
from repro.workloads.tpch.queries import TPCH_QUERIES, TpchQuery

__all__ = ["TraceStep", "QueryTrace", "calibrate", "load_traces", "save_traces"]

BatKey = Tuple[str, str, str, int]


@dataclass(frozen=True)
class TraceStep:
    """One pin call: the BAT it needs and the OpT preceding it."""

    bat_key: BatKey
    op_time: float


@dataclass
class QueryTrace:
    """A replayable execution trace of one TPC-H query."""

    number: int
    name: str
    steps: List[TraceStep]
    tail_time: float

    @property
    def net_time(self) -> float:
        """Net execution time with all data local (paper terminology)."""
        return sum(s.op_time for s in self.steps) + self.tail_time

    @property
    def bat_keys(self) -> List[BatKey]:
        seen = set()
        out = []
        for step in self.steps:
            if step.bat_key not in seen:
                seen.add(step.bat_key)
                out.append(step.bat_key)
        return out

    def scaled(self, time_scale: float) -> "QueryTrace":
        """A copy with every operator time multiplied by ``time_scale``."""
        return QueryTrace(
            number=self.number,
            name=self.name,
            steps=[
                TraceStep(bat_key=s.bat_key, op_time=s.op_time * time_scale)
                for s in self.steps
            ],
            tail_time=self.tail_time * time_scale,
        )

    # ------------------------------------------------------------------
    # persistence: calibrate once, replay anywhere
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "number": self.number,
            "name": self.name,
            "tail_time": self.tail_time,
            "steps": [
                {"bat_key": list(s.bat_key), "op_time": s.op_time}
                for s in self.steps
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QueryTrace":
        return cls(
            number=int(data["number"]),
            name=str(data["name"]),
            tail_time=float(data["tail_time"]),
            steps=[
                TraceStep(
                    bat_key=(
                        str(s["bat_key"][0]),
                        str(s["bat_key"][1]),
                        str(s["bat_key"][2]),
                        int(s["bat_key"][3]),
                    ),
                    op_time=float(s["op_time"]),
                )
                for s in data["steps"]
            ],
        )


def save_traces(traces: List["QueryTrace"], path) -> None:
    """Write calibrated traces as JSON (the shareable trace artefact)."""
    import json
    from pathlib import Path

    Path(path).write_text(
        json.dumps([t.to_dict() for t in traces], indent=1) + "\n"
    )


def load_traces(path) -> List["QueryTrace"]:
    """Read traces written by :func:`save_traces`."""
    import json
    from pathlib import Path

    return [QueryTrace.from_dict(d) for d in json.loads(Path(path).read_text())]


class _Tracer:
    """Instrumented execution of one DC plan against the local catalog."""

    def __init__(self, db: Database, cost_model: OperatorCostModel):
        self.db = db
        self.cost_model = cost_model

    def trace(self, query: TpchQuery) -> QueryTrace:
        planned = self.db.compile_dc(query.sql)
        steps: List[TraceStep] = []
        acc = 0.0
        catalog = self.db.catalog
        base = dict(self.db.interpreter.registry)

        def wrap(fn):
            def runner(*args):
                nonlocal acc
                result = fn(*args)
                acc += self.cost_model.cost(args, result)
                return result

            return runner

        registry = {name: wrap(fn) for name, fn in base.items()}

        def dc_request(schema: str, table: str, column: str, partition: int):
            return catalog.handle(schema, table, column, partition)

        def dc_pin(handle):
            nonlocal acc
            steps.append(TraceStep(bat_key=handle.key, op_time=acc))
            acc = 0.0
            return handle.bat

        registry["datacyclotron.request"] = dc_request
        registry["datacyclotron.pin"] = dc_pin
        registry["datacyclotron.unpin"] = lambda bat: None

        Interpreter(registry).run(planned.plan, dies=planned.dies)
        return QueryTrace(
            number=query.number, name=query.name, steps=steps, tail_time=acc
        )


def calibrate(
    db: Database,
    queries: Optional[List[TpchQuery]] = None,
    cost_model: Optional[OperatorCostModel] = None,
) -> List[QueryTrace]:
    """Produce one trace per query against an already-loaded database."""
    queries = queries if queries is not None else TPCH_QUERIES
    cost_model = cost_model if cost_model is not None else default_cost_model()
    tracer = _Tracer(db, cost_model)
    return [tracer.trace(q) for q in queries]
