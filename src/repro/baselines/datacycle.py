"""The DataCycle architecture [Herman et al. 1987] as a baseline.

Paper section 7: "The DataCycle makes data items available by
repetitive broadcast of the entire database stored in a central pump.
... The cycle time, i.e., the time to broadcast the entire database, is
the major performance factor.  It only depends on the speed of hardware
components, the filter selectivity, and the network bandwidth."

The model: a pump broadcasts every BAT in a fixed order, cyclically, at
``bandwidth`` bytes/second.  A blocked pin is served the next time its
BAT's broadcast completes; queries otherwise behave exactly like Data
Cyclotron queries (the same :class:`~repro.core.query.QuerySpec`,
sequential pins with operator time in between).  Because the schedule
is deterministic, availability is computed in closed form -- no
per-message events -- which keeps the baseline cheap to simulate.
"""

from __future__ import annotations

import math
from typing import Dict, Generator, Iterable

from repro.core.query import QuerySpec
from repro.events import types as ev
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.process import Delay, Process

__all__ = ["DataCycle", "BroadcastScheduleMixin"]


class BroadcastScheduleMixin:
    """Shared machinery: closed-form waits on a periodic broadcast."""

    sim: Simulator
    metrics: MetricsCollector
    _submitted: int
    _completed: int

    # subclasses fill these
    _offsets: Dict[int, float]  # bat_id -> completion offset within a cycle
    cycle_time: float

    def next_available(self, bat_id: int, now: float) -> float:
        """Earliest time >= now at which ``bat_id`` finishes broadcasting."""
        offset = self._offsets[bat_id]
        if self.cycle_time <= 0:
            return now
        k = math.ceil((now - offset) / self.cycle_time)
        return max(offset + k * self.cycle_time, offset)

    def mean_wait(self) -> float:
        """Expected pin wait for a uniformly random arrival: half a cycle."""
        return self.cycle_time / 2

    # ------------------------------------------------------------------
    def submit(self, spec: QuerySpec) -> Process:
        unknown = [b for b in spec.bat_ids if b not in self._offsets]
        if unknown:
            raise ValueError(f"query {spec.query_id} references unknown BATs {unknown}")
        self._submitted += 1
        delay = spec.arrival - self.sim.now
        if delay < 0:
            raise ValueError("arrival is in the past")
        return Process(self.sim, self._query_process(spec), start_delay=delay)

    def submit_all(self, specs: Iterable[QuerySpec]) -> int:
        count = 0
        for spec in specs:
            self.submit(spec)
            count += 1
        return count

    def _query_process(self, spec: QuerySpec) -> Generator:
        self.metrics.query_registered(
            ev.QueryRegistered(self.sim.now, spec.query_id, spec.node, spec.tag))
        for step in spec.steps:
            if step.op_time > 0:
                yield Delay(step.op_time)
            available = self.next_available(step.bat_id, self.sim.now)
            self.metrics.bat_pinned(ev.BatPinned(self.sim.now, step.bat_id, spec.node))
            wait = available - self.sim.now
            if wait > 0:
                yield Delay(wait)
        if spec.tail_time > 0:
            yield Delay(spec.tail_time)
        self._completed += 1
        self.metrics.query_finished(
            ev.QueryFinished(self.sim.now, spec.query_id, spec.node))

    def run_until_done(self, max_time: float = 3600.0, check_interval: float = 1.0) -> bool:
        while self.sim.now < max_time:
            if self._completed >= self._submitted:
                return True
            self.sim.run(until=min(self.sim.now + check_interval, max_time))
        return self._completed >= self._submitted


class DataCycle(BroadcastScheduleMixin):
    """A central pump broadcasting the whole database, cyclically."""

    def __init__(self, bandwidth: float = 10 * 1e9 / 8, header_size: int = 64):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth
        self.header_size = header_size
        self.sim = Simulator()
        self.metrics = MetricsCollector()
        self._sizes: Dict[int, int] = {}
        self._offsets: Dict[int, float] = {}
        self.cycle_time = 0.0
        self._submitted = 0
        self._completed = 0

    # ------------------------------------------------------------------
    def add_bat(self, bat_id: int, size: int) -> None:
        """Append a BAT to the broadcast schedule (id order of insertion)."""
        if bat_id in self._sizes:
            raise ValueError(f"BAT {bat_id} already registered")
        if size <= 0:
            raise ValueError("size must be positive")
        self._sizes[bat_id] = size
        wire = size + self.header_size
        self.cycle_time += wire / self.bandwidth
        # completion offset of this BAT within a cycle
        self._offsets[bat_id] = self.cycle_time

    @property
    def total_bytes(self) -> int:
        return sum(self._sizes.values())
