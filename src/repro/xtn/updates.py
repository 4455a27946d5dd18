"""Multi-version updates with the "updating" tag protocol (section 6.4).

"An update query searches for a controlling node N to settle and waits
for relevant BATs to pass by.  The only difference is that when a node N
processes an update request, for a BAT f, it propagates f with a tag:
'updating'.  This way, any concurrent updates, waiting in the rest of
the ring, refrain from processing f, recognizing its stale state; they
have to wait for the new version. ... Read-only queries that do not
necessarily require the latest updated version can continue using the
flowing old version."

The :class:`UpdateCoordinator` realises this: update requests settle on
a controlling node, serialise per BAT (concurrent updaters queue for the
in-flight one, the "sent directly to N" alternative), apply their write
cost, and bump the owner's catalog version.  The stale copy keeps
serving relaxed readers until it next passes its owner, which retires it
and circulates the new version (see the version check in
:meth:`repro.core.runtime.NodeRuntime._hot_set_management`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.core.ring import DataCyclotron
from repro.core.runtime import PinResult
from repro.events import types as ev
from repro.sim.process import Delay, Future, Process

__all__ = ["UpdateRequest", "UpdateCoordinator"]

_UPDATE_QID_BASE = 2_000_000_000


@dataclass
class UpdateRequest:
    """Lifecycle of one update query."""

    update_id: int
    bat_id: int
    node: int                     # the controlling node N
    apply_time: float
    submitted_at: float
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    new_version: Optional[int] = None
    waited_for_lock: bool = False

    @property
    def done(self) -> bool:
        return self.completed_at is not None


class UpdateCoordinator:
    """Serialises updates per BAT and publishes new versions."""

    def __init__(self, dc: DataCyclotron, mutate: Optional[Callable[[int, Any], Any]] = None):
        """``mutate(bat_id, payload) -> new_payload`` transforms the
        owner's disk payload in functional mode; omit for size-only
        simulations."""
        self.dc = dc
        self.mutate = mutate
        self._next_id = 0
        # the "updating" tag: BAT id -> queue of waiting update futures
        self._locks: Dict[int, List[Future]] = {}
        self.requests: List[UpdateRequest] = []

    # ------------------------------------------------------------------
    def current_version(self, bat_id: int) -> int:
        owner = self.dc.bat_owner(bat_id)
        return self.dc.nodes[owner].s1.get(bat_id).version

    # ------------------------------------------------------------------
    def submit_update(
        self, bat_id: int, node: int, apply_time: float, arrival: float = 0.0
    ) -> UpdateRequest:
        """Schedule an update query; returns its tracking record."""
        if apply_time < 0:
            raise ValueError("apply_time cannot be negative")
        update = UpdateRequest(
            update_id=self._next_id,
            bat_id=bat_id,
            node=node,
            apply_time=apply_time,
            submitted_at=arrival,
        )
        self._next_id += 1
        self.requests.append(update)
        delay = arrival - self.dc.sim.now
        if delay < 0:
            raise ValueError("arrival is in the past")
        self.dc._submitted += 1
        Process(self.dc.sim, self._update_process, update, start_delay=delay)
        return update

    def _update_process(self, update: UpdateRequest) -> Generator:
        runtime = self.dc.nodes[update.node]
        sim = self.dc.sim
        query_id = _UPDATE_QID_BASE + update.update_id
        if self.dc.bus.active:
            self.dc.bus.publish(
                ev.QueryRegistered(sim.now, query_id, update.node, tag="update"))

        # Respect the "updating" tag: concurrent updates wait for the
        # in-flight one instead of processing the stale version.
        while update.bat_id in self._locks:
            update.waited_for_lock = True
            gate = Future(sim)
            self._locks[update.bat_id].append(gate)
            yield gate
        self._locks[update.bat_id] = []
        update.started_at = sim.now

        try:
            # settle and wait for the BAT to pass by, like any query
            runtime.request(query_id, [update.bat_id])
            pin = runtime.pin(query_id, update.bat_id)
            yield pin
            result: PinResult = pin.value
            if not result.ok:
                runtime.finish_query(query_id, failed=True, error=result.error or "")
                update.completed_at = sim.now
                return
            # apply the write
            if update.apply_time > 0:
                yield runtime.exec_op(update.apply_time)
            # publish the new version at the owner
            owner = self.dc.nodes[self.dc.bat_owner(update.bat_id)]
            entry = owner.s1.get(update.bat_id)
            # a copy running through the owner in closed form must meet
            # the new version at its next pass
            self.dc.ff.flush_bat(update.bat_id, owner.node_id)
            entry.version += 1
            if self.mutate is not None:
                old = owner.loader.payloads.get(update.bat_id)
                owner.loader.payloads[update.bat_id] = self.mutate(
                    update.bat_id, old
                )
            update.new_version = entry.version
            runtime.unpin(query_id, update.bat_id)
            runtime.finish_query(query_id)
            update.completed_at = sim.now
        finally:
            waiters = self._locks.pop(update.bat_id, [])
            for gate in waiters:
                gate.resolve(None)

    # ------------------------------------------------------------------
    def read_latest(
        self, node: int, query_id: int, bat_id: int, min_version: int
    ) -> Generator:
        """A strict reader: re-pins until it sees ``min_version``.

        Relaxed readers just use the normal ``pin()`` -- they accept the
        flowing old version, as the paper allows.
        """
        runtime = self.dc.nodes[node]
        while True:
            runtime.request(query_id, [bat_id])
            pin = runtime.pin(query_id, bat_id)
            yield pin
            result: PinResult = pin.value
            if not result.ok:
                return result
            if result.version >= min_version:
                return result
            # stale: release and wait roughly one rotation before trying
            # again (also avoids a zero-time spin on a cached stale copy)
            runtime.unpin(query_id, bat_id)
            yield Delay(runtime.loss_timeout / 2)
