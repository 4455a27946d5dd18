"""The resilience control loop: detection -> repair -> retry -> shed.

One :class:`ResilienceManager` per deployment (constructed by the
facade when ``config.resilience`` is on).  It owns

* one :class:`~repro.resilience.detector.SuccessorMonitor` per node,
  fed by wrapping every node's incoming request-channel receiver (so
  forwarded requests count as liveness traffic) and padded with
  periodic :class:`~repro.core.messages.HeartbeatMessage` beacons,
* the confirmation policy: a confirmed-dead successor that is really
  down triggers :meth:`DataCyclotron.repair_after_failure` -- repair is
  driven by the protocol, not by the fault injector,
* the :class:`~repro.resilience.retry.QueryRetrier` for query failover,
* the admission valve: while at least ``ADMISSION_SUSPECT_FRACTION`` of
  the ring is known-dead or suspected, new queries are shed (fast-fail)
  instead of being allowed to storm a partitioned ring with retries.

Detection knowledge is deliberately *not* omniscient: routing and
shedding consult only what the detector has published (``known_down``
and live suspicions), never ``ring.is_alive`` -- the single exception
is the guard that refuses to evict a falsely-accused live node, a stand-
in for the membership consensus a real deployment would run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set

from repro.core.messages import REQUEST_MESSAGE_SIZE, HeartbeatMessage
from repro.core.query import QuerySpec
from repro.events import types as ev
from repro.resilience.detector import SuccessorMonitor
from repro.resilience.retry import QueryRetrier, RetryState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ring import DataCyclotron

__all__ = ["ResilienceManager"]

# Each node beacons to its predecessor every HEARTBEAT_INTERVAL seconds;
# the predecessor scores phi over the last HEARTBEAT_WINDOW gaps and
# suspects at PHI_SUSPECT, confirms (and repairs) at PHI_CONFIRM.
HEARTBEAT_INTERVAL = 0.05
HEARTBEAT_WINDOW = 16
PHI_SUSPECT = 1.5
PHI_CONFIRM = 3.0
# the share of the ring down or suspected at which new queries are shed
ADMISSION_SUSPECT_FRACTION = 0.5


class ResilienceManager:
    """Failure detection, detector-driven repair, retry and admission."""

    def __init__(self, dc: "DataCyclotron"):
        self.dc = dc
        self.sim = dc.sim
        self.bus = dc.bus
        self.config = dc.config
        n = self.config.n_nodes
        self.monitors: List[SuccessorMonitor] = [
            SuccessorMonitor(
                node_id=i,
                window_capacity=HEARTBEAT_WINDOW,
                prior=HEARTBEAT_INTERVAL,
            )
            for i in range(n)
        ]
        # nodes the detector has confirmed dead (cleared on rejoin)
        self.known_down: Set[int] = set()
        self.retrier = QueryRetrier(self)
        # optional closed-loop overload controller (docs/overload.md);
        # when attached, its admit() gates submission alongside the
        # detector-driven shedding valve
        self.overload = None
        self._started = False
        self.bus.subscribe(ev.NodeRejoined, self._on_rejoin)
        # Monitors track the *physical wiring*, which changes only when
        # the facade rewires the ring.  Retargeting from liveness flags
        # instead would leak injector knowledge: the monitor would skip
        # past a silently-failed node before ever detecting it.
        self.bus.subscribe(ev.NodeCrashed, self._on_rewire)
        self.bus.subscribe(ev.NodeRejoined, self._on_rewire)
        self.bus.subscribe(ev.RingRepaired, self._on_rewire)
        # interpose on every node's incoming request stream; rewire()
        # re-reads the installed receivers, so the wrappers survive
        # every topology change
        for i, node in enumerate(dc.nodes):
            dc.ring.install_node(
                i, node.on_bat_message, self._wrap_request_receiver(i)
            )

    # ------------------------------------------------------------------
    # liveness observation
    # ------------------------------------------------------------------
    def _wrap_request_receiver(self, node_id: int):
        node = self.dc.nodes[node_id]
        monitor = self.monitors[node_id]
        original = node.on_request_message

        def receive(msg, size):
            if isinstance(msg, HeartbeatMessage):
                # beacons carry their sender: one in flight across a
                # topology change must not refresh the wrong target
                if (
                    not node.crashed
                    and monitor.target is not None
                    and msg.sender == monitor.target
                ):
                    self._note_arrival(monitor)
                return
            if not node.crashed and monitor.target is not None:
                self._note_arrival(monitor)
            original(msg, size)

        return receive

    def _note_arrival(self, monitor: SuccessorMonitor) -> None:
        now = self.sim.now
        monitor.note_arrival(now)
        if monitor.suspected:
            monitor.suspected = False
            self.bus.publish(
                ev.NodeSuspicionCleared(now, monitor.target, monitor.node_id)
            )

    # ------------------------------------------------------------------
    # periodic ticks (scheduled by the facade's _start_ticks)
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        now = self.sim.now
        for i in range(self.config.n_nodes):
            self._retarget(self.monitors[i], now)
            self.sim.post(HEARTBEAT_INTERVAL, self._beacon, i)
            self.sim.post(HEARTBEAT_INTERVAL, self._check, i)

    def _beacon(self, node_id: int) -> None:
        node = self.dc.nodes[node_id]
        if not node.crashed:
            node.out_request.send(HeartbeatMessage(node_id), REQUEST_MESSAGE_SIZE)
        self.sim.post(HEARTBEAT_INTERVAL, self._beacon, node_id)

    def _retarget(self, monitor: SuccessorMonitor, now: float) -> None:
        """Point the monitor at the node's currently-wired successor."""
        node_id = monitor.node_id
        if self.dc.nodes[node_id].crashed or node_id not in self.dc.members:
            if monitor.target is not None:
                monitor.reset(None, now)
            return
        succ = self.dc.wired_successor(node_id)
        target = succ if succ != node_id else None
        if target != monitor.target:
            monitor.reset(target, now)

    def _on_rewire(self, _event) -> None:
        """The facade rewired the ring: refresh every monitor's target."""
        now = self.sim.now
        for monitor in self.monitors:
            self._retarget(monitor, now)

    def _check(self, node_id: int) -> None:
        monitor = self.monitors[node_id]
        now = self.sim.now
        node = self.dc.nodes[node_id]
        if node.crashed:
            if monitor.target is not None:
                monitor.reset(None, now)
        elif monitor.target is not None:
            target = monitor.target
            phi = monitor.phi(now)
            if phi >= PHI_CONFIRM:
                self._confirm(monitor, target, phi)
            elif phi >= PHI_SUSPECT and not monitor.suspected:
                monitor.suspected = True
                self.bus.publish(ev.NodeSuspected(now, target, node_id, phi))
        self.sim.post(HEARTBEAT_INTERVAL, self._check, node_id)

    def _confirm(self, monitor: SuccessorMonitor, target: int, phi: float) -> None:
        now = self.sim.now
        if self.dc.ring.is_alive(target):
            # A live node crossed the confirmation threshold (e.g. its
            # outgoing request link is blackholed).  A real deployment
            # would run membership consensus before eviction; the
            # simulator keeps the node suspected and waits for traffic.
            if not monitor.suspected:
                monitor.suspected = True
                self.bus.publish(
                    ev.NodeSuspected(now, target, monitor.node_id, phi)
                )
            return
        monitor.suspected = False
        self.known_down.add(target)
        self.bus.publish(ev.NodeConfirmedDead(now, target, monitor.node_id, phi))
        if target in self.dc.unrepaired_failures:
            self.dc.repair_after_failure(target)
        self._retarget(monitor, now)

    def _on_rejoin(self, event: ev.NodeRejoined) -> None:
        self.known_down.discard(event.node)

    # ------------------------------------------------------------------
    # admission + routing (detected knowledge only)
    # ------------------------------------------------------------------
    @property
    def suspected_targets(self) -> Set[int]:
        return {m.target for m in self.monitors if m.suspected and m.target is not None}

    @property
    def shedding(self) -> bool:
        down = self.known_down | self.suspected_targets
        return len(down) / self.config.n_nodes >= ADMISSION_SUSPECT_FRACTION

    def route(self, preferred: int) -> int:
        """First believed-live node at or clockwise of ``preferred``."""
        n = self.config.n_nodes
        avoid = self.known_down | self.suspected_targets
        for step in range(n):
            candidate = (preferred + step) % n
            if candidate not in avoid:
                return candidate
        return preferred % n

    def submit(self, spec: QuerySpec) -> RetryState:
        """Submit one logical query under retry/failover management."""
        return self.retrier.submit(spec)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Deterministic headline numbers for reports and summaries."""
        counts = self.retrier.counts()
        latencies = sorted(self.retrier.latencies())
        p99 = 0.0
        if latencies:
            rank = max(0, -(-99 * len(latencies) // 100) - 1)  # ceil, 1-based
            p99 = latencies[rank]
        return {
            "resilient_queries": counts["managed"],
            "resilient_succeeded": counts["succeeded"],
            "resilient_failed": counts["failed"],
            "resilient_shed": counts["shed"],
            "resilient_attempts": counts["attempts"],
            "resilient_p99_latency": round(p99, 6),
        }
