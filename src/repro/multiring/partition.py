"""Per-ring partitions for the parallel kernel (docs/parallel.md).

A :class:`RingPartition` is one classic :class:`~repro.core.ring.
DataCyclotron` on its **own** simulator clock.  It *hosts* the
federation's code for its single ring rather than re-implementing it:
:class:`~repro.multiring.router.CrossRingRouter` fetches and serves,
queries run :func:`~repro.multiring.federation.federated_query_process`,
failures climb the :class:`~repro.multiring.federation.FederationHost`
retry ladder.  The partition adds what a private clock needs: a
``transport`` that turns the router's sends into timestamped
cross-partition messages, and the conservative bound
(:meth:`RingPartition.end_of_timestep`) the kernel grants time by.

Scope (docs/parallel.md): **static data placement with cross-ring
fetches**.  The catalog the partitions share is frozen once the kernel
starts, so the router's migration branches never fire; the placement
manager, split/merge controller and nomadic query shipping move state
*between* rings mid-run and stay exclusive to the shared-clock
:class:`~repro.multiring.federation.RingFederation`.

The cross-ring link is split at the propagation boundary: queueing and
serialisation of the outbound gateway link are simulated inside the
sending partition (a zero-delay :class:`~repro.net.channel.Channel`
whose receiver is the outbox), while the propagation delay is *never*
simulated -- it is added to the message timestamp.  That split is what
gives the kernel its lookahead: a message emitted at time ``s`` arrives
at ``s + link_delay``, so a partition that has not yet emitted anything
by the window edge provably cannot deliver below ``edge + link_delay``.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from typing import Any, Dict, List, Optional

from repro.core.query import QuerySpec
from repro.core.ring import DataCyclotron
from repro.events import types as ev
from repro.multiring.catalog import GlobalCatalog
from repro.multiring.config import MultiRingConfig
from repro.multiring.federation import FederationHost
from repro.multiring.router import CrossRingRouter
from repro.net.channel import Channel
from repro.sim.parallel import INFINITY, CrossPartitionMessage
from repro.sim.process import Process

__all__ = ["RingPartition", "StreamDigest", "attach_stream_digest"]


# ----------------------------------------------------------------------
# event-stream digests (the equivalence suite's currency)
# ----------------------------------------------------------------------
class StreamDigest:
    """sha256 over the ``repr`` of every recorded event, in publish order.

    The same repr-hash contract as tests/qpu_harness.py: two runs are
    *equivalent* when their typed event streams hash identically.
    """

    __slots__ = ("_sha", "count")

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.count = 0

    def record(self, event: Any) -> None:
        self._sha.update(repr(event).encode())
        self._sha.update(b"\n")
        self.count += 1

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


# Kernel bookkeeping events are excluded so a partitioned ring-local run
# hashes identically to a classic DataCyclotron run; SimEventFired is
# excluded because subscribing to it changes engine behaviour.
_DIGEST_SKIP = frozenset({"SimEventFired", "TimeGrantIssued", "PartitionSynced"})


def attach_stream_digest(bus) -> StreamDigest:
    """Subscribe a :class:`StreamDigest` to every protocol event type."""
    digest = StreamDigest()
    types = [
        obj
        for name in ev.__all__
        if name not in _DIGEST_SKIP and isinstance(obj := getattr(ev, name), type)
    ]
    bus.subscribe_many(types, digest.record)
    return digest


# ----------------------------------------------------------------------
# the partition itself
# ----------------------------------------------------------------------
class RingPartition(FederationHost):
    """One ring of a federation, on its own clock, kernel-schedulable.

    Implements the duck interface of :class:`~repro.sim.parallel.
    ParallelKernel`: ``start``/``finish``, ``end_of_timestep``,
    ``deliver``/``collect_outbox``, ``completed``.
    """

    def __init__(self, ring_id: int, config: MultiRingConfig, catalog: GlobalCatalog):
        self.ring_id = ring_id
        self.config = config
        self.catalog = catalog  # shared by every partition, frozen at start
        self.dc = DataCyclotron(config=config.ring_config(ring_id))
        self.sim = self.dc.sim
        self.bus = self.dc.bus
        # --- what the router and the ladder ask of their host ---
        self.rings = {ring_id: self.dc}
        self.placement = None  # static placement: nobody folds interest
        self.router = CrossRingRouter(
            self,
            transport=self._send_cross,
            # serves are tracked by request id on the home ring, so ids
            # must be unique across partitions, not just within one
            req_ids=itertools.count(ring_id, config.n_rings),
        )
        self._init_ladder()
        self._watch_ring(ring_id, self.dc)
        self._out: Dict[int, Channel] = {}
        self._outbox: List[CrossPartitionMessage] = []
        self._emit_seq = 0
        # --- the EOT bound's inputs (docs/parallel.md) ---
        # arrival times of dispatched-but-not-started remote-touching
        # queries; popped (smallest first == start order) at start
        self._xarrivals: List[float] = []
        self._xactive = 0    # remote-touching queries currently running
        self._xoutbound = 0  # sent on an outbound link, not yet emitted
        self._xinbound = 0   # delivered cross messages not yet fired
        self._submitted = 0
        self._started = False
        # the bound is asked once per partition per window
        self._grant = self.bus.topic(ev.TimeGrantIssued)

    # ------------------------------------------------------------------
    # build-time API
    # ------------------------------------------------------------------
    def add_bat(
        self, bat_id: int, size: int, payload: Any = None, tag: Optional[str] = None
    ) -> int:
        """Register a locally-homed BAT; returns the local owner node."""
        owner = self.dc.add_bat(bat_id, size, payload=payload, tag=tag)
        self.catalog.place(bat_id, self.ring_id, size)
        return owner

    def submit(self, spec: QuerySpec) -> Process:
        """Submit one query addressed to a *local* node index."""
        proc = self._dispatch(self.ring_id, spec, spec.node, spec.arrival)
        self._submitted += 1
        if self._is_remote(spec):
            heapq.heappush(self._xarrivals, spec.arrival)
        return proc

    # ------------------------------------------------------------------
    # ladder hooks: keep the EOT bound's inputs honest
    # ------------------------------------------------------------------
    def _is_remote(self, spec: QuerySpec) -> bool:
        return any(self.catalog.maybe_home(b) != self.ring_id for b in spec.bat_ids)

    def _note_start(self, ring_id: int, spec: QuerySpec) -> None:
        if self._is_remote(spec):
            # starts happen in time order, so the started query always
            # owns the smallest queued arrival (ties carry equal values)
            heapq.heappop(self._xarrivals)
            self._xactive += 1

    def _query_ended(self, ring_id: int, spec: QuerySpec) -> None:
        if self._is_remote(spec):
            self._xactive -= 1

    def _retry_scheduled(self, ring_id: int, spec: QuerySpec, at: float) -> None:
        if self._is_remote(spec):
            # the retry will touch remote data again: keep the EOT
            # bound honest across the backoff gap
            heapq.heappush(self._xarrivals, at)

    # ------------------------------------------------------------------
    # cross-partition plumbing: the router's transport
    # ------------------------------------------------------------------
    def _send_cross(self, _src_ring: int, dst_ring: int, payload: Any, size: int) -> None:
        """Queue a message on the outbound gateway link to ``dst_ring``.

        Queueing and serialisation are simulated here; the propagation
        delay is added to the timestamp at emission (:meth:`_emit`).
        """
        channel = self._out.get(dst_ring)
        if channel is None:
            channel = self._out[dst_ring] = Channel(
                self.sim,
                bandwidth=self.config.base.bandwidth,
                delay=0.0,
                queue_capacity=None,
                name=f"xpart-{self.ring_id}->{dst_ring}",
                bus=self.bus,
            )
            channel.set_receiver(
                lambda msg, sz, _dst=dst_ring: self._emit(_dst, msg, sz)
            )
        self._xoutbound += 1
        channel.send(payload, size)

    def _emit(self, dst_ring: int, payload: Any, size: int) -> None:
        self._xoutbound -= 1
        self._emit_seq += 1
        self._outbox.append(CrossPartitionMessage(
            self.sim.now + self.config.link_delay(),
            self.ring_id, self._emit_seq, dst_ring, payload, size,
        ))

    def collect_outbox(self) -> List[CrossPartitionMessage]:
        out = self._outbox
        self._outbox = []
        return out

    def deliver(self, msg: CrossPartitionMessage) -> None:
        """Schedule one inbound cross-partition message (kernel-called)."""
        self._xinbound += 1
        self.sim.post_at(msg.deliver_at, self._on_cross, msg.payload, msg.size)

    def _on_cross(self, payload: Any, size: int) -> None:
        self._xinbound -= 1
        self.router.deliver(self.ring_id, payload, size)

    # ------------------------------------------------------------------
    # the conservative bound
    # ------------------------------------------------------------------
    def end_of_timestep(self, lookahead: float) -> float:
        """Earliest instant a peer could still receive a message from us.

        The bound walks the partition's cross-ring activity sources from
        most to least imminent; each also names the
        :class:`~repro.events.types.TimeGrantIssued` bound label:

        * ``inbound`` -- a delivered request/reply has not fired yet; it
          may trigger a serve (and a reply emission) any moment,
        * ``inflight`` -- a serve is running, or the outbound link still
          holds unemitted messages,
        * ``query`` -- a remote-touching query is running (it may fetch
          at any moment), or one is dispatched for a future arrival,
        * ``idle`` -- no cross-ring work exists or is scheduled: the
          partition grants unbounded time.
        """
        now = self.sim.now
        if self._xinbound:
            bound, base = "inbound", now
        elif self._xoutbound or self.router.live_serve_count(self.ring_id):
            bound, base = "inflight", now
        elif self._xactive:
            bound, base = "query", now
        elif self._xarrivals:
            bound, base = "query", self._xarrivals[0]
        else:
            bound, base = "idle", INFINITY
        eot = base + lookahead if base != INFINITY else INFINITY
        if self._grant.wanted:
            self.bus.publish(ev.TimeGrantIssued(now, self.ring_id, eot, bound))
        return eot

    # ------------------------------------------------------------------
    # lifecycle (the kernel's duck interface) and reporting
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.dc._start_ticks()

    def finish(self) -> None:
        self.dc.ff.flush_all()

    @property
    def completed(self) -> int:
        return len(self._outcomes)

    def summary(self) -> dict:
        out = {
            "ring": self.ring_id,
            "nodes": self.dc.config.n_nodes,
            "submitted": self._submitted,
            "completed": len(self._outcomes),
            "failed": sum(1 for o in self._outcomes.values() if o != "ok"),
            "queries_finished": sum(n.queries_finished for n in self.dc.nodes),
            "events_processed": self.sim.processed,
            "events_dispatched": self.sim.dispatched,
        }
        out.update(self.router.stats())
        # no gateway guard here, so no handoffs (bench/ hashes these keys)
        del out["serves_handed_off"]
        return out
