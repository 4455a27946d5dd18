"""The cross-ring request router (docs/multiring.md).

A federated query pins BATs exactly like a classic one; the difference
is one catalog lookup.  When the BAT is homed on another ring, the pin
becomes a **cross-ring fetch**: the local ring's gateway sends a
:class:`~repro.multiring.messages.FetchRequest` over the inter-ring
link, and the remote gateway answers it by running the ordinary
request/pin protocol *inside its own ring* -- the remote ring rotation,
loadAll ticks and LOIT dynamics all price the fetch honestly.  The BAT
copy then travels back as a :class:`FetchReply` sized like the real
transfer.

Robustness mirrors the paper's resend discipline: every fetch carries a
timeout derived from the *remote* ring's loaded-rotation bound plus the
link transfer, and is re-dispatched (to the current gateway, at the
current home ring) a bounded number of times before failing with
``DATA_UNAVAILABLE``.  A fetch whose home moved mid-flight -- fragment
migration -- simply re-dispatches to the new home.

One router, two hosts: the shared-clock :class:`~repro.multiring.
federation.RingFederation` builds one for all its rings and lets it send
over its own inter-ring channels; each :class:`~repro.multiring.
partition.RingPartition` builds one for its single ring and hands it a
``transport`` that stamps messages into the parallel kernel's outbox
(docs/parallel.md).  Inbound messages enter through :meth:`CrossRingRouter.
deliver` either way, so the protocol cannot tell the difference.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.config import DataCyclotronConfig
from repro.core.runtime import PinResult
from repro.events import types as ev
from repro.multiring.catalog import GlobalCatalog
from repro.multiring.config import MultiRingConfig
from repro.multiring.messages import FetchReply, FetchRequest, MigrationShipment
from repro.net.channel import Channel
from repro.sim.process import Future, Process

__all__ = ["CrossRingRouter", "fetch_timeout_for"]

DATA_UNAVAILABLE = "DATA_UNAVAILABLE"

# Gateway fetch services borrow a node's S2/S3 under ids that can never
# collide with workload queries (which are non-negative) or with the
# retrier's attempt ids (ATTEMPT_ID_BASE and up).
SERVICE_ID_BASE = -1_000_000_000


class _Fetch:
    """One outstanding cross-ring fetch, shared by all waiting queries."""

    __slots__ = (
        "req_id", "bat_id", "requester_ring", "home_ring",
        "started", "resends", "waiters", "timer",
    )

    def __init__(self, req_id: int, bat_id: int, requester_ring: int,
                 home_ring: int, started: float):
        self.req_id = req_id
        self.bat_id = bat_id
        self.requester_ring = requester_ring
        self.home_ring = home_ring
        self.started = started
        self.resends = 0
        self.waiters: List[Future] = []
        self.timer = None


def fetch_timeout_for(
    config: MultiRingConfig,
    catalog: GlobalCatalog,
    ring_configs: Dict[int, DataCyclotronConfig],
) -> float:
    """``config.fetch_timeout``, or the derived remote-serve bound:
    rotations of the slowest of the serving rings + the hop.

    The reasoning of ``derived_resend_timeout`` one level up: a remote
    fetch needs the home ring to load and rotate the BAT to its gateway
    (up to a few loaded rotations under competition), plus two link
    traversals for request and reply.
    """
    if config.fetch_timeout is not None:
        return config.fetch_timeout
    worst = 0.0
    for ring_id, ring_config in ring_configs.items():
        sizes = [catalog.size(b) for b in catalog.bats_on(ring_id)]
        mean = sum(sizes) / len(sizes) if sizes else 1024 * 1024
        worst = max(worst, ring_config.derived_resend_timeout(mean))
    mean_bat = sum(catalog.size(b) for b in catalog.bat_ids) / max(1, len(catalog))
    hop = config.link_delay() + mean_bat / config.link_bandwidth()
    return 3.0 * worst + 2.0 * hop


class CrossRingRouter:
    """Gateway bookkeeping plus the fetch/serve protocol.

    ``host`` supplies ``sim``, ``bus``, ``config``, ``catalog``,
    ``rings`` (id -> :class:`DataCyclotron` of every ring it serves) and
    ``placement`` (``None`` under static placement).  ``transport(src,
    dst, msg, size)`` carries a message to ring ``dst``'s
    :meth:`deliver`; the default is the shared-clock :meth:`link`.
    Routers running side by side (one per partition) each get a disjoint
    ``req_ids`` range: serves are tracked by request id on the home ring.
    """

    def __init__(
        self,
        host,
        transport: Optional[Callable[[int, int, object, int], None]] = None,
        req_ids: Optional[Iterator[int]] = None,
    ):
        self.fed = host
        self.sim = host.sim
        self.bus = host.bus
        self.config = host.config
        self.catalog = host.catalog
        self._send = transport if transport is not None else self._link_send
        self._req_ids = req_ids if req_ids is not None else itertools.count(1)
        # ring -> ordered gateway node ids (first is the primary)
        count = min(self.config.gateways_per_ring, self.config.nodes_per_ring)
        self.gateways: Dict[int, List[int]] = {
            ring_id: list(range(count)) for ring_id in range(self.config.max_rings)
        }
        self._links: Dict[Tuple[int, int], Channel] = {}
        self._rr: Dict[int, int] = {}
        # (requester_ring, bat_id) -> fetch; req_id -> same fetch
        self._fetches: Dict[Tuple[int, int], _Fetch] = {}
        self._by_req: Dict[int, _Fetch] = {}
        self._service_seq = SERVICE_ID_BASE
        # bats whose fetches wait for a migration to land
        self._held: Dict[int, List[Tuple[int, Future]]] = {}
        # in-flight serves per home ring: req_id -> (request, gateway
        # node, serve token); the gateway guard reads this to hand
        # stranded serves to a freshly elected gateway
        self._pending_serves: Dict[int, Dict[int, Tuple[FetchRequest, int, int]]] = {}
        # serve processes per home ring that may still emit a reply (a
        # stranded serve stays *pending* but is no longer *live*)
        self._live_serves: Dict[int, int] = {}
        self.fetch_timeout = 1.0  # overwritten by the federation at start
        # headline numbers (federation report)
        self.fetches_dispatched = 0
        self.fetches_served = 0
        self.fetches_failed = 0
        self.serves_handed_off = 0
        self.fetch_latencies: List[float] = []
        self.fetch_latency_max: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def gateway(self, ring_id: int) -> int:
        """The primary gateway node of ``ring_id`` (local node index)."""
        return self.gateways[ring_id][0]

    def next_gateway(self, ring_id: int) -> int:
        """Round-robin over the ring's gateways for outgoing traffic."""
        nodes = self.gateways[ring_id]
        slot = self._rr.get(ring_id, 0)
        self._rr[ring_id] = (slot + 1) % len(nodes)
        return nodes[slot % len(nodes)]

    def link(self, src_ring: int, dst_ring: int) -> Channel:
        """The directed inter-ring channel, created on first use.

        Endpoints are the rings' gateways; the queue is unbounded (the
        gateway spools to local disk rather than dropping cross-ring
        traffic) so the only loss source is a gateway death purge.
        """
        key = (src_ring, dst_ring)
        channel = self._links.get(key)
        if channel is None:
            channel = Channel(
                self.sim,
                bandwidth=self.config.link_bandwidth(),
                delay=self.config.link_delay(),
                queue_capacity=None,
                name=f"xring-{src_ring}->{dst_ring}",
                bus=self.bus,
            )
            channel.set_receiver(
                lambda msg, size, _dst=dst_ring: self.deliver(_dst, msg, size)
            )
            self._links[key] = channel
        return channel

    def _link_send(self, src_ring: int, dst_ring: int, msg, size: int) -> None:
        self.link(src_ring, dst_ring).send(msg, size)

    def purge_outgoing(self, ring_id: int) -> int:
        """Drop everything queued in ``ring_id``'s outgoing endpoints.

        Called when the ring's gateway dies: queued cross-ring messages
        lived in the dead node's memory.  Returns the number dropped.
        """
        dropped = 0
        for (src, _dst), channel in self._links.items():
            if src == ring_id:
                dropped += len(channel.purge_queue())
        return dropped

    def set_gateways(self, ring_id: int, nodes: List[int]) -> None:
        self.gateways[ring_id] = list(nodes)
        self._rr[ring_id] = 0

    # ------------------------------------------------------------------
    # the requester side
    # ------------------------------------------------------------------
    def fetch(self, requester_ring: int, bat_id: int) -> Future:
        """A pin-shaped future for a BAT homed on another ring."""
        fut = Future(self.sim)
        if self.fed.placement is not None:
            self.fed.placement.note_fetch(requester_ring, bat_id)
        if self.catalog.is_migrating(bat_id):
            self._held.setdefault(bat_id, []).append((requester_ring, fut))
            return fut
        self._join_or_dispatch(requester_ring, bat_id, fut)
        return fut

    def _join_or_dispatch(self, requester_ring: int, bat_id: int, fut: Future) -> None:
        key = (requester_ring, bat_id)
        fetch = self._fetches.get(key)
        if fetch is not None:
            # absorption, one level up: several queries on this ring
            # share one in-flight cross-ring fetch (section 4.2.2)
            fetch.waiters.append(fut)
            return
        fetch = _Fetch(
            next(self._req_ids), bat_id, requester_ring,
            self.catalog.home(bat_id), self.sim.now,
        )
        fetch.waiters.append(fut)
        self._fetches[key] = fetch
        self._by_req[fetch.req_id] = fetch
        self.fetches_dispatched += 1
        self._send_fetch(fetch, resend=False)

    def _send_fetch(self, fetch: _Fetch, resend: bool) -> None:
        home = self.catalog.home(fetch.bat_id)
        fetch.home_ring = home
        if self.bus.active:
            self.bus.publish(ev.CrossRingRequest(
                self.sim.now, fetch.bat_id, fetch.requester_ring, home, resend
            ))
        if home == fetch.requester_ring:
            # the fragment migrated here while we were queued: serve it
            # from our own ring, no link traversal
            self._serve(home, FetchRequest(
                fetch.req_id, fetch.bat_id, fetch.requester_ring, home
            ))
        else:
            self._send(
                fetch.requester_ring, home,
                FetchRequest(fetch.req_id, fetch.bat_id, fetch.requester_ring, home),
                self.config.base.request_message_size,
            )
        fetch.timer = self.sim.schedule(
            self.fetch_timeout, self._fetch_timeout, fetch.req_id, fetch.resends
        )

    def _fetch_timeout(self, req_id: int, resends_at_arm: int) -> None:
        fetch = self._by_req.get(req_id)
        if fetch is None or fetch.resends != resends_at_arm:
            return
        fetch.resends += 1
        if fetch.resends > self.config.fetch_max_resends:
            self._resolve(fetch, PinResult(
                ok=False, bat_id=fetch.bat_id, error=DATA_UNAVAILABLE
            ))
            return
        self._send_fetch(fetch, resend=True)

    def _resolve(self, fetch: _Fetch, result: PinResult) -> None:
        key = (fetch.requester_ring, fetch.bat_id)
        self._fetches.pop(key, None)
        self._by_req.pop(fetch.req_id, None)
        for pending in self._pending_serves.values():
            pending.pop(fetch.req_id, None)
        if fetch.timer is not None:
            fetch.timer.cancel()
            fetch.timer = None
        if result.ok:
            latency = self.sim.now - fetch.started
            self.fetches_served += 1
            self.fetch_latencies.append(latency)
            prev = self.fetch_latency_max.get(fetch.bat_id, 0.0)
            if latency > prev:
                self.fetch_latency_max[fetch.bat_id] = latency
            if self.bus.active:
                self.bus.publish(ev.CrossRingTransfer(
                    self.sim.now, fetch.bat_id, fetch.home_ring,
                    fetch.requester_ring, self.catalog.size(fetch.bat_id), latency
                ))
        else:
            self.fetches_failed += 1
        for fut in fetch.waiters:
            fut.resolve(result)

    # ------------------------------------------------------------------
    # the serving side
    # ------------------------------------------------------------------
    def deliver(self, dst_ring: int, msg, size: int) -> None:
        """One inter-ring message arrived at ``dst_ring``'s gateway."""
        if isinstance(msg, FetchRequest):
            self._serve(dst_ring, msg)
        elif isinstance(msg, FetchReply):
            self._on_reply(dst_ring, msg)
        elif isinstance(msg, MigrationShipment):
            self.fed.placement.on_shipment_arrived(msg)

    def _serve(self, home_ring: int, req: FetchRequest) -> int:
        """Run the classic request/pin protocol inside the home ring.

        Returns the gateway node the serve was placed on.  The serve is
        tracked in ``_pending_serves`` until it answers (or provably
        cannot): a serve stranded on a gateway that dies mid-pin stays
        pending, which is what lets :meth:`handoff_serves` re-dispatch
        it instead of leaving the requester to its resend timeout.
        """
        ring = self.fed.rings[home_ring]
        gateway = self.next_gateway(home_ring)
        runtime = ring.nodes[gateway]
        self._service_seq -= 1
        service_id = self._service_seq
        local = home_ring == req.from_ring
        # a re-dispatch (resend or handoff) replaces the stale entry;
        # the token keeps the superseded serve from popping it
        self._pending_serves.setdefault(home_ring, {})[req.req_id] = (
            req, gateway, service_id
        )

        live = self._live_serves
        live[home_ring] = live.get(home_ring, 0) + 1

        def serve():
            try:
                if runtime.crashed:
                    return  # stays pending: handoff or requester timeout
                runtime.request(service_id, [req.bat_id])
                fut = runtime.pin(service_id, req.bat_id)
                yield fut
                result: PinResult = fut.value
                if result.ok:
                    runtime.unpin(service_id, req.bat_id)
                # a fetch service is not a query, so it must not publish
                # query-lifecycle events (finish_query would)
                runtime.release_query(service_id)
                if runtime.crashed and not result.ok:
                    return  # stays pending: a dead gateway answers nobody
                self._serve_done(home_ring, req.req_id, service_id)
                reply = FetchReply(
                    req.req_id, req.bat_id, ok=result.ok,
                    payload=result.payload, version=result.version,
                    size=self.catalog.size(req.bat_id) if req.bat_id in self.catalog else 0,
                    error=result.error or "",
                )
                if local:
                    self._on_reply(req.from_ring, reply)
                else:
                    wire = (
                        reply.size + self.config.base.bat_header_size
                        if result.ok
                        else self.config.base.request_message_size
                    )
                    self._send(home_ring, req.from_ring, reply, wire)
            finally:
                live[home_ring] -= 1

        Process(self.sim, serve())
        return gateway

    def _serve_done(self, home_ring: int, req_id: int, service_id: int) -> None:
        """Clear a pending-serve entry, unless a re-dispatch replaced it."""
        pending = self._pending_serves.get(home_ring)
        if pending is not None:
            entry = pending.get(req_id)
            if entry is not None and entry[2] == service_id:
                del pending[req_id]

    def live_serve_count(self, ring_id: int) -> int:
        """Serve processes of ``ring_id`` that have not run to an end yet,
        i.e. may still send a reply -- an input of the partitioned
        kernel's conservative bound (docs/parallel.md)."""
        return self._live_serves.get(ring_id, 0)

    def pending_serve_count(self, ring_id: int, node: Optional[int] = None) -> int:
        """Fetch serves currently in flight inside ``ring_id`` (optionally
        only those running on ``node``) -- the chaos scenarios use this
        to crash a gateway at a moment when the handoff has work to do."""
        pending = self._pending_serves.get(ring_id)
        if not pending:
            return 0
        if node is None:
            return len(pending)
        return sum(1 for entry in pending.values() if entry[1] == node)

    def handoff_serves(self, ring_id: int, dead_node: int) -> int:
        """Re-dispatch the serves stranded on ``ring_id``'s dead gateway.

        Called by the gateway guard *after* it re-elected the ring's
        gateway set (docs/workloads.md): every pending fetch serve that
        was running on ``dead_node`` is re-run on a live gateway, so the
        requester gets its reply a ring rotation later instead of a full
        ``fetch_timeout`` later -- the difference is the gateway-chaos
        scenario's p999 tail.  Returns the number of serves moved.
        """
        pending = self._pending_serves.get(ring_id)
        if not pending:
            return 0
        if dead_node in self.gateways.get(ring_id, []):
            return 0  # no live replacement was elected; nothing to move to
        stranded = [
            (req_id, entry[0], entry[1])
            for req_id, entry in sorted(pending.items())
            if entry[1] == dead_node
        ]
        for _req_id, req, from_node in stranded:
            to_node = self._serve(ring_id, req)
            self.serves_handed_off += 1
            if self.bus.active:
                self.bus.publish(ev.ServeHandedOff(
                    self.sim.now, req.bat_id, ring_id, from_node, to_node
                ))
        return len(stranded)

    def _on_reply(self, _dst_ring: int, reply: FetchReply) -> None:
        fetch = self._by_req.get(reply.req_id)
        if fetch is None:
            return  # late duplicate after resolution
        if not reply.ok and self.catalog.maybe_home(reply.bat_id) not in (
            None, fetch.home_ring
        ):
            # the fragment moved while the fetch was in flight; chase it
            fetch.resends += 1
            if fetch.resends <= self.config.fetch_max_resends:
                if fetch.timer is not None:
                    fetch.timer.cancel()
                self._send_fetch(fetch, resend=True)
                return
        self._resolve(fetch, PinResult(
            ok=reply.ok, bat_id=reply.bat_id, payload=reply.payload,
            version=reply.version, error=reply.error or None,
        ))

    # ------------------------------------------------------------------
    # migration hand-off
    # ------------------------------------------------------------------
    def release_held(self, bat_id: int) -> None:
        """A migration ended (either way): dispatch the queued fetches.

        A fetch whose requester turns out to be the new home ring is
        still dispatched -- ``_send_fetch`` notices and serves it from
        the requester's own ring without a link traversal.
        """
        for requester_ring, fut in self._held.pop(bat_id, []):
            self._join_or_dispatch(requester_ring, bat_id, fut)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        latencies = self.fetch_latencies
        mean = sum(latencies) / len(latencies) if latencies else 0.0
        return {
            "fetches_dispatched": self.fetches_dispatched,
            "fetches_served": self.fetches_served,
            "fetches_failed": self.fetches_failed,
            "fetch_mean_latency": round(mean, 6),
            "fetch_max_latency": round(max(latencies), 6) if latencies else 0.0,
            "serves_handed_off": self.serves_handed_off,
        }
