"""The per-node Data Cyclotron runtime: the control centre of Figure 2.

One :class:`NodeRuntime` instance per ring node serves the three message
streams of section 4.2: (a) requests from the local DBMS instance, (b)
the predecessor's BATs, and (c) the successor's requests.  It implements

* the **Request Propagation** algorithm (Figure 3, six outcomes),
* the **BAT Propagation** algorithm (Figure 4),
* **Hot Set Management** with the LOI recomputation (Figure 5, Eq. 1),
* the DBMS-layer API ``request() / pin() / unpin()`` injected into query
  plans by the DC optimizer (section 4.1, Table 2),
* the robustness machinery of section 4.2.3: ``resend()`` timeouts for
  lost requests, lazy detection of BATs lost to DropTail, and the
  periodic ``loadAll`` / LOIT-adaptation ticks,
* the fault-tolerance extension beyond the paper (docs/faults.md):
  crash/restart lifecycle, dead-peer tracking with the
  ``DATA_UNAVAILABLE`` query outcome, adoption of circulating copies
  whose owner died, and exponential resend backoff with escalation.

Every observable protocol action is published as a typed event on the
deployment's :class:`~repro.events.bus.Bus` (docs/events.md); metrics,
tracing and invariant checking are subscribers, not call sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.config import DataCyclotronConfig
from repro.core.loader import DataLoader
from repro.core.loi import LoitController, new_loi
from repro.core.messages import BAT_HEADER_SIZE, REQUEST_MESSAGE_SIZE, BATMessage, RequestMessage
from repro.core.structures import (
    OutstandingRequest,
    OwnedCatalog,
    PinTable,
    PinWait,
    RequestTable,
    RingIndex,
)
from repro.events import types as ev
from repro.events.bus import Bus, Topic
from repro.net.channel import Channel
from repro.sim.engine import Event, Simulator
from repro.sim.process import Future
from repro.sim.timeline import CoreTimeline

__all__ = ["NodeRuntime", "PinResult", "CachedBat", "DATA_UNAVAILABLE", "NODE_CRASHED"]

# Query-failure outcomes introduced by the fault-injection subsystem.
# DATA_UNAVAILABLE: the BAT's owner is dead and the BAT was not re-homed.
# NODE_CRASHED: the query was running on a node that crashed.
DATA_UNAVAILABLE = "DATA_UNAVAILABLE"
NODE_CRASHED = "NODE_CRASHED"

RESEND_BACKOFF_CAP = 8.0  # resend backoff ceiling, x the loss timeout


@dataclass
class PinResult:
    """Resolution value of a pin() future."""

    ok: bool
    bat_id: int
    payload: Any = None
    version: int = 0
    error: Optional[str] = None


@dataclass
class CachedBat:
    """A BAT held in local DBMS memory while one or more queries pin it.

    The DC runtime hands a passing BAT over "as a pointer to a memory
    mapped region.  This memory region is freed by the unpin() call"
    (section 4.2.2) -- modelled as a refcount that eviction waits on.
    """

    bat_id: int
    size: int
    payload: Any = None
    refcount: int = 0
    version: int = 0


class NodeRuntime:
    """DBMS layer + DC layer + network layer of a single ring node."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        config: DataCyclotronConfig,
        bus: Bus,
        out_data: Channel,
        out_request: Channel,
        index: Optional[RingIndex] = None,
    ):
        self.node_id = node_id
        self.sim = sim
        self.config = config
        self.bus = bus
        self.out_data = out_data          # clockwise, to the successor
        self.out_request = out_request    # anti-clockwise, to the predecessor

        # the three catalog structures of Figure 2; S1 and S2 keep the
        # ring's view of them (which node owns, wants, has a load pending)
        self.ring_index = index if index is not None else RingIndex(node_id + 1)
        self.s1 = OwnedCatalog(self.ring_index, node_id)
        self.s2 = RequestTable(self.ring_index, node_id)
        self.s3 = PinTable()

        self.loader = DataLoader(self)
        self.loit = LoitController(
            levels=config.loit_levels,
            initial_level=config.loit_initial_level,
            high_watermark=config.loit_high_watermark,
            low_watermark=config.loit_low_watermark,
            static=config.loit_static,
        )
        self.loit_history: List[Tuple[float, float]] = [(0.0, self.loit.threshold)]

        # local DBMS memory holding pinned BATs
        self.cache: Dict[int, CachedBat] = {}
        self.pinned_bytes = 0
        self._local_fetches: Dict[int, List[Future]] = {}

        # CPU model (only the TPC-H experiment constrains cores); the
        # plain counter tracks demand even in unconstrained mode
        self.cores = CoreTimeline(config.cores_per_node)
        self.cpu_seconds = 0.0
        # section 2 / Figure 1: non-RDMA stacks burn CPU per transfer
        self.network_cpu_factor = config.network_cpu_factor()
        self.network_cpu_seconds = 0.0

        # loss recovery
        self.loss_timeout = 1.0  # overwritten by the ring facade
        self._resend_timers: Dict[int, Event] = {}

        # rotation fast-forwarding (repro.core.fastforward), injected by
        # the facade when config.fast_forward is on
        self._ff = None
        # who listens to this node's forwards (``_forwarded``)
        self._bat_forwarded = bus.topic(ev.BatForwarded)
        self._request_forwarded = bus.topic(ev.RequestForwarded)

        # fault tolerance (docs/faults.md)
        self.crashed = False
        # bumped on every crash and restart; in-flight disk fetches from
        # an earlier epoch are discarded when they complete
        self.epoch = 0
        self.dead_peers: Set[int] = set()
        # BATs owned by a dead node and not re-homed: requests fail fast
        self.unavailable_bats: Set[int] = set()

        self.queries_finished = 0
        self.queries_failed = 0

    # ==================================================================
    # the DBMS-layer API (section 4.1): request / pin / unpin
    # ==================================================================
    def request(self, query_id: int, bat_ids: List[int]) -> None:
        """The request() call the DC optimizer injects for every bind.

        Owned BATs need no ring traffic -- "if the BAT is owned by the
        local DC data loader, it is retrieved from disk or local memory
        and put into the DBMS space" at pin time.  For remote BATs the
        call updates S2 and sends one request message anti-clockwise per
        BAT not already in flight (section 4.2.1).
        """
        if self.crashed:
            return  # the DBMS instance is gone; pin() reports the failure
        now = self.sim.now
        ff = self._ff
        for bat_id in bat_ids:
            if self.s1.owns(bat_id):
                continue
            if bat_id in self.unavailable_bats:
                continue  # fail fast at pin time, no ring traffic
            if ff is not None:
                # a new S2 entry makes this node a stop for in-flight
                # fast-forwarded traffic: land it before registering
                ff.flush_bat(bat_id, self.node_id)
            entry = self.s2.register(bat_id, query_id, now)
            if not entry.sent:
                self._send_request(entry)

    def pin(self, query_id: int, bat_id: int) -> Future:
        """Blocking data access: resolves when the BAT is in local memory.

        Checks the local cache first (another query may hold the BAT
        pinned); owned BATs are fetched from the local disk; everything
        else blocks in S3 until the BAT flows in from the predecessor.
        """
        fut = Future(self.sim)
        now = self.sim.now

        if self.crashed:
            fut.resolve(PinResult(False, bat_id, error=NODE_CRASHED))
            return fut

        cached = self.cache.get(bat_id)
        if cached is not None:
            cached.refcount += 1
            if self.bus.active:
                self.bus.publish(ev.BatPinned(now, bat_id, self.node_id))
            self._note_query_pinned(bat_id, query_id)
            fut.resolve(
                PinResult(True, bat_id, cached.payload, cached.version)
            )
            return fut

        if self.s1.owns(bat_id):
            self._local_fetch(bat_id, fut)
            return fut

        if bat_id in self.unavailable_bats:
            # the owner is dead and the BAT was not re-homed: fail fast
            if self.bus.active:
                self.bus.publish(ev.RequestUnavailable(now, bat_id, self.node_id))
            fut.resolve(PinResult(False, bat_id, error=DATA_UNAVAILABLE))
            return fut

        # Remote BAT: make sure a request is outstanding (a pin without a
        # prior request() is legal, just slower) and block in S3.
        if self._ff is not None:
            self._ff.flush_bat(bat_id, self.node_id)
        entry = self.s2.register(bat_id, query_id, now)
        if not entry.sent:
            self._send_request(entry)
        self.s3.add(bat_id, PinWait(query_id=query_id, future=fut, since=now))
        return fut

    def unpin(self, query_id: int, bat_id: int) -> None:
        """Release a pinned BAT; frees the memory region at refcount zero."""
        cached = self.cache.get(bat_id)
        if cached is None:
            return
        cached.refcount -= 1
        if cached.refcount <= 0:
            del self.cache[bat_id]
            self.pinned_bytes -= cached.size

    def release_query(self, query_id: int) -> None:
        """Last-unpin bookkeeping: drop the query from S2 and S3.

        Publishes nothing, so callers that are not queries (the
        federation's fetch service) tear down through it too.
        """
        self.s3.drop_query(query_id, self.s2.bats_of(query_id))
        for bat_id in self.s2.drop_query(query_id):
            self._cancel_resend(bat_id)

    def finish_query(self, query_id: int, failed: bool = False, error: str = "") -> None:
        """:meth:`release_query` plus the query-lifecycle event."""
        self.release_query(query_id)
        self.ring_index.completed += 1
        if failed:
            self.queries_failed += 1
            if self.bus.active:
                self.bus.publish(
                    ev.QueryFailed(self.sim.now, query_id, error, self.node_id)
                )
        else:
            self.queries_finished += 1
            if self.bus.active:
                self.bus.publish(ev.QueryFinished(self.sim.now, query_id, self.node_id))

    def exec_op(self, duration: float) -> Future:
        """Execute one relational operator for ``duration`` CPU seconds.

        With ``cpu_constrained`` (the TPC-H experiment, section 5.4) the
        operator occupies one of the node's cores on the earliest-free
        timeline; otherwise it simply takes ``duration`` of wall time.
        """
        fut = Future(self.sim)
        if duration <= 0:
            fut.resolve(None)
            return fut
        self.cpu_seconds += duration
        if self.config.cpu_constrained:
            _core, _start, end = self.cores.schedule(self.sim.now, duration)
            self.sim.post_at(end, fut.resolve, None)
        else:
            self.sim.post(duration, fut.resolve, None)
        return fut

    # ==================================================================
    # network-layer entry points
    # ==================================================================
    def on_request_message(self, msg: RequestMessage, _size: int) -> None:
        """Request Propagation (Figure 3)."""
        if self.crashed:
            return  # delivered into a dead node: the request is lost
        msg.hops += 1
        now = self.sim.now

        # Outcome 1: the request circled back to its origin -- the BAT
        # does not exist (anymore), or its owner is dead and nobody
        # re-homed it; associated queries raise an exception.
        if msg.origin == self.node_id:
            if self.bus.active:
                self.bus.publish(
                    ev.RequestReturnedToOrigin(now, msg.bat_id, self.node_id)
                )
            if msg.bat_id in self.unavailable_bats:
                if self.bus.active:
                    self.bus.publish(
                        ev.RequestUnavailable(now, msg.bat_id, self.node_id)
                    )
                self._fail_request(msg.bat_id, DATA_UNAVAILABLE)
            else:
                self._fail_request(msg.bat_id, "BAT does not exist")
            return

        # Outcomes 2-4: this node owns the BAT.
        if self.s1.owns(msg.bat_id):
            entry = self.s1.get(msg.bat_id)
            if entry.loaded:
                ff = self._ff
                if ff is not None:
                    # a flight running through this owner writes
                    # last_seen lazily: the passes it made come first
                    ff.settle_passes(msg.bat_id)
                # Lazy loss detection: if the BAT has not come around for
                # far longer than a rotation, it was dropped in transit.
                if now - entry.last_seen > self.loss_timeout:
                    entry.loaded = False
                    if ff is not None:
                        # the next pass must swallow the copy classically
                        ff.flush_bat(msg.bat_id, self.node_id)
                else:
                    return  # outcome 2: already in the hot set
            if entry.loading:
                return
            self.loader.try_load(msg.bat_id)  # outcomes 3 (pending) / 4 (load)
            return

        # Outcome 5: same request outstanding locally -> absorb it.
        local = self.s2.get(msg.bat_id) if self.config.request_absorption else None
        if local is not None:
            if not local.sent:
                # the passing request doubles as ours
                local.sent = True
                local.sent_at = now
                self._arm_resend(local)
            if self.bus.active:
                self.bus.publish(ev.RequestAbsorbed(now, msg.bat_id, self.node_id))
            return

        # Outcome 6: just forward it anti-clockwise.
        if self.bus.active:
            self._forwarded(self._request_forwarded, msg.bat_id)
        self._ship_request(msg)

    def on_bat_message(self, msg: BATMessage, _size: int) -> None:
        """Dispatch of section 4.3: owner -> Hot Set Management, else
        BAT Propagation.  Copies whose owner died take the orphan path
        (adoption by the re-homed owner, or retirement)."""
        if self.crashed:
            # delivered into a dead node's memory: the copy is lost; the
            # owner's lazy loss detection will reload it
            if self.bus.active:
                self.bus.publish(
                    ev.BatPurged(self.sim.now, msg.bat_id, msg.size, self.node_id)
                )
            return
        if msg.owner == self.node_id:
            self._hot_set_management(msg)
        elif msg.owner in self.dead_peers:
            self._handle_orphan(msg)
        else:
            self._bat_propagation(msg)

    def on_data_drop(self, msg: BATMessage, _size: int) -> None:
        """DropTail discarded a BAT from the full transmit queue."""
        if self.bus.active:
            self.bus.publish(
                ev.BatDropped(self.sim.now, msg.bat_id, msg.size, False, self.node_id)
            )

    def on_data_loss(self, msg: BATMessage, _size: int) -> None:
        """Loss injection ate a BAT this node tried to forward."""
        if self.bus.active:
            self.bus.publish(
                ev.BatDropped(self.sim.now, msg.bat_id, msg.size, True, self.node_id)
            )

    # ==================================================================
    # the core algorithms
    # ==================================================================
    def _bat_propagation(self, msg: BATMessage) -> None:
        """Figure 4: serve local pins, update the header, forward."""
        msg.hops += 1
        bat_id = msg.bat_id
        req = self.s2.get(bat_id)
        if req is not None:
            req.sent = True  # data arriving satisfies the in-flight request
            req.last_data_seen = self.sim.now
            if self.s3.has_pins(bat_id) and self._memory_admits(msg.size):
                msg.copies += 1
                if self.bus.active:
                    self.bus.publish(ev.BatTouched(self.sim.now, bat_id, self.node_id))
                self._serve_pins(msg, req)
            if req.all_pinned():
                self.s2.unregister(bat_id)
                self._cancel_resend(bat_id)
        self.forward_bat(msg)

    def _hot_set_management(self, msg: BATMessage) -> None:
        """Figure 5: the owner recomputes the LOI and keeps or unloads."""
        entry = self.s1.maybe(msg.bat_id)
        if entry is None or entry.deleted or not entry.loaded:
            # Owned BAT came back after deletion or after being declared
            # lost; swallow it rather than circulate a ghost.
            if self.bus.active:
                self.bus.publish(
                    ev.BatUnloaded(self.sim.now, msg.bat_id, msg.size, self.node_id)
                )
            return
        if msg.incarnation != entry.incarnation:
            # a presumed-lost copy survived a reload: retire the stale
            # incarnation so exactly one copy stays in flight
            if self.bus.active:
                self.bus.publish(
                    ev.BatUnloaded(self.sim.now, msg.bat_id, msg.size, self.node_id)
                )
            return
        if msg.version != entry.version:
            # A stale version returned after an update (section 6.4): the
            # owner retires it and circulates the current version instead.
            if self.bus.active:
                self.bus.publish(
                    ev.BatUnloaded(self.sim.now, msg.bat_id, msg.size, self.node_id)
                )
            entry.loaded = False
            self.loader.try_load(msg.bat_id)
            return
        msg.cycles, updated, hot = self.hot_set_step(
            msg.loi, msg.copies, msg.hops, msg.cycles
        )
        if self.bus.active:
            self.bus.publish(
                ev.BatCycled(self.sim.now, msg.bat_id, msg.cycles, self.node_id)
            )
        msg.copies = 0
        msg.hops = 0
        if not hot:
            self.loader.unload(entry)
            return
        msg.loi = updated
        self.note_bat_forwarded(entry)
        self.forward_bat(msg)

    def hot_set_step(
        self, loi: float, copies: int, hops: int, cycles: int
    ) -> Tuple[int, float, bool]:
        """The pure part of Figure 5 for a BAT back at this owner with
        header ``(loi, copies, hops, cycles)``: its new cycle count, its
        new LOI, and whether that keeps it hot.  The landing above and
        the fast path's closed-form owner pass
        (:mod:`repro.core.fastforward`) both take the step here."""
        cycles += 1
        updated = new_loi(loi, copies, hops, cycles)
        return cycles, updated, self.loit.is_hot(updated)

    def _handle_orphan(self, msg: BATMessage) -> None:
        """A circulating copy whose owner died (docs/faults.md).

        The re-homed owner adopts the copy as a fresh incarnation and
        keeps it in the ring; every other node serves its blocked pins
        one last time and pulls the copy out of circulation so orphans
        cannot cycle forever.
        """
        msg.hops += 1
        now = self.sim.now
        entry = self.s1.maybe(msg.bat_id)
        if entry is not None and not entry.deleted:
            # this node adopted ownership of the BAT
            if entry.loaded or entry.loading:
                # a fresh incarnation already circulates: retire the stale copy
                if self.bus.active:
                    self.bus.publish(
                        ev.OrphanRetired(now, msg.bat_id, msg.size, self.node_id)
                    )
                return
            entry.incarnation += 1
            entry.loaded = True
            msg.owner = self.node_id
            msg.incarnation = entry.incarnation
            msg.version = entry.version
            msg.copies = 0
            msg.hops = 0
            if self.bus.active:
                self.bus.publish(ev.BatAdopted(now, msg.bat_id, self.node_id))
            self.note_bat_forwarded(entry)
            self.forward_bat(msg)
            return
        # not the adopter: degraded last-chance service, then retirement
        req = self.s2.get(msg.bat_id)
        if (
            req is not None
            and self.s3.has_pins(msg.bat_id)
            and self._memory_admits(msg.size)
        ):
            msg.copies += 1
            if self.bus.active:
                self.bus.publish(ev.BatTouched(now, msg.bat_id, self.node_id))
            self._serve_pins(msg, req, degraded=True)
            if req.all_pinned():
                self.s2.unregister(msg.bat_id)
                self._cancel_resend(msg.bat_id)
        if self.bus.active:
            self.bus.publish(ev.OrphanRetired(now, msg.bat_id, msg.size, self.node_id))

    def forward_bat(self, msg: BATMessage) -> None:
        """Enqueue a BAT for the successor; accounts loss-injected drops.

        Under a non-RDMA ``transfer_mode`` the send also charges the
        Figure 1 host CPU overhead (data copying, context switches,
        stack processing), stealing core time from query execution --
        the cost the paper's RDMA design avoids.
        """
        wire = msg.size + BAT_HEADER_SIZE  # msg.wire_size
        if self.network_cpu_factor > 1e-12:
            overhead = (wire / self.config.bandwidth) * self.network_cpu_factor
            self.network_cpu_seconds += overhead
            if self.config.cpu_constrained:
                self.cores.schedule(self.sim.now, overhead)
        # Drops are accounted by the channel callbacks: loss injection
        # via on_data_loss, DropTail via on_data_drop.  Inferring the
        # drop kind from the boolean here double-counted DropTail drops
        # as loss drops whenever both mechanisms were active.
        ff = self._ff
        if (
            ff is not None and ff.bat_scan_ok and ff.send_bat(self, msg, wire)
        ) or self.out_data.send(msg, wire):
            # (a flight's first hop is a pristine idle channel, so the
            # classic send would have succeeded)
            if self.bus.active:
                self._forwarded(self._bat_forwarded, msg.bat_id)

    def _forwarded(self, topic: Topic, bat_id: int) -> None:
        """Publish this node's forward of ``bat_id``, or only add 1 to
        its counters where every subscriber of the type only counts."""
        counters = topic.counters
        if counters is None:
            self.bus.publish(topic.event_type(self.sim.now, bat_id, self.node_id))
        else:
            for counter in counters:
                counter.add(1)

    def note_bat_forwarded(self, entry) -> None:
        entry.last_seen = self.sim.now

    # ==================================================================
    # pin service
    # ==================================================================
    def _memory_admits(self, size: int) -> bool:
        """Section 4.2.2: without local memory space "the BAT will
        continue its journey and the queries waiting for it remain
        blocked for one more cycle"."""
        budget = self.config.local_memory_bytes
        if budget is None:
            return True
        return self.pinned_bytes + size <= budget

    def _serve_pins(
        self, msg: BATMessage, req: OutstandingRequest, degraded: bool = False
    ) -> None:
        now = self.sim.now
        waits = self.s3.pop_all(msg.bat_id)
        if not waits:
            return
        degraded = degraded or req.resends > 0
        cached = CachedBat(
            bat_id=msg.bat_id,
            size=msg.size,
            payload=msg.payload,
            refcount=len(waits),
            version=msg.version,
        )
        self.cache[msg.bat_id] = cached
        self.pinned_bytes += msg.size
        if req.served_at is None:
            req.served_at = now
            if self.bus.active:
                self.bus.publish(
                    ev.RequestServed(
                        now, msg.bat_id, now - req.registered_at, self.node_id
                    )
                )
        if self.bus.active:
            self.bus.publish(
                ev.BatPinned(now, msg.bat_id, self.node_id, count=len(waits))
            )
        result = PinResult(True, msg.bat_id, msg.payload, msg.version)
        mark_served = self.s2.mark_served
        for wait in waits:
            mark_served(req, wait.query_id)
            if degraded:
                if self.bus.active:
                    self.bus.publish(ev.QueryDegraded(now, wait.query_id, self.node_id))
            wait.future.resolve(result)

    def _note_query_pinned(self, bat_id: int, query_id: int) -> None:
        """Cache-hit pins still count toward request completion."""
        req = self.s2.get(bat_id)
        if req is None:
            return
        self.s2.mark_pinned(bat_id, query_id)
        if req.all_pinned():
            self.s2.unregister(bat_id)
            self._cancel_resend(bat_id)

    def _local_fetch(self, bat_id: int, fut: Future) -> None:
        """Owner-local access: "retrieved from disk or local memory and
        put into the DBMS space" (section 4.2.1)."""
        waiters = self._local_fetches.get(bat_id)
        if waiters is not None:
            waiters.append(fut)
            return
        self._local_fetches[bat_id] = [fut]
        entry = self.s1.get(bat_id)
        self.sim.post(
            self.loader.disk_fetch_time(entry.size),
            self._local_fetch_done,
            bat_id,
            self.epoch,
        )

    def _local_fetch_done(self, bat_id: int, epoch: int) -> None:
        if epoch != self.epoch:
            return  # the node crashed (and possibly restarted) meanwhile
        waiters = self._local_fetches.pop(bat_id, [])
        entry = self.s1.maybe(bat_id)
        if entry is None or entry.deleted:
            result = PinResult(False, bat_id, error="BAT does not exist")
        else:
            cached = self.cache.get(bat_id)
            if cached is None:
                cached = CachedBat(
                    bat_id=bat_id,
                    size=entry.size,
                    payload=self.loader.payloads.get(bat_id),
                    refcount=0,
                    version=entry.version,
                )
                self.cache[bat_id] = cached
                self.pinned_bytes += entry.size
            cached.refcount += len(waiters)
            result = PinResult(True, bat_id, cached.payload, cached.version)
        for fut in waiters:
            fut.resolve(result)

    # ==================================================================
    # requests: sending, resend timeouts, failure
    # ==================================================================
    def _ship_request(self, msg: RequestMessage) -> None:
        """Put a request on the ring, fast-forwarding disinterested hops."""
        ff = self._ff
        if ff is not None and ff.send_request(self, msg):
            return
        self.out_request.send(msg, REQUEST_MESSAGE_SIZE)

    def _send_request(self, entry: OutstandingRequest) -> None:
        now = self.sim.now
        entry.sent = True
        entry.sent_at = now
        if self.bus.active:
            self.bus.publish(ev.RequestCreated(now, entry.bat_id, self.node_id))
        msg = RequestMessage(origin=self.node_id, bat_id=entry.bat_id)
        self._ship_request(msg)
        self._arm_resend(entry)

    def _resend_interval(self, resends: int) -> float:
        """Exponential backoff: each unanswered resend stretches the next
        timeout by ``resend_backoff_base``, capped at
        :data:`RESEND_BACKOFF_CAP` times the base timeout.  The default
        base of 1.0 reproduces the paper's fixed rotational-delay
        timeout."""
        factor = min(
            self.config.resend_backoff_base ** resends,
            RESEND_BACKOFF_CAP,
        )
        return self.loss_timeout * factor

    def _arm_resend(self, entry: OutstandingRequest) -> None:
        self._cancel_resend(entry.bat_id)
        self._resend_timers[entry.bat_id] = self.sim.schedule(
            self._resend_interval(entry.resends), self._resend_fired, entry.bat_id
        )

    def _cancel_resend(self, bat_id: int) -> None:
        timer = self._resend_timers.pop(bat_id, None)
        if timer is not None:
            timer.cancel()

    def _resend_fired(self, bat_id: int) -> None:
        """Section 4.2.3: "A resend() function is triggered by a timeout
        on the rotational delay for BATs requested into the storage ring.
        It indicates a package loss."

        A resend is only warranted when the BAT has genuinely stopped
        flowing: no sighting since the request (or its last pass) for a
        full timeout.  While the BAT keeps rotating, blocked pins will be
        served on its next pass and the timer merely re-arms.
        """
        self._resend_timers.pop(bat_id, None)
        entry = self.s2.get(bat_id)
        if entry is None:
            return
        now = self.sim.now
        last_sign_of_life = max(
            entry.sent_at,
            entry.last_data_seen if entry.last_data_seen is not None else 0.0,
        )
        stale_in = last_sign_of_life + self.loss_timeout - now
        if stale_in > 1e-12:
            # The BAT flowed past recently; check again when it turns stale.
            self._resend_timers[bat_id] = self.sim.schedule(
                stale_in, self._resend_fired, bat_id
            )
            return
        if (
            self.config.max_resends is not None
            and entry.resends >= self.config.max_resends
        ):
            # escalation: the BAT is gone for good as far as this node can
            # tell -- stop retrying and fail the blocked queries
            if self.bus.active:
                self.bus.publish(
                    ev.ResendAbandoned(now, bat_id, self.node_id, entry.resends)
                )
                self.bus.publish(ev.RequestUnavailable(now, bat_id, self.node_id))
            self._fail_request(bat_id, DATA_UNAVAILABLE)
            return
        entry.resends += 1
        if self.bus.active:
            self.bus.publish(ev.RequestResent(now, bat_id, self.node_id))
        entry.sent_at = now
        msg = RequestMessage(origin=self.node_id, bat_id=bat_id)
        self._ship_request(msg)
        self._arm_resend(entry)

    def _fail_request(self, bat_id: int, reason: str) -> None:
        self.s2.unregister(bat_id)
        self._cancel_resend(bat_id)
        result = PinResult(False, bat_id, error=reason)
        for wait in self.s3.pop_all(bat_id):
            wait.future.resolve(result)

    # ==================================================================
    # fault tolerance: crash / restart lifecycle (docs/faults.md)
    # ==================================================================
    def crash(self) -> None:
        """Kill the node: volatile state is lost, blocked queries fail.

        The owned-BAT catalog (S1) survives -- it models the local disk --
        but its in-memory flags are stale until :meth:`restart` resets
        them.  Channel purging and peer notification are the ring
        facade's job (:meth:`~repro.core.ring.DataCyclotron.crash_node`).
        """
        if self.crashed:
            return
        self.crashed = True
        self.epoch += 1
        result_cache: Dict[int, PinResult] = {}
        for bat_id in self.s3.bat_ids():
            result = result_cache.setdefault(
                bat_id, PinResult(False, bat_id, error=NODE_CRASHED)
            )
            for wait in self.s3.pop_all(bat_id):
                wait.future.resolve(result)
        for bat_id, waiters in list(self._local_fetches.items()):
            result = PinResult(False, bat_id, error=NODE_CRASHED)
            for fut in waiters:
                fut.resolve(result)
        self._local_fetches.clear()
        self.s2.clear()
        for bat_id in list(self._resend_timers):
            self._cancel_resend(bat_id)
        self.cache.clear()
        self.pinned_bytes = 0
        self.loader.reserved_bytes = 0

    def restart(self) -> None:
        """Bring a crashed node back with an empty hot set.

        Owned BATs are still on the local disk, but none of them are in
        the ring: they reload on demand (request propagation outcome 4)
        or via the periodic ``loadAll`` tick.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.epoch += 1
        for entry in self.s1:
            entry.loaded = False
            entry.loading = False
            self.s1.note_unpending(entry)

    def on_peer_down(
        self, peer: int, unavailable_bats: List[int], rehomed_bats: List[int]
    ) -> None:
        """Failure notification: ``peer`` is dead; its BATs were either
        re-homed (``rehomed_bats``) or declared ``unavailable_bats``.

        Unavailable BATs fail fast with DATA_UNAVAILABLE -- pending
        requests (and the pins blocked on them) immediately, future ones
        at pin() time -- until the owner rejoins.  This notification is
        also what resolves a pin issued *inside* the failure window
        (between the physical death and the ring repair): the blocked S3
        wait is failed here rather than hanging until resend escalation.

        For re-homed BATs with a request still outstanding, the request
        is re-issued at once: the original may have died in the dead
        node's purged queues, and waiting out the rotational resend
        timeout would dominate the recovery latency.
        """
        self.dead_peers.add(peer)
        now = self.sim.now
        for bat_id in unavailable_bats:
            if self.s1.owns(bat_id):
                continue
            self.unavailable_bats.add(bat_id)
            if self.s2.has(bat_id):
                if self.bus.active:
                    self.bus.publish(ev.RequestUnavailable(now, bat_id, self.node_id))
                self._fail_request(bat_id, DATA_UNAVAILABLE)
        for bat_id in rehomed_bats:
            entry = self.s2.get(bat_id)
            if entry is None or not entry.sent:
                continue
            entry.resends += 1
            if self.bus.active:
                self.bus.publish(ev.RequestResent(now, bat_id, self.node_id))
            entry.sent_at = now
            msg = RequestMessage(origin=self.node_id, bat_id=bat_id)
            self.out_request.send(msg, REQUEST_MESSAGE_SIZE)
            self._arm_resend(entry)

    def on_peer_up(self, peer: int, owned_bats: List[int]) -> None:
        """Recovery notification: ``peer`` rejoined with ``owned_bats``."""
        self.dead_peers.discard(peer)
        for bat_id in owned_bats:
            self.unavailable_bats.discard(bat_id)

    def adopt_ownership(
        self,
        bat_id: int,
        size: int,
        payload: Any = None,
        incarnation: int = 0,
        version: int = 0,
    ) -> None:
        """Re-home a dead peer's BAT to this node (shared-storage model).

        Continues the dead owner's incarnation/version counters so stale
        circulating copies are still recognised.  A pending local request
        for the BAT fails over to a local disk fetch.
        """
        if self.s1.owns(bat_id):
            return
        self.s1.remove(bat_id)  # clear a deleted stub, if any
        entry = self.s1.add(bat_id, size)
        entry.incarnation = incarnation
        entry.version = version
        if payload is not None:
            self.loader.payloads[bat_id] = payload
        self.unavailable_bats.discard(bat_id)
        if self.s2.has(bat_id):
            self.s2.unregister(bat_id)
            self._cancel_resend(bat_id)
            for wait in self.s3.pop_all(bat_id):
                if self.bus.active:
                    self.bus.publish(
                        ev.QueryDegraded(self.sim.now, wait.query_id, self.node_id)
                    )
                self._local_fetch(bat_id, wait.future)

    # ==================================================================
    # periodic ticks (scheduled by the ring facade)
    # ==================================================================
    def tick_load_all(self) -> None:
        self.loader.load_all()

    def tick_loit(self) -> None:
        load = self.out_data.queued_bytes / self.config.bat_queue_capacity
        before = self.loit.threshold
        after = self.loit.observe(load)
        if after != before:
            if self.bus.active:
                self.bus.publish(ev.LoitChanged(self.sim.now, self.node_id, after))
            self.loit_history.append((self.sim.now, after))

    # ==================================================================
    # introspection
    # ==================================================================
    @property
    def buffer_load(self) -> float:
        return self.out_data.queued_bytes / self.config.bat_queue_capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Node {self.node_id}: owns={len(self.s1)} s2={len(self.s2)} "
            f"s3={len(self.s3)} loit={self.loit.threshold}>"
        )
