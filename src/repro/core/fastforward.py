"""Rotation fast-forwarding: coalesce disinterested hops in closed form.

A BAT "travels clockwise" (section 4.2.2) past nodes that, most of the
time, neither own it nor hold a request for it -- each such hop costs
a delivery event (and a serialise-end event whenever traffic queues on
the link, ``repro.net.link``) plus a handler whose only effect is
``hops += 1`` and a re-send on the next channel.  A
request forwarded anti-clockwise past disinterested nodes is the same
story.  The :class:`FastForwarder` detects maximal runs of such hops at
send time and replaces them with **one** analytically computed arrival:

* the per-hop times are computed with the exact float operations the
  link would have used (``serialise_end = enqueue + size/bandwidth``,
  ``arrival = serialise_end + delay``), so the coalesced trajectory is
  bit-identical to the classic one,
* link statistics, ``BatForwarded`` / ``RequestForwarded`` bus events
  and the message's ``hops`` field are applied lazily when the flight
  lands, and the elided simulator events are *credited* so
  ``Simulator.processed`` -- and therefore ``DataCyclotron.summary()``
  -- match a classic run.  The forwards are published at their original
  per-hop timestamps; where every subscriber of the type only counts
  them (:meth:`repro.events.bus.Bus.counters`, the metrics bridge) the
  run is added in one step instead,
* the hop into the first interested node (the *stop*) joins the arc
  when its link is pristine at launch too: the flight's completion *is*
  the stop's delivery, at the classic instant, through the link's own
  ``on_receive``, so absorption and pin service at the stop run
  unmodified protocol code.  Only when that link is busy, lossy or
  reserved by another flight is the last hop a real channel send from
  the last skipped node, at its exact classic time.

Safety is conservative: a hop is only coalesced when the intervening
channel is pristine (no loss injection, nothing queued or serialising,
capacity admits the message) and the next node is provably
disinterested (not the owner/origin, no S2 entry).  Neither is asked
hop by hop: the ring keeps, per BAT, a bitmask of the positions that
would stop it (:class:`~repro.core.structures.RingIndex`) and, per
direction, bitmasks of the links that are busy, lossy or reserved
(:class:`~repro.net.link.Lane`), so the length of the run is a shift
and a lowest-set-bit, a reservation is one mask, and what a flight costs
does not depend on how far it flies.  Anything that could
invalidate a flight mid-air *flushes* it back into real link state
first: a competing send on a reserved channel, a new S2 registration
for the flight's BAT, a topology fault, a link degradation, or a
metrics snapshot.  Fault injection disables the fast path for the rest
of the run -- chaos scenarios execute the classic event stream.

The facade owns one forwarder per ring (``config.fast_forward``,
default on) and injects it into every :class:`NodeRuntime` as
``node._ff``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.events import types as ev
from repro.events.types import (
    LinkDelivered,
    LinkTransmit,
    RotationFastForwarded,
    SimEventFired,
)
from repro.net.link import Lane

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.messages import BATMessage, RequestMessage
    from repro.core.ring import DataCyclotron
    from repro.core.runtime import NodeRuntime

__all__ = ["FastForwarder", "Flight"]


class Flight:
    """One coalesced multi-hop traversal, pending its arrival event.

    An arc of the ring, not a list of hops.  Hop ``i`` crosses
    ``lane.travel[at + i]`` -- the link out of node ``(start + i*step) %
    n`` into node ``(start + (i+1)*step) % n``, the ``i``-th *skipped*
    node or, for the last hop of a flight that ``lands``, the stop -- is
    enqueued at ``arrivals[i-1]`` (``t0`` for hop 0) and
    arrives at ``arrivals[i]``.  Only the arrivals are stored;
    :meth:`hop` re-derives the rest with the float operations of the
    scan, in the scan's order, so the result is bit-identical to what
    the scan saw (link bandwidths only change under a fault, which lands
    every flight first).  ``held`` is the part of the arc still reserved
    for the flight, as a mask over the lane's doubled positions.

    ``lands`` says the arc's last hop delivers into the stop node rather
    than into a skipped one: the flight completes *in* the stop.
    Otherwise the last skipped node performs the real final send when
    the flight completes (or is flushed past it).
    """

    __slots__ = (
        "ff", "kind", "msg", "wire", "bat_id", "lane", "at", "start", "step",
        "t0", "arrivals", "lands", "held", "event",
    )

    def __init__(self, ff: "FastForwarder", kind: str, msg, wire: int,
                 lane: Lane, start: int, t0: float, arrivals: list,
                 lands: bool):
        self.ff = ff
        self.kind = kind  # "bat" | "request"
        self.msg = msg
        self.wire = wire
        self.bat_id = msg.bat_id
        self.lane = lane
        self.at = (start * lane.step) % ff.n
        self.start = start
        self.step = lane.step
        self.t0 = t0
        self.arrivals = arrivals
        self.lands = lands
        self.held = 0
        self.event = None

    def hop(self, i: int) -> tuple:
        """``(link, enqueue, tx, serialise_end, arrival)`` of hop ``i``."""
        link = self.lane.travel[self.at + i]
        enqueue = self.arrivals[i - 1] if i else self.t0
        tx = self.wire / link.bandwidth
        return link, enqueue, tx, enqueue + tx, self.arrivals[i]

    def hop_of_link(self, link) -> Optional[int]:
        """Index of the hop that crosses ``link``; None off the arc."""
        i = ((link.ring_pos - self.start) * self.step) % self.ff.n
        if i < len(self.arrivals) and self.lane.travel[self.at + i] is link:
            return i
        return None

    def hop_into(self, node_id: int) -> Optional[int]:
        """Index of the hop that delivers into ``node_id``; None off the arc."""
        i = ((node_id - self.start) * self.step - 1) % self.ff.n
        return i if i < len(self.arrivals) else None

    def flush(self) -> None:
        self.ff._flush_flight(self)

    def touch(self, link, size: int = 0) -> None:
        """A competing send of ``size`` bytes reached ``link``: flush,
        unless the flight provably does not interact with it
        (:meth:`FastForwarder._tolerates`)."""
        if not self.ff._tolerates(self, link, size):
            self.ff._flush_flight(self)


class FastForwarder:
    """Per-ring rotation fast-forwarding engine."""

    def __init__(self, dc: "DataCyclotron"):
        self.sim = dc.sim
        self.bus = dc.bus
        self.config = dc.config
        self.nodes: List["NodeRuntime"] = dc.nodes
        self.n = len(dc.nodes)
        # The fast path needs the closed form of a skipped forward to be
        # *exactly* "hops += 1, publish, send": a non-zero network CPU
        # overhead (non-RDMA transfer modes) adds per-hop core
        # accounting, so those configurations stay classic.
        self.active = (
            self.config.fast_forward
            and self.n >= 3
            and self.config.network_cpu_factor() == 0.0
        )
        # Skipping request hops would starve the resilience detector's
        # liveness monitors on the request channels; the facade clears
        # this when a detector is attached.  BAT flights are unaffected.
        self.request_enabled = True
        # Node ids are ring positions by construction -- verified here,
        # never assumed: every arc formula below depends on it.
        if any(node.node_id != i for i, node in enumerate(dc.nodes)):
            self.active = False  # pragma: no cover - facade always ids in order
        # Built whether or not the fast path is on: the facade's LOIT
        # tick finds the nodes with traffic in ``data_lane.busy``.
        self.data_lane = self._lane(dc.ring.data, 1)
        self.request_lane = self._lane(
            dc.ring.request, 1 if self.config.requests_clockwise else -1
        )
        # the stops of a BAT: who holds an S2 entry, who owns it, and the
        # doubled bit of a position (the message's own owner / origin)
        self._requested = dc.index.requested
        self._owned = dc.index.owned
        self._bits = dc.index.bits
        # Longest run of hops one flight may coalesce.  A flight longer
        # than the gap to the next circulating BAT is guaranteed to be
        # flushed by that BAT's next forward (it enters one of the
        # reserved links before the flight lands), so unbounded flights
        # churn in dense traffic.  The cap trades per-flight savings for
        # a far lower flush rate; n-1 means uncapped.
        self.scan_limit = self.n - 1
        # Shortest run worth coalescing: a flight of k hops elides 2k-1
        # events but pays launch + (on bad luck) flush; below this the
        # classic path is cheaper even when the flight lands cleanly.
        self.min_flight = 3
        self._by_bat: Dict[int, List[Flight]] = {}
        # Lazy accounting re-publishes per-hop events out of dispatch
        # order; any observer of the per-hop stream (tracer, profiler)
        # therefore pins the classic path.  Cached on the bus version.
        self._bus_version = -1
        self._lazy_ok = True
        self._wants_ff = False
        # the forwards' subscribers when all of them only count (else None)
        self._bat_counters: Optional[list] = None
        self._request_counters: Optional[list] = None
        # Flush-churn backoff: every flush adds debt, every clean landing
        # pays some back.  Above the threshold the scans refuse to launch
        # (the classic path is always correct), decaying slowly so probe
        # flights resume once traffic thins out.  In dense rings -- where
        # nearly every flight would be flushed by a competing send -- the
        # machinery would otherwise cost more than the elided events.
        self._debt = 0
        # BAT-scan gate checked by the caller *before* the method call.
        # A small ring circulating more BATs than it has nodes keeps its
        # data links serialisation-saturated: every hop queues, so there
        # is nothing to coalesce and even a refused scan is pure
        # overhead on the hottest path in the simulator.  set_population
        # suspends BAT scanning for that regime; the request ring
        # carries 64-byte messages and never saturates, so request
        # coalescing stays on.
        self.bat_scan_ok = self.active
        self._population = 0
        # observability: stats() only, no hashed summary reads these
        self.flights = 0
        self.hops_coalesced = 0
        self.flushes = 0
        self.truncations = 0
        self.refused_debt = 0
        self.refused_first_hop = 0
        self.refused_short = 0
        self.released = 0
        self.tolerated = 0
        self.landed_in_stop = 0
        self.forwards_counted = 0

    @staticmethod
    def _lane(channels: list, step: int) -> Lane:
        """The links of ``channels`` as the lane of messages stepping
        ``step`` around the ring.  Everything in it is held by reference
        for the life of the deployment: rewires only re-point channel
        receivers."""
        lane = Lane([ch.link for ch in channels], step)
        for ch in channels:
            if ch.loss_rate != 0.0:
                lane.lossy |= ch.link.lane_bit
        return lane

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def disable(self) -> None:
        """Flush everything and pin the classic path (fault injected)."""
        self.flush_all()
        self.active = False
        self.bat_scan_ok = False

    def set_population(self, count: int) -> None:
        """The ring's catalog now holds ``count`` BATs; regate BAT scanning.

        ``count`` is what the facade registered (``add_bat`` /
        ``remove_bat``): an upper bound on what circulates, not the hot
        set.  On a small ring whose catalog outnumbers its nodes the
        gate saves the calls, nothing more: such a ring coalesces no BAT
        hop because every data link is serialising (``Lane.busy`` is
        full), and a busy link is never pristine whatever the gate
        says.  Measured, so nobody "feeds it the hot set": with the gate
        forced open on ``ring_dense`` seed 1 (10 nodes, 1000 BATs)
        flights go 3 959 -> 4 031, ``refused_short`` 19 093 -> 57 642,
        ``refused_first_hop`` 19 011 -> 32 032, and the run phase is no
        faster (docs/performance.md section 9).  Large rings keep
        scanning: even dense interest leaves multi-hop disinterested
        runs worth coalescing.
        """
        self._population = count
        self.bat_scan_ok = self.active and not (
            self.n <= 16 and 2 * count >= 3 * self.n
        )

    def flush_all(self) -> None:
        while self._by_bat:
            _bat_id, flights = next(iter(self._by_bat.items()))
            flights[0].flush()

    def flush_bat(self, bat_id: int, node_id: Optional[int] = None) -> None:
        """Land in-flight traffic for ``bat_id`` ahead of a state change.

        With ``node_id`` (a new S2 registration at that node), only
        flights whose *remaining* analytic path passes the node are
        affected: the registration turns the node into a stop the scan
        did not see, so the flight must not sail past it.  Flights that
        already passed the node -- the classic run would have checked
        its (then-empty) S2 at the same per-hop instants -- and flights
        not routed through it keep flying.  Where possible the flight is
        truncated to land just short of the node instead of being torn
        down (:meth:`_truncate`); the final real send then enters the
        node at its exact classic time, so absorption and pin service
        run unmodified protocol code.  A registration at the flight's own
        stop changes nothing: the stop takes a real delivery either way.

        Without ``node_id`` (BAT added/removed, topology change) every
        flight for the BAT is flushed.
        """
        flights = self._by_bat.get(bat_id)
        if node_id is None:
            while flights:
                flights[0].flush()
                flights = self._by_bat.get(bat_id)
            return
        if not flights:
            return
        now = self.sim.now
        for flight in list(flights):
            i = flight.hop_into(node_id)
            if i is None or (flight.lands and i == len(flight.arrivals) - 1):
                continue  # off the arc, or its stop: that delivery is real
            _link, enqueue, _tx, s_end, arrival = flight.hop(i)
            # At an exact tie (arrival == now) the classic run's order
            # is decided by heap seq: the delivery was scheduled at the
            # hop's serialise-end, the registering event at
            # ``dispatch_origin``.  If the registration was scheduled
            # first it also dispatches first, so the delivery must
            # re-materialise as pending (and will see the new entry);
            # otherwise the node was already passed.
            if arrival < now or (arrival == now and self.sim.dispatch_origin > s_end):
                continue  # node already passed (its S2 check is behind us)
            if enqueue <= now:
                # mid-hop into the node: re-materialise the crossing
                # so the node takes a real delivery at the exact time
                self._flush_flight(flight)
            else:
                self._truncate(flight, i)

    def _refresh_bus_caches(self) -> None:
        bus = self.bus
        self._bus_version = bus.version
        self._lazy_ok = not (
            bus._wildcard
            or bus.wants(LinkTransmit)
            or bus.wants(LinkDelivered)
            or bus.wants(SimEventFired)
        )
        self._wants_ff = bus.wants(RotationFastForwarded)
        self._bat_counters = bus.counters(ev.BatForwarded)
        self._request_counters = bus.counters(ev.RequestForwarded)

    # ------------------------------------------------------------------
    # send-time interception
    # ------------------------------------------------------------------
    def send_bat(self, node: "NodeRuntime", msg: "BATMessage", wire: int) -> bool:
        """Try to coalesce ``node``'s forward; False -> caller sends classically."""
        if not self.active:
            return False
        if self._debt >= 16:
            self._debt -= 1
            self.refused_debt += 1
            return False
        if self.bus.version != self._bus_version:
            self._refresh_bus_caches()
        if not self._lazy_ok:
            return False
        # a BAT stops at its owner and wherever S2 asks for it
        stops = self._requested.get(msg.bat_id, 0) | self._bits[msg.owner]
        start = node.node_id
        # Most forwards happen *inside* an interested run -- the next
        # node stops the message -- so the dominant outcome is a
        # first-hop failure.  Check it before anything else.
        if stops >> (start + 1) & 1:
            self.refused_first_hop += 1
            return False
        return self._fly("bat", msg, wire, self.data_lane, start, stops)

    def send_request(self, node: "NodeRuntime", msg: "RequestMessage") -> bool:
        """Try to coalesce a request forward; False -> classic send."""
        if not (self.active and self.request_enabled):
            return False
        if self._debt >= 16:
            self._debt -= 1
            self.refused_debt += 1
            return False
        if self.bus.version != self._bus_version:
            self._refresh_bus_caches()
        if not self._lazy_ok:
            return False
        # a request stops back at its origin, where S2 absorbs it, and
        # at the BAT's owner
        bat_id = msg.bat_id
        stops = (
            self._requested.get(bat_id, 0)
            | self._owned.get(bat_id, 0)
            | self._bits[msg.origin]
        )
        lane = self.request_lane
        start = node.node_id
        if stops >> (start + 1 if lane.step > 0 else start + self.n - 1) & 1:
            self.refused_first_hop += 1
            return False
        return self._fly(
            "request", msg, self.config.request_message_size, lane, start, stops
        )

    def _fly(self, kind: str, msg, wire: int, lane: Lane, start: int,
             stops: int) -> bool:
        """Launch a flight out of ``start`` if the run of pristine links
        into disinterested nodes is long enough (the next node is known
        to be one).

        ``stops`` has a (doubled) bit per position that would keep the
        message; it always includes the owner / origin, so a nearest
        stop exists: the nearest set bit in travel direction is how many
        nodes the message could skip (``reach``), and hop ``reach`` is
        the one into the stop.  The links of those ``end`` hops are
        indexed by their senders; the nearest one that is busy or lossy
        cuts the arc short at ``k`` hops.  An arc that keeps the hop
        into the stop lands there.  A flight skips ``k - lands <= reach``
        nodes, so a stop nearer than ``min_flight`` refuses the scan
        before any mask is read.
        """
        limit = self.scan_limit
        # the link that cuts the run may only look busy: its serialise-end
        # fired unpushed since the bit was set (Link._settle notices that,
        # and the run is cut again)
        first = (start * lane.step) % self.n
        if lane.step > 0:
            ahead = stops >> (start + 1)
            reach = (ahead & -ahead).bit_length() - 1
            end = reach + 1
            if reach > limit:
                end = reach = limit
            if reach < self.min_flight:
                self.refused_short += 1
                return False
            cut = ((lane.busy | lane.lossy) >> start) | (1 << end)
            k = (cut & -cut).bit_length() - 1
            while k < end and lane.travel[first + k]._settle():
                cut = ((lane.busy | lane.lossy) >> start) | (1 << end)
                k = (cut & -cut).bit_length() - 1
        else:
            # hop i leaves position start - i: doubled bit top - i
            top = start + self.n
            reach = top - (stops & ((1 << top) - 1)).bit_length()
            end = reach + 1
            if reach > limit:
                end = reach = limit
            if reach < self.min_flight:
                self.refused_short += 1
                return False
            cut = ((lane.busy | lane.lossy) & ((2 << top) - 1)) | (1 << (top - end))
            k = top + 1 - cut.bit_length()
            while k < end and lane.travel[first + k]._settle():
                cut = ((lane.busy | lane.lossy) & ((2 << top) - 1)) | (1 << (top - end))
                k = top + 1 - cut.bit_length()
        if wire > lane.capacity:
            k = 0
        if lane.reserved:
            # Reservations are looked at hop by hop, up to and including
            # the hop a non-pristine link ended the run on -- but only
            # those there are: the walk visits reserved links, not hops.
            extent = k + (k < end)
            low = start if lane.step > 0 else start + self.n - extent + 1
            owed = lane.reserved >> low & ((1 << extent) - 1)
            if owed:
                k = self._unreserved_run(lane, start, k, extent, owed)
        lands = k > reach
        if k - lands < self.min_flight:
            # a short flight saves a couple of net events but pays for
            # the whole flight machinery; let the classic path handle it
            self.refused_short += 1
            return False
        # What is left per hop is the wire's own float recurrence, s_end
        # = t + wire/bandwidth; t = s_end + delay: a running sum over the
        # lane's per-link steps, which yields every serialise-end (odd
        # places) and every arrival (even places) from the launch instant.
        steps = lane.steps.get(wire) or lane.time(wire)
        at = 2 * first
        now = self.sim.now
        clock = list(accumulate(steps[at:at + 2 * k], initial=now))
        self._launch(
            Flight(self, kind, msg, wire, lane, start, now, clock[2::2], lands),
            clock[-2],
        )
        return True

    def _unreserved_run(self, lane: Lane, start: int, k: int, extent: int,
                        owed: int) -> int:
        """How many of the ``k`` hops out of ``start`` are free of other
        flights.  ``owed`` marks the reserved ones among the first
        ``extent`` hops; they are examined in hop order: a reservation
        whose holder already left the link lapses
        (:meth:`_release_if_passed`), the first one that does not ends
        the run."""
        travel = lane.travel
        holders = lane.holders
        forward = lane.step > 0
        at = (start * lane.step) % self.n
        while owed:
            if forward:
                bit = owed & -owed
                i = bit.bit_length() - 1
            else:
                i = extent - owed.bit_length()
                bit = 1 << (extent - 1 - i)
            link = travel[at + i]
            # Lane.holder, inlined: 8-node rings meet a reservation on
            # every fourth scan
            for holder in holders:
                if holder.held & link.lane_bit:
                    break
            if not self._release_if_passed(holder, link):
                return i if i < k else k
            owed ^= bit
        return k

    # ------------------------------------------------------------------
    # flight mechanics
    # ------------------------------------------------------------------
    def _launch(self, flight: Flight, s_end: float) -> None:
        """Reserve the arc and schedule the landing; ``s_end`` is the
        last hop's serialise-end, carried out of the scan."""
        arrivals = flight.arrivals
        lane = flight.lane
        flight.held = lane.arc(flight.start, 0, len(arrivals))
        lane.reserved |= flight.held
        lane.holders.append(flight)
        self._by_bat.setdefault(flight.bat_id, []).append(flight)
        # the completion stands in for the classic delivery over the last
        # hop (into the stop, or into the last skipped node), which the
        # wire would have scheduled at that hop's serialise-end: stamped
        # so, same-instant ties dispatch classically
        flight.event = self.sim.schedule_backdated_at(
            arrivals[-1], s_end, self._complete, flight
        )
        self.flights += 1
        self.hops_coalesced += len(arrivals) - flight.lands

    def _release_if_passed(self, flight: Flight, link) -> bool:
        """Release ``link``'s reservation if ``flight``, which holds it,
        has analytically left its *sender* side already (serialisation
        over that hop ended in the past -- the classic wire frees at
        serialise-end, while the message propagates for ``delay`` more).
        A competing transmission started now serialises after ours ended
        and delivers a full ``tx`` later, so FIFO order at the far node
        is preserved.  The hop's lazy accounting still lands with the
        flight: every counter it touches is an integer sum or a maximum,
        hence order-insensitive, so the landed link reads exactly as in
        a classic run.  At an exact serialise-end tie the wire is free
        only if the classic serialise-end event (scheduled at the hop's
        enqueue) would have dispatched before the running one."""
        i = ((link.ring_pos - flight.start) * flight.step) % self.n
        enqueue = flight.arrivals[i - 1] if i else flight.t0
        s_end = enqueue + flight.wire / link.bandwidth
        now = self.sim.now
        if s_end < now or (s_end == now and self.sim.dispatch_origin > enqueue):
            flight.held ^= link.lane_bit
            flight.lane.reserved ^= link.lane_bit
            self.released += 1
            return True
        return False

    def _tolerates(self, flight: Flight, link, size: int) -> bool:
        """True if a competing send of ``size`` bytes on ``link`` right
        now provably cannot perturb ``flight`` (no flush needed).

        Two safe cases.  The flight's message already left the sender
        side of this hop: the reservation lapses (see
        :meth:`_release_if_passed`).  Or the flight has not *reached*
        this link yet and everything ahead of it -- the serialisation in
        progress, the queue, and the competing message itself -- drains
        *strictly* before the flight's analytic enqueue: the classic run
        would find the sender free again at that enqueue, so the hop
        times stay bit-exact.  (An exact-tie drain is not tolerated: the
        flight's enqueue-side delivery was scheduled before the last
        competing serialise-end, so classically it dispatches first and
        would find the wire busy.)  The reservation is kept in that case
        -- a later send could still overlap the analytic crossing.

        The drain bound is what keeps unrelated traffic cheap: a
        gateway-induced hop (a 64-byte fetch request, say) crossing a
        link some other BAT's flight reserved queues behind nothing and
        drains in microseconds, so it rides through without tearing the
        flight down.  Only traffic that overlaps the crossing flushes.
        """
        i = flight.hop_of_link(link)
        if i is None:
            return False  # pragma: no cover - defensive
        enqueue = flight.arrivals[i - 1] if i else flight.t0
        now = self.sim.now
        if now >= enqueue:  # crossing it, or crossed
            return self._release_if_passed(flight, link)
        bandwidth = link.bandwidth
        # an idle wire -- or one whose serialise-end fired unpushed --
        # freed at or before now
        drain = link._busy_until
        if drain < now:
            drain = now
        if link._queue:
            drain += link._queued_bytes / bandwidth
        drain += size / bandwidth
        if drain < enqueue:
            self.tolerated += 1
            return True
        return False

    def _truncate(self, flight: Flight, stop: int) -> None:
        """Shorten ``flight`` so it lands *before* skipped node ``stop``.

        Only valid while the message has not yet entered hop ``stop``
        (``now < hop(stop)`` enqueue), which also implies ``stop >= 1``
        -- hop 0's enqueue is the launch instant.  The dropped hops
        release their reservations, and the completion event moves up to
        the arrival at the new last skipped node; its live final send
        then enqueues on hop ``stop``'s link at exactly that arrival,
        the time the classic message would have entered it.  A flight
        that was to land in its stop no longer does.
        """
        arrivals = flight.arrivals
        self._release(flight, stop)
        self.hops_coalesced -= len(arrivals) - flight.lands - stop
        self.truncations += 1
        flight.lands = False
        del arrivals[stop:]
        flight.event.cancel()
        flight.event = self.sim.schedule_backdated_at(
            arrivals[-1], flight.hop(stop - 1)[3], self._complete, flight
        )

    def _release(self, flight: Flight, since: int = 0) -> None:
        """Free what the flight still holds of hops ``since`` onwards:
        links it released earlier may be held by a younger flight."""
        freed = flight.held
        if since:
            freed &= flight.lane.arc(
                flight.start, since, len(flight.arrivals) - since
            )
        flight.held ^= freed
        flight.lane.reserved ^= freed

    def _forget(self, flight: Flight) -> None:
        flight.lane.holders.remove(flight)
        flights = self._by_bat[flight.bat_id]
        flights.remove(flight)
        if not flights:
            del self._by_bat[flight.bat_id]

    def _publish_forwards(self, flight: Flight, count: int) -> None:
        """The forwards of the first ``count`` skipped nodes: added in one
        step where every subscriber only counts them, else published at
        their original per-hop timestamps, in hop order."""
        if self.bus.version != self._bus_version:
            self._refresh_bus_caches()
        if flight.kind == "bat":
            counters, event = self._bat_counters, ev.BatForwarded
        else:
            counters, event = self._request_counters, ev.RequestForwarded
        if counters is not None:
            for counter in counters:
                counter.add(count)
            if counters:
                self.forwards_counted += count
            return
        publish = self.bus.publish
        bat_id = flight.bat_id
        n = self.n
        node = flight.start
        step = flight.step
        for when in flight.arrivals[:count]:
            node = (node + step) % n
            publish(event(when, bat_id, node))

    def _last_skipped(self, flight: Flight) -> int:
        skipped = len(flight.arrivals) - flight.lands
        return (flight.start + skipped * flight.step) % self.n

    def _hand_over(self, flight: Flight) -> None:
        """The message enters the stop node: delivered over the arc's
        last link if the flight lands there, else sent for real by the
        last skipped runtime."""
        if flight.lands:
            link = flight.lane.travel[flight.at + len(flight.arrivals) - 1]
            link.on_receive(flight.msg, flight.wire)
            return
        last = self.nodes[self._last_skipped(flight)]
        if flight.kind == "bat":
            last.forward_bat(flight.msg)
        else:
            if self.bus.active:
                last._forwarded(ev.RequestForwarded, flight.bat_id)
            last._ship_request(flight.msg)

    def _complete(self, flight: Flight) -> None:
        """The flight's arrival event: apply the closed form, hand over.

        Nothing here walks the arc: the reservation goes in one mask
        operation, and the link statistics of all ``k`` hops are two
        writes the lane folds in when somebody reads them."""
        # the event's args hold the flight: break the cycle, so a landed
        # flight is freed by its reference count, not by the collector
        flight.event = None
        if self._debt > 0:
            self._debt -= 1
        k = len(flight.arrivals)
        lane = flight.lane
        lane.reserved ^= flight.held  # _release, whole arc
        lane.account(flight.wire, flight.start, k)
        self._forget(flight)
        skipped = k - flight.lands
        flight.msg.hops += skipped
        # k - 1 forwards either way: a flight that lands in its stop has
        # k - 1 skipped nodes, one that does not forwards its last live
        if self.bus.active:
            self._publish_forwards(flight, k - 1)
        # k analytic hops cost 2k classic events; this callback was one
        self.sim.credit(2 * k - 1)
        if self._wants_ff:
            self.bus.publish(
                RotationFastForwarded(
                    self.sim.now, flight.kind, flight.bat_id,
                    self._last_skipped(flight), skipped,
                )
            )
        self.landed_in_stop += flight.lands
        self._hand_over(flight)

    def _flush_flight(self, flight: Flight) -> None:
        """Re-materialise a flight into real link state, bit-exactly.

        Hops whose arrival has passed get their full closed-form
        accounting; the hop the message is currently crossing is put
        back onto its link (busy flag, in-flight list, a real
        serialisation/delivery event at the re-derived instant, with
        its classic scheduling time stamped for same-instant ordering)
        so every subsequent interaction -- a competing send queueing
        behind it, a degradation, a crash purge -- behaves exactly as
        if the flight had never existed.

        A hop arriving at exactly ``now`` counts as passed only if the
        classic delivery would already have dispatched: it was scheduled
        at the hop's serialise-end, the currently running event at
        ``dispatch_origin``, and the heap dispatches the earlier-
        scheduled one first.
        """
        self._release(flight)
        self._forget(flight)
        flight.event.cancel()
        flight.event = None  # as in _complete: no flight <-> event cycle
        self.flushes += 1
        if self._debt < 64:
            self._debt += 4
        sim = self.sim
        now = sim.now
        wire = flight.wire
        msg = flight.msg
        arrivals = flight.arrivals
        k = len(arrivals)
        done = bisect_left(arrivals, now)
        if (
            done < k
            and arrivals[done] == now
            and sim.dispatch_origin > flight.hop(done)[3]
        ):
            done += 1
        if done:
            flight.lane.account(wire, flight.start, done)
        # the nodes it reached, the stop excepted: its own handler counts
        msg.hops += done - (done == k and flight.lands)
        if self.bus.active:
            # past every analytic hop only the hand-over remains: into the
            # stop, or a live final send that publishes its own forward
            self._publish_forwards(flight, done - 1 if done == k else done)
        if done == k:
            sim.credit(2 * k)
            self._hand_over(flight)
            return
        # the message is crossing hop ``done``: sender-side accounting
        # happened at enqueue time in the classic run, delivery has not
        link, enq, _tx, s_end, arrival = flight.hop(done)
        stats = link._stats
        stats.messages_sent += 1
        stats.bytes_sent += wire
        if stats.max_queue_bytes < wire:
            stats.max_queue_bytes = wire
        # serialise-end was classically scheduled at the hop's enqueue;
        # at an exact tie (now == s_end) it has dispatched only if the
        # running event was scheduled after the enqueue
        if now < s_end or (now == s_end and sim.dispatch_origin < enq):
            # back on the wire as if sent at the enqueue: the link posts
            # the delivery and reserves the serialise-end under that
            # scheduling time
            link._put_back(msg, wire, enq, s_end)
            sim.credit(2 * done)
        else:
            link._in_flight.append((msg, wire))
            sim.post_backdated(arrival, s_end, link._deliver, msg, wire)
            sim.credit(2 * done + 1)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "flights": self.flights,
            "hops_coalesced": self.hops_coalesced,
            "flushes": self.flushes,
            "truncations": self.truncations,
            "events_credited": self.sim.credited,
            # why a workload does (not) coalesce: a counter per way a scan
            # declines or a flight survives a competing send, and the gate
            "refused_debt": self.refused_debt,
            "refused_first_hop": self.refused_first_hop,
            "refused_short": self.refused_short,
            "released": self.released,
            "tolerated": self.tolerated,
            "bat_scan_ok": self.bat_scan_ok,
            "population": self._population,
            # the landing's two savings: flights whose completion was the
            # stop's own delivery (no live final send), and skipped-node
            # forwards added in one step to counting subscribers
            "landed_in_stop": self.landed_in_stop,
            "forwards_counted": self.forwards_counted,
            # what the O(1) structures hold: folds of lazy link statistics
            # into the links' records, and BATs the stop index lists
            "stat_folds": self.data_lane.folds + self.request_lane.folds,
            "index_entries": len(self._requested) + len(self._owned),
        }
