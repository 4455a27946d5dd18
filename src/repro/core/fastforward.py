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
  them (``Topic.counters``, the metrics bridge) the run is added in one
  step instead,
* the hop into the first interested node (the *stop*) joins the arc
  when its link is pristine at launch too: the flight's completion *is*
  the stop's delivery, at the classic instant, through the link's own
  ``on_receive``, so absorption and pin service at the stop run
  unmodified protocol code.  Only when that link is busy, lossy or
  reserved by another flight is the last hop a real channel send from
  the last skipped node, at its exact classic time.

* a BAT flight whose stop is its owner runs *through* the owner when
  the landing there would only take the Figure 5 step and forward the
  BAT again: nobody subscribes to ``BatCycled``, no S2 entry anywhere on
  the ring asks for the BAT, the owner's S1 entry would keep this very
  message, and the rest of the ring is pristine.  The scan takes each
  pass's step in closed form, in pass order, with the landing's own
  helper (:meth:`~repro.core.runtime.NodeRuntime.hot_set_step`), and
  the arc ends at the first pass that leaves the BAT cold (that pass
  lands and the classic code unloads it) or after ``PASS_BOUND``
  passes.  The passes' effects -- the header's ``cycles``, ``loi``,
  ``copies``, ``hops`` and the owner's ``last_seen`` -- are applied when
  the flight completes, is truncated or flushed, and before a request
  reaching the owner reads ``last_seen``.  Whatever the passes did not
  see lands the flight at its next pass: an S2 registration (a flight
  never passes an owner while its BAT is requested anywhere), a change
  to the owner's entry (version, deletion, loss), a LOIT level change
  at the owner, and other traffic meeting the arc's reservations (a
  flight past its owner holds the whole lane).  An observed
  ``BatCycled`` must be published at its dispatch position, so a ring
  with an observer keeps the landing.

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
metrics snapshot.  A flight that runs through its owner crosses each
link once per rotation, so a reservation lapses with a link's last
crossing, and a competing send is judged against the next one.  Fault
injection disables the fast path for the rest of the run -- chaos
scenarios execute the classic event stream.

The facade owns one forwarder per ring (``config.fast_forward``,
default on) and injects it into every :class:`NodeRuntime` as
``node._ff``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.messages import REQUEST_MESSAGE_SIZE
from repro.events import types as ev
from repro.events.bus import topic_on
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

__all__ = ["FastForwarder", "Flight", "PASS_BOUND"]

# Most owner passes one flight takes in closed form: the next visit to
# the owner lands, so a BAT that never cools (static LOIT 0) still
# meets the classic code once every ``PASS_BOUND + 1`` rotations.
PASS_BOUND = 16

# why a BAT flight landed in its owner rather than passing it:
# ``BatCycled`` is observed, the BAT went cold at that pass, the owner's
# LOIT changed while it flew, it took ``PASS_BOUND`` passes already, or
# other traffic on the lane met its reservations
_LANDING_REASONS = ("observed", "cooled", "loit", "bound", "contended")


class Flight:
    """One coalesced multi-hop traversal, pending its arrival event.

    An arc of the ring, not a list of hops.  Hop ``i`` crosses
    ``lane.travel[(at + i) % n]`` -- the link out of node ``(start +
    i*step) % n`` into node ``(start + (i+1)*step) % n``, the ``i``-th
    *skipped* node or, for the last hop of a flight that ``lands``, the
    stop -- is enqueued at ``arrivals[i-1]`` (``t0`` for hop 0) and
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

    A BAT flight may run through its owner (see the module docstring):
    ``passes`` holds the LOI after each owner pass taken in closed form,
    the first at hop ``first_pass`` and each later one a rotation (``n``
    hops) on; an arc that passes its owner is longer than the ring, so a
    link may be crossed more than once.  ``applied`` of the passes are
    in the message header and the owner's ``entry`` already, and the
    header's ``hops`` counts from hop ``base``.  ``why`` names the
    reason a flight that lands in its owner did not pass it.
    """

    __slots__ = (
        "ff", "kind", "msg", "wire", "bat_id", "lane", "at", "start", "step",
        "t0", "arrivals", "lands", "held", "event",
        "passes", "first_pass", "applied", "base", "entry", "why",
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
        # ``first_pass``, ``applied``, ``base`` and ``entry`` are only
        # read behind a non-empty ``passes`` (set together with it)
        self.passes: Sequence[float] = ()
        self.why: Optional[str] = None

    def hop(self, i: int) -> tuple:
        """``(link, enqueue, tx, serialise_end, arrival)`` of hop ``i``."""
        link = self.lane.travel[(self.at + i) % self.ff.n]
        enqueue = self.arrivals[i - 1] if i else self.t0
        tx = self.wire / link.bandwidth
        return link, enqueue, tx, enqueue + tx, self.arrivals[i]

    def hop_of_link(self, link) -> Optional[int]:
        """Index of the next hop over ``link`` whose serialise-end the
        engine has not passed; None off the arc or once every crossing
        has.  At an exact serialise-end tie the crossing has passed only
        if the classic serialise-end (scheduled at the hop's enqueue)
        would have dispatched before the running event."""
        n = self.ff.n
        i = ((link.ring_pos - self.start) * self.step) % n
        if self.lane.travel[self.at + i] is not link:
            return None
        sim = self.ff.sim
        now = sim.now
        arrivals = self.arrivals
        tx = self.wire / link.bandwidth
        while i < len(arrivals):
            enqueue = arrivals[i - 1] if i else self.t0
            s_end = enqueue + tx
            if s_end > now or (s_end == now and sim.dispatch_origin <= enqueue):
                return i
            i += n
        return None

    def hop_into(self, node_id: int) -> Optional[int]:
        """Index of the next hop into ``node_id`` whose delivery has not
        dispatched; None off the arc or once every one has.  At an exact
        arrival tie the delivery (scheduled at the hop's serialise-end)
        has dispatched only if the running event was scheduled later."""
        ff = self.ff
        n = ff.n
        i = ((node_id - self.start) * self.step - 1) % n
        arrivals = self.arrivals
        k = len(arrivals)
        if i >= k:
            return None
        sim = ff.sim
        now = sim.now
        while arrivals[i] < now or (
            arrivals[i] == now and sim.dispatch_origin > self.hop(i)[3]
        ):
            i += n
            if i >= k:
                return None
        return i

    def next_pass(self) -> Optional[int]:
        """The hop into the owner of the next closed-form pass that has
        not happened yet; None if none is left."""
        if not self.passes or self.applied == len(self.passes):
            return None
        i = self.hop_into(self.msg.owner)
        if i is not None and (i - self.first_pass) // self.ff.n < len(self.passes):
            return i
        return None

    def flush(self) -> None:
        self.ff._flush_flight(self)

    def touch(self, link, size: int = 0) -> None:
        """A competing send of ``size`` bytes reached ``link``: flush,
        unless the flight provably does not interact with it
        (:meth:`FastForwarder._tolerates`).  A flight running through its
        owner first gives up the passes ahead: it holds the whole lane, so
        other traffic would otherwise meet it rotation after rotation."""
        if self.passes and self.applied < len(self.passes):
            self.ff._land_at_pass(self, "contended")
            if not link.lane.reserved & link.lane_bit:
                return  # the crossing was past the new end
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
        # Shortest run worth coalescing: a flight of k hops elides 2k-1
        # events but pays launch + (on bad luck) flush; below this the
        # classic path is cheaper even when the flight lands cleanly.
        self.min_flight = 3
        self._by_bat: Dict[int, List[Flight]] = {}
        # per wire size: the data lane's step list, and a rotation of it
        # repeated often enough for any arc past an owner
        self._rotated: Dict[int, tuple] = {}
        # Lazy accounting re-publishes per-hop events out of dispatch
        # order; any observer of the per-hop stream (tracer, profiler)
        # therefore pins the classic path.  SimEventFired is asked of
        # the bus the simulator publishes to: a shared-clock
        # federation's, not the ring's.
        bus = self.bus
        self._link_tx = bus.topic(LinkTransmit)
        self._link_rx = bus.topic(LinkDelivered)
        self._fired = topic_on(dc.sim.bus, SimEventFired)
        self._fast_forwarded = bus.topic(RotationFastForwarded)
        # an owner's Figure 5 step publishes BatCycled at its dispatch
        # position: observed, the flights land in their owners
        self._cycled = bus.topic(ev.BatCycled)
        # the forwards' counters when every subscriber only counts
        self._bat_forwarded = bus.topic(ev.BatForwarded)
        self._request_forwarded = bus.topic(ev.RequestForwarded)
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
        self.refused_first_hop = 0
        self.refused_short = 0
        self.released = 0
        self.tolerated = 0
        self.landed_in_stop = 0
        self.forwards_counted = 0
        # Figure 5 steps taken in closed form, and per reason the flights
        # that landed in their owner instead of passing it
        self.owner_passes = 0
        self.owner_landings = dict.fromkeys(_LANDING_REASONS, 0)

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
        gate saves the calls: such a ring coalesces almost no BAT hop
        because every data link is serialising (``Lane.busy`` is full),
        and a busy link is never pristine whatever the gate says.
        Measured, so nobody "feeds it the hot set": with the gate forced
        open on ``ring_dense`` seed 1 (10 nodes, 1000 BATs) flights go
        3 937 -> 4 038, ``refused_short`` 19 550 -> 58 156,
        ``refused_first_hop`` 15 955 -> 28 966, and the run phase is
        slower: ``host_cpu_s`` 1.23x over five alternating pairs (the
        gate won all five; docs/performance.md section 2, the ablation
        table).  Large rings keep scanning: even dense interest leaves
        multi-hop disinterested runs worth coalescing.
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

        With ``node_id`` (a new S2 registration at that node, or a change
        to the BAT's S1 entry at its owner), only flights whose
        *remaining* analytic path passes the node are affected: the
        change turns the node into a stop the scan did not see, so the
        flight must not sail past it.  Flights that already passed the
        node -- the classic run would have checked its (then-empty) S2 at
        the same per-hop instants -- and flights not routed through it
        keep flying.  Where possible the flight is truncated to land just
        short of the node instead of being torn down (:meth:`_truncate`);
        the final real send then enters the node at its exact classic
        time, so absorption and pin service run unmodified protocol code.
        A registration at the flight's own stop changes nothing: the stop
        takes a real delivery either way.

        A flight with an owner pass still ahead lands in the owner at
        that pass if the pass comes first (or *is* the node): no flight
        passes its owner while an S2 entry anywhere on the ring asks for
        the BAT, nor past an owner whose entry changed after the launch.

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
            if flight.passes and flight.applied < len(flight.passes):
                j = flight.next_pass()
                if j is not None and (i is None or j <= i):
                    self._truncate(flight, j + 1, lands=True)
                    flight.why = None
                    continue
            if i is None or (flight.lands and i == len(flight.arrivals) - 1):
                continue  # passed, off the arc, or its stop: that delivery is real
            if flight.hop(i)[1] <= now:
                # mid-hop into the node: re-materialise the crossing
                # so the node takes a real delivery at the exact time
                self._flush_flight(flight)
            else:
                self._truncate(flight, i)

    def loit_changed(self, owner: int) -> None:
        """``owner``'s LOIT level moved: the passes its BATs' flights took
        in closed form stand (they read the old threshold when they
        happened), the next one lands."""
        for flights in list(self._by_bat.values()):
            for flight in list(flights):
                if flight.kind == "bat" and flight.msg.owner == owner:
                    self._land_at_pass(flight, "loit")

    def _land_at_pass(self, flight: Flight, why: Optional[str]) -> bool:
        """Truncate ``flight`` to land in its owner at its next pass, if
        it has one ahead, for reason ``why``; True if it did.  Other
        traffic meeting its reservations lands it so too ("contended"):
        it then holds the lane for one rotation at most, as a flight
        that does not pass its owner does."""
        j = flight.next_pass()
        if j is None:
            return False
        self._truncate(flight, j + 1, lands=True)
        flight.why = why
        return True

    def settle_passes(self, bat_id: int) -> None:
        """Apply the owner passes ``bat_id``'s flights have made by now
        (the header, the owner's ``last_seen``) ahead of a reader."""
        for flight in self._by_bat.get(bat_id, ()):
            if flight.passes and flight.applied < len(flight.passes):
                self._settle(flight, self._delivered(flight))

    def passing(self) -> List[Flight]:
        """The flights with a closed-form owner pass still ahead."""
        return [
            flight
            for flights in self._by_bat.values()
            for flight in flights
            if flight.next_pass() is not None
        ]

    # ------------------------------------------------------------------
    # send-time interception
    # ------------------------------------------------------------------
    def send_bat(self, node: "NodeRuntime", msg: "BATMessage", wire: int) -> bool:
        """Try to coalesce ``node``'s forward; False -> caller sends classically."""
        if not self.active:
            return False
        if self._link_tx.wanted or self._link_rx.wanted or self._fired.wanted:
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
        if self._link_tx.wanted or self._link_rx.wanted or self._fired.wanted:
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
            "request", msg, REQUEST_MESSAGE_SIZE, lane, start, stops
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
        # the link that cuts the run may only look busy: its serialise-end
        # fired unpushed since the bit was set (Link._settle notices that,
        # and the run is cut again)
        first = (start * lane.step) % self.n
        if lane.step > 0:
            ahead = stops >> (start + 1)
            reach = (ahead & -ahead).bit_length() - 1
            end = reach + 1
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
        passes = ()
        why = None
        if lands and kind == "bat" and stops == self._bits[msg.owner]:
            # the stop is the owner, and nobody on the ring asks for the
            # BAT: run on through the owner where the plan finds it may
            if self._cycled.wanted:
                why = "observed"
            else:
                k, passes, entry, why = self._plan_passes(msg, lane, k)
        # What is left per hop is the wire's own float recurrence, s_end
        # = t + wire/bandwidth; t = s_end + delay: a running sum over the
        # lane's per-link steps, which yields every serialise-end (odd
        # places) and every arrival (even places) from the launch instant.
        steps = lane.steps.get(wire) or lane.time(wire)
        if passes:
            # an arc past its owner is longer than the doubled list
            steps = self._rotations(wire, steps)
        at = 2 * first
        now = self.sim.now
        clock = list(accumulate(steps[at:at + 2 * k], initial=now))
        flight = Flight(self, kind, msg, wire, lane, start, now, clock[2::2], lands)
        flight.why = why
        if passes:
            flight.passes, flight.entry = passes, entry
            flight.first_pass, flight.applied, flight.base = reach, 0, 0
        self._launch(flight, clock[-2])
        return True

    def _rotations(self, wire: int, steps: List[float]) -> List[float]:
        """The data lane's ``steps`` as one rotation repeated for the
        longest arc past an owner, kept while the lane keeps ``steps``."""
        cached = self._rotated.get(wire)
        if cached is None or cached[0] is not steps:
            rotated = steps[:2 * self.n] * (PASS_BOUND + 2)
            cached = self._rotated[wire] = (steps, rotated)
        return cached[1]

    def _plan_passes(self, msg: "BATMessage", lane: Lane, k: int) -> tuple:
        """Run a BAT flight whose ``k`` hops land in its owner on through
        the owner: ``(k, passes, entry, why)`` of the longer arc, which
        lands in the owner too.

        The owner's Figure 5 step (:meth:`NodeRuntime.hot_set_step`) is
        taken here, pass by pass in pass order, from the header as
        launched -- the first pass sees the ``k - 1`` nodes skipped on
        the way, every later one a rotation past nobody.  Taken in
        closed form only where the landing would do nothing else: an
        owner whose S1 entry would keep this very message (loaded, same
        incarnation and version); the caller has seen that nobody
        observes ``BatCycled``.  The arc then ends at the first pass
        that leaves the BAT cold (that pass lands, and the classic code
        unloads it) or after ``PASS_BOUND`` passes.  The first ``k``
        hops already crossed the links up to the owner; the rest of the
        ring is looked at once, and if any of it is busy, lossy or
        reserved the landing stands: other traffic on the lane would
        meet the arc's reservations every rotation.
        """
        owner = self.nodes[msg.owner]
        entry = owner.s1.maybe(msg.bat_id)
        if (
            entry is None or entry.deleted or not entry.loaded or owner.crashed
            or entry.incarnation != msg.incarnation or entry.version != msg.version
        ):
            return k, (), None, None
        n = self.n
        step = owner.hot_set_step
        cycles, loi, copies, hops = msg.cycles, msg.loi, msg.copies, msg.hops + k - 1
        passes: List[float] = []
        why = "cooled"
        while True:
            cycles, loi, hot = step(loi, copies, hops, cycles)
            if not hot:
                break
            passes.append(loi)
            if len(passes) == PASS_BOUND:
                why = "bound"
                break
            copies, hops = 0, n - 1
        if not passes:
            return k, (), None, why
        # the links out of the owner onwards that the first k hops did not
        # cross must all be pristine
        at = msg.owner
        rest = n - k
        r = rest
        if rest:
            cut = ((lane.busy | lane.lossy) >> at) | (1 << rest)
            r = (cut & -cut).bit_length() - 1
            while r < rest and lane.travel[at + r]._settle():
                cut = ((lane.busy | lane.lossy) >> at) | (1 << rest)
                r = (cut & -cut).bit_length() - 1
            if lane.reserved:
                extent = r + (r < rest)
                owed = lane.reserved >> at & ((1 << extent) - 1)
                if owed:
                    r = self._unreserved_run(lane, at, r, extent, owed)
        if r < rest:
            return k, (), None, "contended"  # other traffic on the lane
        return k + len(passes) * n, passes, entry, why

    def _unreserved_run(self, lane: Lane, start: int, k: int, extent: int,
                        owed: int) -> int:
        """How many of the ``k`` hops out of ``start`` are free of other
        flights.  ``owed`` marks the reserved ones among the first
        ``extent`` hops; they are examined in hop order: a reservation
        whose holder already left the link lapses
        (:meth:`_release_if_passed`), the first one that does not ends
        the run -- unless its holder runs through its owner: that flight
        lands at its next pass (:meth:`_land_at_pass`), which frees the
        links only its later rotations would have crossed."""
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
                # a flight past its owner lands at its next pass, and the
                # links only its later rotations would cross are free
                if not (
                    holder.passes and holder.applied < len(holder.passes)
                    and self._land_at_pass(holder, "contended")
                ):
                    return i if i < k else k
                owed &= lane.reserved >> (
                    start if forward else start + self.n - extent + 1
                )
                if owed & bit:
                    if not self._release_if_passed(holder, link):
                        return i if i < k else k
                    owed ^= bit
                continue
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
        enqueue) would have dispatched before the running one.  An arc
        past its owner may cross the link again: the reservation lapses
        with the last crossing, which is the one looked at."""
        i = ((link.ring_pos - flight.start) * flight.step) % self.n
        if flight.passes:  # an arc longer than the ring: its last crossing
            i += (len(flight.arrivals) - 1 - i) // self.n * self.n
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
        An arc past its owner is judged by its next crossing of the link.
        """
        i = ((link.ring_pos - flight.start) * flight.step) % self.n
        if flight.passes:
            # an arc longer than the ring: the crossing still owed, if any
            i = flight.hop_of_link(link)
            if i is None:
                return self._release_if_passed(flight, link)
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

    def _truncate(self, flight: Flight, stop: int, lands: bool = False) -> None:
        """Shorten ``flight`` so it lands *before* skipped node ``stop``,
        or with ``lands`` over hop ``stop - 1`` *in* the node it enters
        (an owner whose pass must run classically).

        Without ``lands`` only valid while the message has not yet
        entered hop ``stop`` (``now < hop(stop)`` enqueue), which also
        implies ``stop >= 1`` -- hop 0's enqueue is the launch instant;
        with it, while hop ``stop - 1`` has not delivered.  The dropped
        hops release their reservations, and the completion event moves
        up to the arrival at the new last node; a live final send then
        enqueues on hop ``stop``'s link at exactly that arrival, the time
        the classic message would have entered it.  The owner passes the
        flight made so far are applied first, and those beyond the new
        end are dropped.
        """
        arrivals = flight.arrivals
        if flight.passes:
            self._settle(flight, self._delivered(flight))
            flight.passes = flight.passes[:flight.applied]
        self._release(flight, stop)
        self.hops_coalesced -= len(arrivals) - flight.lands - (stop - lands)
        self.truncations += 1
        flight.lands = lands
        del arrivals[stop:]
        flight.event.cancel()
        flight.event = self.sim.schedule_backdated_at(
            arrivals[-1], flight.hop(stop - 1)[3], self._complete, flight
        )

    def _release(self, flight: Flight, since: int = 0) -> None:
        """Free what the flight still holds of hops ``since`` onwards:
        links it released earlier may be held by a younger flight, and a
        link the hops before ``since`` cross again stays held."""
        freed = flight.held
        if since:
            lane = flight.lane
            freed &= lane.arc(
                flight.start, since, len(flight.arrivals) - since
            ) & ~lane.arc(flight.start, 0, since)
        flight.held ^= freed
        flight.lane.reserved ^= freed

    def _delivered(self, flight: Flight) -> int:
        """How many of the flight's hops have delivered by now.  A hop
        arriving at exactly ``now`` counts only if the classic delivery
        would already have dispatched: it was scheduled at the hop's
        serialise-end, the currently running event at
        ``dispatch_origin``, and the heap dispatches the earlier-
        scheduled one first."""
        arrivals = flight.arrivals
        now = self.sim.now
        done = bisect_left(arrivals, now)
        if (
            done < len(arrivals)
            and arrivals[done] == now
            and self.sim.dispatch_origin > flight.hop(done)[3]
        ):
            done += 1
        return done

    def _settle(self, flight: Flight, upto: int) -> None:
        """Apply the owner passes among the flight's first ``upto`` hops
        that are not applied yet: what the owner's Figure 5 step wrote
        into the header and its S1 entry when the message passed."""
        applied = flight.applied
        reached = min((upto - 1 - flight.first_pass) // self.n + 1, len(flight.passes))
        if reached <= applied:
            return
        last = flight.first_pass + (reached - 1) * self.n
        msg = flight.msg
        cycles = msg.cycles
        msg.cycles = cycles + reached - applied
        msg.loi = flight.passes[reached - 1]
        msg.copies = 0
        msg.hops = 0
        flight.base = last + 1
        flight.applied = reached
        flight.entry.last_seen = flight.arrivals[last]
        self.owner_passes += reached - applied
        if self._cycled.wanted:
            # subscribed since the launch: published at the passes' instants
            for j in range(applied, reached):
                cycles += 1
                self.bus.publish(ev.BatCycled(
                    flight.arrivals[flight.first_pass + j * self.n],
                    flight.bat_id, cycles, msg.owner,
                ))

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
        topic = self._bat_forwarded if flight.kind == "bat" else self._request_forwarded
        counters = topic.counters
        if counters is not None:
            for counter in counters:
                counter.add(count)
            if counters:
                self.forwards_counted += count
            return
        publish = self.bus.publish
        event = topic.event_type
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
            if flight.why is not None:
                self.owner_landings[flight.why] += 1
            link = flight.lane.travel[(flight.at + len(flight.arrivals) - 1) % self.n]
            link.on_receive(flight.msg, flight.wire)
            return
        last = self.nodes[self._last_skipped(flight)]
        if flight.kind == "bat":
            last.forward_bat(flight.msg)
        else:
            if self.bus.active:
                last._forwarded(last._request_forwarded, flight.bat_id)
            last._ship_request(flight.msg)

    def _complete(self, flight: Flight) -> None:
        """The flight's arrival event: apply the closed form, hand over.

        Nothing here walks the arc: the reservation goes in one mask
        operation, and the link statistics of all ``k`` hops are two
        writes the lane folds in when somebody reads them."""
        # the event's args hold the flight: break the cycle, so a landed
        # flight is freed by its reference count, not by the collector
        flight.event = None
        k = len(flight.arrivals)
        lane = flight.lane
        lane.reserved ^= flight.held  # _release, whole arc
        lane.account(flight.wire, flight.start, k)
        self._forget(flight)
        skipped = k - flight.lands
        if flight.passes:
            self._settle(flight, k)
            skipped -= flight.base
        flight.msg.hops += skipped
        # k - 1 forwards either way: a flight that lands in its stop has
        # k - 1 skipped nodes, one that does not forwards its last live
        if self.bus.active:
            self._publish_forwards(flight, k - 1)
        # k analytic hops cost 2k classic events; this callback was one
        self.sim.credit(2 * k - 1)
        if self._fast_forwarded.wanted:
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
        accounting, owner passes included; the hop the message is
        currently crossing is put
        back onto its link (busy flag, in-flight list, a real
        serialisation/delivery event at the re-derived instant, with
        its classic scheduling time stamped for same-instant ordering)
        so every subsequent interaction -- a competing send queueing
        behind it, a degradation, a crash purge -- behaves exactly as
        if the flight had never existed.  Which hops have passed is
        :meth:`_delivered`'s tie rule.
        """
        self._release(flight)
        self._forget(flight)
        flight.event.cancel()
        flight.event = None  # as in _complete: no flight <-> event cycle
        self.flushes += 1
        sim = self.sim
        now = sim.now
        wire = flight.wire
        msg = flight.msg
        k = len(flight.arrivals)
        done = self._delivered(flight)
        if done:
            flight.lane.account(wire, flight.start, done)
        # the nodes it reached, the stop excepted: its own handler counts
        reached = done - (done == k and flight.lands)
        if flight.passes:
            self._settle(flight, done)
            reached -= flight.base
        msg.hops += reached
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
            # Figure 5 steps taken in closed form as a flight ran through
            # its owner, and why flights landed in their owners instead
            "owner_passes": self.owner_passes,
            **{f"owner_landed_{why}": count
               for why, count in self.owner_landings.items()},
            # what the O(1) structures hold: folds of lazy link statistics
            # into the links' records, and BATs the stop index lists
            "stat_folds": self.data_lane.folds + self.request_lane.folds,
            "index_entries": len(self._requested) + len(self._owned),
        }
