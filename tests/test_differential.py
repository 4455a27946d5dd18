"""Fast-forward on against off: the per-hop runtime is the reference.

The paper defines its protocols hop by hop (section 4.2, Figures 3-5)
and ``fast_forward=False`` runs them that way.  Every fast path of
:mod:`repro.core.fastforward` -- a flight over disinterested nodes, its
landing in the stop node, its closed-form run through the owner, the
flush and truncation that land it early -- must be invisible against
that reference.  Hypothesis draws small runs and executes each twice,
with the switch on and off:

* ring sizes 3-64, both request directions, heterogeneous links, the
  shortest flight the scan may launch;
* static and adaptive LOIT: one adaptive ring starts above level 0 and
  steps down, one swings between two levels at every tick, so the
  threshold moves while flights are in the air;
* request or data loss, and a loss timeout short enough that an owner
  reading a stale ``last_seen`` declares its BAT lost;
* the observer set: detached (no ``BatCycled`` subscriber, so a flight
  may run through its owner), the collector alone (``BatCycled``
  observed, skipped forwards counted in one step), and the collector
  beside a typed subscriber of the forwards;
* queries that register while flights fly, a BAT update, a BAT removal,
  a degraded-then-restored link or a crash and rejoin after flights have
  launched, and ``summary()`` mid-run.

Both sides must read the same, at every mid-run ``summary()`` and at
the end: ``sim.processed``, every link's statistics and ``busy_time``
(by ``repr``), every BAT's S1 state (``last_seen`` by ``repr``), the
summary itself; every delivery into a node that stops the message
(instant, node, header: ``cycles``, ``loi`` by ``repr``, ``copies``,
``hops``); the typed event multiset keyed by timestamp (a flight
publishes its skipped nodes' forwards when it completes, so publish
order is not compared); every query's finish time and outcome.

The on side never dispatches more events than the off side, and
dispatches fewer whenever a flight landed in its stop or ran through an
owner.  ``InvariantMonitor`` audits every fault, and every registration
and probe checks the stop index and that no flight runs through an
owner whose BAT someone asks for.  A last test shows that the fixed
examples take every path the harness exists for, so it cannot pass by
never flying.
"""

import random
from itertools import cycle
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MB, DataCyclotron, DataCyclotronConfig
from repro.core.fastforward import _LANDING_REASONS, FastForwarder
from repro.core.query import QuerySpec
from repro.core.runtime import NodeRuntime
from repro.events import types as ev
from repro.faults.invariants import (
    InvariantMonitor, check_owner_passes, check_stop_index,
)
from repro.xtn.updates import UpdateCoordinator
from test_events_golden import snapshot

# every type a subscriber may watch without pinning the classic path;
# RotationFastForwarded is the fast path's own record of a flight
WATCHED = [
    cls for name in ev.__all__
    if isinstance(cls := getattr(ev, name), type) and name not in {
        "SimEventFired", "LinkTransmit", "LinkDelivered",
        "RotationFastForwarded", "TimeGrantIssued", "PartitionSynced",
    }
]
FORWARDS = {ev.BatForwarded, ev.RequestForwarded}
# what the recorder may watch beside each observer set without changing
# the path the set exists for
RECORDED = {
    "detached": [t for t in WATCHED if t not in FORWARDS and t is not ev.BatCycled],
    "collector": [t for t in WATCHED if t not in FORWARDS],
    "forwards": WATCHED,
}

# a ladder whose two upper levels straddle the LOI of a BAT on its third
# and fourth rotation past nobody
SWING_LEVELS = (0.001, 0.05, 0.2)


def swing(loit) -> None:
    """Feed the controller a buffer load that alternates between its two
    watermarks, so the level steps up and down at every LOIT tick (and
    never reaches 0, where the facade stops ticking an idle node)."""
    observe = loit.observe
    loads = cycle((0.9, 0.1))
    loit.observe = lambda _load: observe(next(loads))


def header(msg) -> tuple:
    return (msg.cycles, repr(msg.loi), msg.copies, msg.hops)


def kept_hot(node, msg) -> bool:
    """Would this owner visit keep the BAT circulating?  Such a visit is
    coalesced where a flight runs through its owner."""
    entry = node.s1.maybe(msg.bat_id)
    return (
        entry is not None and not entry.deleted and entry.loaded
        and msg.incarnation == entry.incarnation
        and msg.version == entry.version
        and node.hot_set_step(msg.loi, msg.copies, msg.hops, msg.cycles)[2]
    )


def logged(deliveries: list, observed: bool):
    """Receivers that log every delivery real on both sides: into a node
    that stops the message (a requester, the request's origin, the
    owner -- but an owner visit that keeps the BAT hot only where
    ``BatCycled`` is observed, as a flight may run through it
    elsewhere), into a dead node, and of an orphaned copy (a fault pins
    the classic path for the rest of the run)."""
    on_bat, on_request = NodeRuntime.on_bat_message, NodeRuntime.on_request_message

    def on_bat_message(node, msg, size):
        bat_id = msg.bat_id
        if node.crashed or msg.owner in node.dead_peers or (
            node.s2.get(bat_id) is not None if msg.owner != node.node_id
            else observed or not kept_hot(node, msg)
        ):
            deliveries.append(
                ("bat", repr(node.sim.now), node.node_id, bat_id) + header(msg)
            )
        on_bat(node, msg, size)

    def on_request_message(node, msg, size):
        bat_id = msg.bat_id
        if (
            node.crashed or msg.origin == node.node_id or node.s1.owns(bat_id)
            or node.s2.get(bat_id) is not None
        ):
            deliveries.append(
                ("request", repr(node.sim.now), node.node_id, bat_id, msg.hops)
            )
        on_request(node, msg, size)

    return on_bat_message, on_request_message


class Run:
    """One deployment, with the fast path on or off, and what it observed."""

    def __init__(self, case: dict, fast_forward: bool):
        n = case["n"]
        log = self.log = {"deliveries": [], "finish": [], "probes": []}
        self.events = []
        observers = case["observers"]
        probe_config = DataCyclotronConfig(n_nodes=n)
        rotation = n * (MB / probe_config.bandwidth + probe_config.link_delay)
        kind, level = case["loit"]
        loss = case["loss"]
        config = DataCyclotronConfig(
            n_nodes=n, seed=case["seed"], fast_forward=fast_forward,
            requests_clockwise=case["clockwise"],
            loit_static=level if kind == "static" else None,
            loit_levels=SWING_LEVELS if kind == "swing" else (0.1, 0.6, 1.1),
            loit_initial_level=0 if kind == "static" else level,
            loit_adapt_interval=case["tick"],
            resend_timeout=(
                None if case["timeout"] is None else case["timeout"] * rotation
            ),
            data_loss_rate=0.05 if loss == "data" else 0.0,
            request_loss_rate=0.05 if loss == "request" else 0.0,
            rehome_policy="successor",
        )
        self.attached = observers != "detached"
        on_bat, on_request = logged(log["deliveries"], self.attached)
        # the receivers are bound when the ring is wired
        with mock.patch.object(NodeRuntime, "on_bat_message", on_bat), \
                mock.patch.object(NodeRuntime, "on_request_message", on_request):
            dc = DataCyclotron(config)
        self.dc = dc
        self.monitor = InvariantMonitor(dc)
        if not self.attached:
            dc.detach_metrics()
        dc.bus.subscribe_many(RECORDED[observers], self.events.append)

        rng = random.Random(case["seed"])
        if case["hetero"]:
            for ch in (*dc.ring.data, *dc.ring.request):
                ch.link.set_bandwidth(rng.uniform(0.5, 2.0) * ch.link.bandwidth)
                ch.link.delay = rng.uniform(0.0, 2.0) * ch.link.delay
        bats = case["bats"]
        for bat_id in range(bats):
            dc.add_bat(bat_id, case["sizes"][bat_id % len(case["sizes"])])
        for node in dc.nodes:
            self._watch(node)
            if kind == "swing":
                swing(node.loit)
        dc.ff.min_flight = case["min_flight"]
        dc.ff.set_population(0)  # small rings gate BAT scans off; force them on

        t = asked = 0.0
        last = bats - 1  # asked for in the first half only: it may be removed
        for q in range(case["queries"]):
            t += rng.expovariate(case["rate"])
            pick = rng.sample(range(bats), rng.randint(1, min(2, bats)))
            if last and 2 * q >= case["queries"]:
                pick = [b for b in pick if b != last] or [0]
            if last in pick:
                asked = t
            dc.submit(QuerySpec.simple(
                q, rng.randrange(n), t, pick, [0.002] * len(pick)
            ))
        horizon = t
        if case["update"]:
            UpdateCoordinator(dc).submit_update(
                0, rng.randrange(n), 0.001, arrival=rng.uniform(0.0, horizon)
            )
        if case["remove"] and last:
            dc.sim.post_at(asked + rng.uniform(0.0, horizon), self.remove, last)
        fault = case["fault"]
        if fault is not None:
            node = rng.randrange(n)
            at = case["fault_at"] * horizon
            if fault == "degrade":
                dc.sim.post_at(at, dc.degrade_link, node, "data", 0.5, 0.0, None, rotation)
            elif n > 3:
                dc.sim.post_at(at, dc.crash_node, node)
                dc.sim.post_at(at + 2 * rotation, dc.rejoin_node, node)
        for fraction in case["probes"]:
            dc.sim.post_at(fraction * horizon, self.probe)
        assert dc.run_until_done(max_time=600.0)
        assert self.monitor.violations == []
        self.stats = dc.ff.stats()

    def _watch(self, node) -> None:
        dc = self.dc
        finished = self.log["finish"]
        finish = node.finish_query
        request = node.request

        def finish_query(query_id, failed=False, error=""):
            finished.append((query_id, repr(node.sim.now), failed, error))
            finish(query_id, failed, error)

        def request_and_check(query_id, bat_ids):
            request(query_id, bat_ids)
            # the registration landed every flight that would pass an owner
            assert check_owner_passes(dc) == []
            assert check_stop_index(dc) == []

        node.finish_query = finish_query
        node.request = request_and_check

    def remove(self, bat_id: int) -> None:
        """``remove_bat`` once nothing asks for the BAT (its precondition:
        two requesters of a removed BAT absorb each other's requests)."""
        dc = self.dc
        if dc.index.requested.get(bat_id) or any(
            node.s3.has_pins(bat_id) or bat_id in node._local_fetches
            for node in dc.nodes
        ):
            dc.sim.post(0.05, self.remove, bat_id)
            return
        dc.remove_bat(bat_id)

    def probe(self) -> None:
        """``summary()`` mid-run, and what it leaves readable."""
        dc = self.dc
        assert check_owner_passes(dc) == []
        assert check_stop_index(dc) == []
        summary = repr(dc.summary())
        self.log["probes"].append((repr(dc.sim.now), summary) + self.state())

    def state(self) -> tuple:
        dc = self.dc
        links = tuple(
            (s.messages_sent, s.messages_delivered, s.messages_dropped,
             s.bytes_sent, s.bytes_delivered, s.bytes_dropped, s.max_queue_bytes,
             repr(ch.link.busy_time))
            for ch in (*dc.ring.data, *dc.ring.request)
            for s in (ch.link.stats,)
        )
        s1 = tuple(
            (node.node_id, entry.bat_id, entry.loaded, repr(entry.last_seen),
             entry.loads, entry.incarnation, entry.version, entry.deleted)
            for node in dc.nodes
            for entry in node.s1
        )
        return dc.sim.processed, links, s1

    def observed(self) -> dict:
        dc = self.dc
        out = {
            **self.log,
            "summary": repr(dc.summary()),
            "end": self.state(),
            "events": sorted((e.t, repr(e)) for e in self.events),
        }
        if self.attached:
            out["collector"] = snapshot(dc)
        return out


def compare(case: dict) -> dict:
    """Run ``case`` with the fast path on and off; return the on side's
    ``ff.stats()``."""
    on = Run(case, fast_forward=True)
    off = Run(case, fast_forward=False)
    assert on.observed() == off.observed()
    # every flight landed, and gave back every link it reserved
    ff = on.dc.ff
    assert not ff._by_bat and ff.data_lane.reserved == ff.request_lane.reserved == 0
    stats = on.stats
    assert off.stats["flights"] == 0
    if case["observers"] != "detached":
        # BatCycled is observed: a flight lands in its owner, never passes it
        assert stats["owner_passes"] == 0
    if case["observers"] == "forwards":
        # a typed subscriber sees every forward as its own event
        assert stats["forwards_counted"] == 0
    # the work counts: never more dispatches, fewer when a flight saved any
    on_dispatched, off_dispatched = on.dc.sim.dispatched, off.dc.sim.dispatched
    assert on_dispatched <= off_dispatched
    if stats["landed_in_stop"] or stats["owner_passes"]:
        assert on_dispatched < off_dispatched
    return stats


cases = st.fixed_dictionaries({
    "n": st.integers(3, 64),
    "seed": st.integers(0, 10_000),
    "clockwise": st.booleans(),
    "hetero": st.booleans(),
    "loit": st.sampled_from([
        ("static", 0.0), ("static", 0.05),
        ("adaptive", 0), ("adaptive", 1), ("adaptive", 2), ("swing", 1),
    ]),
    "tick": st.sampled_from([0.02, 0.3, 2.0]),
    # loss timeout in rotations (at 1.1 an owner that reads last_seen
    # before the passes are settled declares the BAT lost); None: derived
    "timeout": st.sampled_from([1.1, 3.0, None]),
    "loss": st.sampled_from([None, None, "request", "data"]),
    "observers": st.sampled_from(["detached", "collector", "forwards"]),
    "sizes": st.sampled_from([(MB,), (MB, 3 * MB)]),
    "bats": st.integers(1, 4),
    "queries": st.integers(1, 30),
    "rate": st.sampled_from([0.5, 3.0, 15.0]),
    "min_flight": st.integers(1, 4),
    "update": st.booleans(),
    "remove": st.booleans(),
    "fault": st.sampled_from([None, None, "degrade", "crash"]),
    "fault_at": st.floats(0.3, 1.0),
    "probes": st.lists(st.floats(0.0, 1.0), max_size=3),
})


def fixed(**changes) -> dict:
    """A 64-node ring of overlapping flights of two sizes, changed."""
    return {
        "n": 64, "seed": 5, "clockwise": False, "hetero": True,
        "loit": ("static", 0.0), "tick": 2.0, "timeout": None, "loss": None,
        "observers": "forwards", "sizes": (MB, 3 * MB), "bats": 4,
        "queries": 30, "rate": 3.0, "min_flight": 3, "update": False,
        "remove": False, "fault": None, "fault_at": 0.5, "probes": [],
        **changes,
    }


# rings on which, together, every path of the fast path is taken
FIXED = (
    # overlapping flights lapse, truncate and flush; both directions,
    # a typed subscriber of the forwards or the collector counting them
    fixed(),
    fixed(clockwise=True, observers="collector"),
    # flights pass their owners while queries register, an update and a
    # removal land them, and the loss timeout is short
    fixed(observers="detached", loit=("adaptive", 2), timeout=1.1,
          update=True, remove=True, probes=[0.3, 0.7]),
    fixed(n=20, seed=0, observers="detached", loit=("adaptive", 0),
          timeout=1.1, update=True, remove=True, probes=[0.3, 0.7],
          rate=15.0, queries=20, bats=2, sizes=(MB,)),
    # the owner's threshold swings at every tick while flights pass it
    fixed(n=9, observers="detached", loit=("swing", 1), tick=0.02,
          timeout=3.0, rate=15.0, queries=12, bats=2, sizes=(MB,)),
    # a request reaches an owner a flight has run through unsettled, and
    # the short loss timeout reads its last_seen
    fixed(n=28, seed=1, hetero=False, loit=("swing", 1), tick=2.0,
          observers="detached", timeout=1.1, bats=1, queries=28, rate=15.0,
          min_flight=2, fault="degrade", fault_at=0.81),
    # one BAT that stays hot past nobody until the pass bound
    fixed(n=3, seed=3988, hetero=False, timeout=1.1, observers="detached",
          sizes=(MB,), bats=1, queries=1, rate=0.5, min_flight=1),
    # a saturated 10-node ring: competing sends flush flight after flight
    fixed(n=10, observers="collector", rate=15.0),
    # faults after flights have launched
    fixed(n=24, observers="collector", fault="crash", fault_at=0.6, probes=[0.5]),
    fixed(n=24, observers="detached", fault="degrade", fault_at=0.6,
          loss="request"),
)


@settings(max_examples=30, deadline=None)
@given(cases)
def test_fast_forward_on_reads_as_off(case):
    compare(case)


def test_the_fixed_rings_take_every_fast_path():
    """Equal on both sides, and between them every way a flight ends:
    in its stop, truncated, flushed, its passed hops released, a
    competing send drained ahead of it, run through its owner, landed in
    its owner for each reason; forwards counted in one step; passes
    settled ahead of a request at the owner; and flights launched after
    five flushes in a row."""
    totals = dict.fromkeys(
        ["landed_in_stop", "truncations", "flushes", "released", "tolerated",
         "owner_passes", "forwards_counted"]
        + [f"owner_landed_{why}" for why in _LANDING_REASONS],
        0,
    )
    settled = []
    streak = [0, 0]  # flushes since the last landing; launches after five

    def settle_passes(ff, bat_id, settle=FastForwarder.settle_passes):
        before = ff.owner_passes
        settle(ff, bat_id)
        settled.append(ff.owner_passes - before)

    def flush(ff, flight, flush=FastForwarder._flush_flight):
        streak[0] += 1
        flush(ff, flight)

    def complete(ff, flight, complete=FastForwarder._complete):
        streak[0] = 0
        complete(ff, flight)

    def launch(ff, flight, s_end, launch=FastForwarder._launch):
        streak[1] += streak[0] >= 5
        launch(ff, flight, s_end)

    with mock.patch.object(FastForwarder, "settle_passes", settle_passes), \
            mock.patch.object(FastForwarder, "_flush_flight", flush), \
            mock.patch.object(FastForwarder, "_complete", complete), \
            mock.patch.object(FastForwarder, "_launch", launch):
        for case in FIXED:
            streak[0] = 0
            stats = compare(case)
            for name in totals:
                totals[name] += stats[name]
    assert all(totals.values()), totals
    # a request reached an owner a flight had run through unsettled
    assert sum(settled) > 0
    assert streak[1] > 0
