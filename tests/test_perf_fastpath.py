"""Perf-contract tests for the engine fast lane, the zero-observer bus
and the rotation fast path.

Four promises the hot path makes (docs/performance.md):

* cancel-heavy timer churn cannot grow the heap without bound -- lazy
  compaction keeps dead entries below the live count,
* cancelling-and-re-arming timers is observationally identical to the
  no-cancel epoch-guard pattern,
* a zero-observer run never constructs a single event object: the
  ``bus.active`` / ``bus.wants`` probes keep the instrumentation
  entirely off the allocation profile,
* a coalesced flight costs the same whether it skips 6 nodes or 60:
  launch and landing make a fixed number of Python-level calls and of
  ``Link`` / ``LinkStats`` attribute writes, so a per-hop loop cannot
  come back unnoticed.
"""

import dataclasses
import gc
import sys
import tracemalloc

from repro.core import MB, DataCyclotron, DataCyclotronConfig
from repro.core.messages import BATMessage, RequestMessage
from repro.core.query import QuerySpec
from repro.events import types as ev_types
from repro.events.bus import Bus
from repro.net.link import Link, LinkStats
from repro.sim.engine import Simulator

N_NODES = 8
SIGHTINGS = 2000
TIMEOUT = 5.0
STEP = 0.01


def test_resend_churn_keeps_the_heap_bounded():
    """The resend-timer pattern: every BAT sighting cancels the pending
    timeout and arms a fresh one.  Churn is ~250 cancels per live timer;
    lazy compaction must keep the heap within a small constant of the
    live event count."""
    sim = Simulator()
    fired = []
    timers = {}
    peak_heap = [0]

    def fire(node: int) -> None:
        fired.append((repr(sim.now), node))

    def sight(k: int) -> None:
        node = k % N_NODES
        timer = timers.get(node)
        if timer is not None:
            timer.cancel()
        timers[node] = sim.schedule(TIMEOUT, fire, node)
        if k + 1 < SIGHTINGS:
            sim.post(STEP, sight, k + 1)
        if len(sim._heap) > peak_heap[0]:
            peak_heap[0] = len(sim._heap)

    sim.post(0.0, sight, 0)
    sim.run()

    # live events never exceed N_NODES timers + 1 sighting; the heap may
    # additionally hold the compaction floor of dead entries plus the
    # backlog accumulated before the >50% trigger fires
    assert peak_heap[0] <= 2 * (N_NODES + 1) + 16 + 8
    # only the final timer per node survives the churn
    assert len(fired) == N_NODES


def test_churny_timers_match_no_cancel_baseline():
    """Cancel-and-re-arm must be observationally identical to the
    allocation-free alternative: never cancel, discard stale firings by
    epoch at dispatch time."""

    def run_churny():
        sim = Simulator()
        fired = []
        timers = {}

        def fire(node):
            fired.append((repr(sim.now), node))

        def sight(k):
            node = k % N_NODES
            if timers.get(node) is not None:
                timers[node].cancel()
            timers[node] = sim.schedule(TIMEOUT, fire, node)
            if k + 1 < SIGHTINGS:
                sim.post(STEP, sight, k + 1)

        sim.post(0.0, sight, 0)
        sim.run()
        return fired

    def run_epoch_guard():
        sim = Simulator()
        fired = []
        epoch = dict.fromkeys(range(N_NODES), 0)

        def fire(node, e):
            if epoch[node] == e:
                fired.append((repr(sim.now), node))

        def sight(k):
            node = k % N_NODES
            epoch[node] += 1
            sim.post(TIMEOUT, fire, node, epoch[node])
            if k + 1 < SIGHTINGS:
                sim.post(STEP, sight, k + 1)

        sim.post(0.0, sight, 0)
        sim.run()
        return fired

    assert run_churny() == run_epoch_guard()


def test_zero_observer_dispatch_loop_allocates_nothing():
    """With nobody subscribed, the inlined dispatch loop must run
    allocation-free: the probe is one int compare, no event object, no
    handle, no garbage."""
    bus = Bus()
    sim = Simulator(bus=bus)

    def noop() -> None:
        pass

    for i in range(200):
        sim.post(0.001 * i, noop)
    sim.run(until=0.05)  # warm the loop, the seq counter and the caches

    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    sim.run()
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert after - before == 0


def test_zero_observer_run_constructs_no_event_objects(monkeypatch):
    """End to end: a detached deployment runs a whole query without a
    single event dataclass ever being instantiated."""
    counter = {"constructed": 0}
    for name in dir(ev_types):
        cls = getattr(ev_types, name)
        if isinstance(cls, type) and dataclasses.is_dataclass(cls):
            original = cls.__init__

            def patched(self, *args, _original=original, **kwargs):
                counter["constructed"] += 1
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", patched)

    dc = DataCyclotron(DataCyclotronConfig(n_nodes=4, seed=3))
    dc.detach_metrics()
    dc.add_bat(0, MB)
    dc.add_bat(1, MB)
    dc.submit(QuerySpec.simple(1, 0, 0.0, [0, 1], [0.01, 0.01]))
    assert dc.run_until_done(max_time=60.0)
    assert counter["constructed"] == 0


def flight_cost(monkeypatch, kind: str, hops: int) -> dict:
    """Launch one ``hops``-hop flight on an idle 64-node ring and land
    it; count Python-level calls and link-record writes on the way."""
    dc = DataCyclotron(DataCyclotronConfig(n_nodes=64, seed=1))
    dc.detach_metrics()
    ff = dc.ff
    step = 1 if kind == "bat" else -1
    stop = (step * (hops + 1)) % 64  # the owner / origin ends the run

    def launch(bat_id):
        if kind == "bat":
            msg = BATMessage(owner=stop, bat_id=bat_id, size=MB, loi=1.0)
            assert ff.send_bat(dc.nodes[0], msg, msg.wire_size(dc.config.bat_header_size))
        else:
            assert ff.send_request(dc.nodes[0], RequestMessage(stop, bat_id))
        (flight,) = ff._by_bat[bat_id]
        # the skipped nodes, then the hop into the stop
        assert len(flight.arrivals) == hops + 1 and flight.lands
        return flight

    def land(flight):
        dc.sim.run(until=flight.arrivals[-1])
        assert not ff._by_bat

    land(launch(1))  # warm: the lane's per-size step table, the bus caches
    dc.sim.run(until=dc.sim.now + 1.0)

    counts = {"calls": 0, "link_writes": 0, "stats_writes": 0}

    def count_writes(cls, key):
        def setattr_(self, name, value):
            counts[key] += 1
            object.__setattr__(self, name, value)
        monkeypatch.setattr(cls, "__setattr__", setattr_, raising=False)

    count_writes(Link, "link_writes")
    count_writes(LinkStats, "stats_writes")

    def on_call(_frame, event, _arg):
        if event == "call":
            counts["calls"] += 1

    # a collection in the window would count the Python-level gc
    # callbacks other libraries install (hypothesis does)
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(on_call)
    try:
        land(launch(2))
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    monkeypatch.undo()
    # ... and nothing was lost by not walking the arc: every link it
    # crossed, the one into the stop included, reads one more message
    # once somebody looks
    lane = ff.data_lane if kind == "bat" else ff.request_lane
    crossed = [link for link in lane.links if link.stats.messages_sent == 2]
    assert len(crossed) == hops + 1
    return counts


def test_a_flight_costs_the_same_at_6_hops_and_at_60(monkeypatch):
    for kind in ("bat", "request"):
        short = flight_cost(monkeypatch, kind, 6)
        long_ = flight_cost(monkeypatch, kind, 60)
        assert short == long_, kind
        # the flight lands in its stop: no live hop writes a link record
        assert short["stats_writes"] == short["link_writes"] == 0
        assert short["calls"] < 60
