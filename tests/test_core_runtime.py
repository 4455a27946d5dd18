"""Protocol-level tests of the per-node DC runtime.

Each test drives one of the documented outcomes of the paper's three
algorithms: Request Propagation (Figure 3), BAT Propagation (Figure 4)
and Hot Set Management (Figure 5).
"""

import pytest

from repro.core.messages import BATMessage, RequestMessage

from helpers import MB, build_dc


# ----------------------------------------------------------------------
# Request Propagation (Figure 3)
# ----------------------------------------------------------------------
def test_outcome1_nonexistent_bat_fails_query():
    """A request circling back to its origin raises "BAT does not
    exist" for the associated queries."""
    dc = build_dc(n_nodes=3)
    node = dc.nodes[0]
    dc._start_ticks()
    # Bypass facade validation: request a BAT nobody owns.
    node.request(query_id=99, bat_ids=[777])
    fut = node.pin(99, 777)
    dc.sim.run(until=1.0)
    assert fut.done
    result = fut.value
    assert not result.ok
    assert "does not exist" in result.error
    assert dc.metrics.requests_returned_to_origin >= 1
    assert not node.s2.has(777)


def test_outcome2_request_for_loaded_bat_ignored():
    """The owner ignores requests for BATs already in the hot set.

    ``loit_static=0.0`` keeps the BAT hot forever so the second request
    observes a loaded BAT rather than a cooled-down one.
    """
    dc = build_dc(n_nodes=3, bats={5: MB}, owners={5: 1}, loit_static=0.0)
    owner = dc.nodes[1]
    dc._start_ticks()
    dc.nodes[0].request(1, [5])
    fut = dc.nodes[0].pin(1, 5)
    dc.sim.run(until=0.5)
    assert fut.done
    assert owner.s1.get(5).loads == 1
    # a second remote request while the BAT circulates must not reload
    dc.nodes[2].request(2, [5])
    fut2 = dc.nodes[2].pin(2, 5)
    dc.sim.run(until=1.0)
    assert fut2.done
    assert owner.s1.get(5).loads == 1


def test_outcome3_full_ring_tags_pending():
    """With no room in the BAT queue the load is postponed, not dropped."""
    # Queue fits one 1 MB BAT (plus header) but not two.
    dc = build_dc(
        n_nodes=2,
        bats={1: MB, 2: MB},
        owners={1: 0, 2: 0},
        bat_queue_capacity=int(1.5 * MB),
        load_all_interval=100.0,  # keep loadAll out of the picture
    )
    owner = dc.nodes[0]
    dc._start_ticks()
    owner.on_request_message(RequestMessage(origin=1, bat_id=1), 64)
    dc.sim.run(until=0.001)  # BAT 1 fetch completes, sits in the queue
    owner.on_request_message(RequestMessage(origin=1, bat_id=2), 64)
    assert owner.s1.get(2).pending
    assert dc.metrics.pending_postponed == 1


def test_outcome4_owner_loads_from_disk():
    dc = build_dc(n_nodes=3, bats={5: MB}, owners={5: 1}, loit_static=0.0)
    owner = dc.nodes[1]
    dc._start_ticks()
    owner.on_request_message(RequestMessage(origin=0, bat_id=5), 64)
    assert owner.s1.get(5).loading
    dc.sim.run(until=0.1)
    assert owner.s1.get(5).loaded
    assert dc.metrics.bats[5].loads == 1


def test_outcome5_request_absorbed():
    """A node with the same request outstanding absorbs a passing one."""
    dc = build_dc(n_nodes=4, bats={5: MB}, owners={5: 3})
    dc._start_ticks()
    middle = dc.nodes[1]
    middle.request(1, [5])  # middle now has its own outstanding request
    absorbed_before = dc.metrics.requests_absorbed
    # a request from node 2 travels anti-clockwise through node 1
    middle.on_request_message(RequestMessage(origin=2, bat_id=5), 64)
    assert dc.metrics.requests_absorbed == absorbed_before + 1


def test_outcome6_request_forwarded():
    dc = build_dc(n_nodes=4, bats={5: MB}, owners={5: 3})
    dc._start_ticks()
    middle = dc.nodes[1]
    fwd_before = dc.metrics.requests_forwarded
    middle.on_request_message(RequestMessage(origin=2, bat_id=5), 64)
    assert dc.metrics.requests_forwarded == fwd_before + 1


# ----------------------------------------------------------------------
# BAT Propagation (Figure 4)
# ----------------------------------------------------------------------
def test_bat_propagation_increments_hops_and_serves_pins():
    dc = build_dc(n_nodes=3, bats={5: MB}, owners={5: 1})
    node = dc.nodes[0]
    dc._start_ticks()
    node.request(1, [5])
    fut = node.pin(1, 5)
    msg = BATMessage(owner=1, bat_id=5, size=MB, loi=1.0, hops=1)
    node.on_bat_message(msg, MB)
    assert msg.hops == 2
    assert msg.copies == 1
    dc.sim.run(until=0.01)
    assert fut.done and fut.value.ok
    assert dc.metrics.bats[5].touches == 1
    # all queries pinned -> request unregistered
    assert not node.s2.has(5)


def test_bat_without_pins_not_copied():
    """copies only counts nodes that actually used the BAT."""
    dc = build_dc(n_nodes=3, bats={5: MB}, owners={5: 1})
    node = dc.nodes[0]
    dc._start_ticks()
    node.request(1, [5])  # request but no pin call yet
    msg = BATMessage(owner=1, bat_id=5, size=MB, loi=1.0)
    node.on_bat_message(msg, MB)
    assert msg.copies == 0
    assert node.s2.has(5)  # request stays: not all queries pinned


def test_request_stays_until_all_queries_pinned():
    """Section 5.3: "A request is only removed, if all its queries
    pinned it"."""
    dc = build_dc(n_nodes=3, bats={5: MB}, owners={5: 1})
    node = dc.nodes[0]
    dc._start_ticks()
    node.request(1, [5])
    node.request(2, [5])
    fut1 = node.pin(1, 5)
    msg = BATMessage(owner=1, bat_id=5, size=MB, loi=1.0)
    node.on_bat_message(msg, MB)
    dc.sim.run(until=0.01)
    assert fut1.done
    assert node.s2.has(5)  # query 2 has not pinned
    fut2 = node.pin(2, 5)  # cache hit while query 1 still holds it
    dc.sim.run(until=0.02)
    assert fut2.done
    assert not node.s2.has(5)


def test_bat_forwarded_after_service():
    dc = build_dc(n_nodes=3, bats={5: MB}, owners={5: 1})
    node = dc.nodes[0]
    dc._start_ticks()
    before = dc.metrics.bat_messages_forwarded
    node.on_bat_message(BATMessage(owner=1, bat_id=5, size=MB, loi=1.0), MB)
    assert dc.metrics.bat_messages_forwarded == before + 1


# ----------------------------------------------------------------------
# Hot Set Management (Figure 5)
# ----------------------------------------------------------------------
def make_loaded_owner(threshold):
    """An owner whose BAT 5 is (administratively) in the hot set.

    The loaded flag is set directly so the test can inject a returning
    BAT message with hand-picked header values, without the organically
    circulating copy interfering.
    """
    dc = build_dc(
        n_nodes=3,
        bats={5: MB},
        owners={5: 0},
        loit_static=threshold,
        load_all_interval=100.0,
    )
    owner = dc.nodes[0]
    dc._start_ticks()
    owner.s1.get(5).loaded = True
    return dc, owner


def test_owner_keeps_interesting_bat():
    dc, owner = make_loaded_owner(threshold=0.1)
    msg = BATMessage(owner=0, bat_id=5, size=MB, loi=1.0, copies=3, hops=3)
    owner.on_bat_message(msg, MB)
    assert msg.cycles == 1
    assert msg.loi == pytest.approx(1.0 / 1 + 1.0)  # loi/cycles + copies/hops
    assert msg.copies == 0 and msg.hops == 0
    assert owner.s1.get(5).loaded


def test_owner_unloads_cold_bat():
    dc, owner = make_loaded_owner(threshold=1.1)
    msg = BATMessage(owner=0, bat_id=5, size=MB, loi=1.0, copies=0, hops=3, cycles=9)
    owner.on_bat_message(msg, MB)
    # cycles -> 10, new loi = 1.0/10 = 0.1 < 1.1 -> unloaded
    assert not owner.s1.get(5).loaded
    assert dc.metrics.bats[5].unloads == 1


def test_cycle_metric_recorded():
    dc, owner = make_loaded_owner(threshold=0.1)
    msg = BATMessage(owner=0, bat_id=5, size=MB, loi=1.0, copies=3, hops=3, cycles=4)
    owner.on_bat_message(msg, MB)
    assert dc.metrics.bats[5].max_cycles == 5


def test_ghost_bat_swallowed():
    """A BAT returning after its owner marked it unloaded is absorbed."""
    dc, owner = make_loaded_owner(threshold=0.1)
    owner.s1.get(5).loaded = False
    before = dc.metrics.bat_messages_forwarded
    owner.on_bat_message(BATMessage(owner=0, bat_id=5, size=MB, loi=1.0), MB)
    assert dc.metrics.bat_messages_forwarded == before


# ----------------------------------------------------------------------
# memory pressure (section 4.2.2)
# ----------------------------------------------------------------------
def test_no_memory_keeps_query_blocked_one_more_cycle():
    dc = build_dc(
        n_nodes=3,
        bats={5: 2 * MB},
        owners={5: 1},
        local_memory_bytes=MB,  # too small for the 2 MB BAT
    )
    node = dc.nodes[0]
    dc._start_ticks()
    node.request(1, [5])
    fut = node.pin(1, 5)
    msg = BATMessage(owner=1, bat_id=5, size=2 * MB, loi=1.0)
    node.on_bat_message(msg, 2 * MB)
    assert not fut.done  # stayed blocked; BAT continued its journey
    assert msg.copies == 0


def test_memory_freed_by_unpin_admits_next_bat():
    dc = build_dc(
        n_nodes=3,
        bats={5: MB, 6: MB},
        owners={5: 1, 6: 1},
        local_memory_bytes=int(1.5 * MB),
    )
    node = dc.nodes[0]
    dc._start_ticks()
    node.request(1, [5])
    node.request(1, [6])
    fut5 = node.pin(1, 5)
    node.on_bat_message(BATMessage(owner=1, bat_id=5, size=MB, loi=1.0), MB)
    fut6 = node.pin(1, 6)
    node.on_bat_message(BATMessage(owner=1, bat_id=6, size=MB, loi=1.0), MB)
    dc.sim.run(until=0.01)
    assert fut5.done and not fut6.done  # no room for BAT 6
    node.unpin(1, 5)
    node.on_bat_message(BATMessage(owner=1, bat_id=6, size=MB, loi=1.0), MB)
    dc.sim.run(until=0.02)
    assert fut6.done


# ----------------------------------------------------------------------
# owner-local access (section 4.2.1)
# ----------------------------------------------------------------------
def test_owned_bat_pin_fetches_from_disk():
    dc = build_dc(n_nodes=3, bats={5: MB}, owners={5: 0})
    owner = dc.nodes[0]
    dc._start_ticks()
    fut = owner.pin(1, 5)
    assert not fut.done  # disk fetch takes time
    dc.sim.run(until=0.1)
    assert fut.done and fut.value.ok
    # local access never touched the ring
    assert dc.metrics.bats.get(5) is None or dc.metrics.bats[5].loads == 0


def test_concurrent_local_pins_share_one_fetch():
    dc = build_dc(n_nodes=3, bats={5: MB}, owners={5: 0})
    owner = dc.nodes[0]
    dc._start_ticks()
    futs = [owner.pin(q, 5) for q in range(3)]
    dc.sim.run(until=0.1)
    assert all(f.done and f.value.ok for f in futs)
    assert owner.cache[5].refcount == 3


def test_unpin_releases_memory():
    dc = build_dc(n_nodes=3, bats={5: MB}, owners={5: 0})
    owner = dc.nodes[0]
    dc._start_ticks()
    owner.pin(1, 5)
    dc.sim.run(until=0.1)
    assert owner.pinned_bytes == MB
    owner.unpin(1, 5)
    assert owner.pinned_bytes == 0
    assert 5 not in owner.cache


def test_unpin_unknown_bat_is_noop():
    dc = build_dc(n_nodes=2)
    dc.nodes[0].unpin(1, 999)


# ----------------------------------------------------------------------
# leaving S2/S3 at the last unpin
# ----------------------------------------------------------------------
def test_release_query_tears_down_silently_and_finish_query_adds_the_event():
    dc = build_dc(n_nodes=3, bats={5: MB, 6: MB}, owners={5: 1, 6: 1},
                  resend_timeout=5.0)
    node = dc.nodes[0]
    dc._start_ticks()
    dc.detach_metrics()  # the collector wants a QueryRegistered first
    seen = []
    dc.bus.subscribe_all(lambda event: seen.append(type(event).__name__))
    node.request(1, [5, 6])
    node.pin(1, 5)
    node.request(2, [6])
    assert set(node._resend_timers) == {5, 6}
    del seen[:]

    node.release_query(1)  # what a fetch service calls: no lifecycle event
    assert seen == []
    assert node.queries_finished == 0
    assert not node.s2.has(5) and len(node.s3) == 0
    assert set(node._resend_timers) == {6}  # query 2 still wants BAT 6
    assert node.s2.bats_of(1) == ()

    node.finish_query(2)
    assert seen == ["QueryFinished"]
    assert node.queries_finished == 1
    assert len(node.s2) == 0 and node._resend_timers == {}
