"""Crash/rejoin semantics: ring repair, re-homing, failure outcomes.

The fault model is docs/faults.md; the tests here exercise the facade
(``crash_node`` / ``rejoin_node`` / ``degrade_link``) on small rings and
check both the externally visible query outcomes and the internal ring
invariants.
"""

import pytest

from repro.core import QuerySpec
from repro.core.query import PinStep
from repro.core.runtime import DATA_UNAVAILABLE, NODE_CRASHED
from repro.faults.invariants import (
    check_invariants,
    check_request_index,
    check_terminal,
)

from helpers import MB, build_dc

pytestmark = pytest.mark.chaos_smoke


def query(query_id, node, bats, arrival=0.0, op_time=0.01):
    return QuerySpec(
        query_id=query_id,
        node=node,
        arrival=arrival,
        steps=[PinStep(bat_id=b, op_time=op_time) for b in bats],
    )


# ----------------------------------------------------------------------
# topology repair
# ----------------------------------------------------------------------
def test_live_successor_skips_dead_nodes():
    dc = build_dc(n_nodes=4)
    dc.crash_node(1)
    assert dc.ring.live_successor(0) == 2
    assert dc.ring.live_predecessor(2) == 0
    dc.crash_node(2)
    assert dc.ring.live_successor(0) == 3
    assert dc.ring.live_predecessor(3) == 0
    assert dc.live_node_ids == [0, 3]


def test_crash_validation():
    dc = build_dc(n_nodes=3)
    with pytest.raises(ValueError, match="out of range"):
        dc.crash_node(9)
    dc.crash_node(1)
    with pytest.raises(ValueError, match="already down"):
        dc.crash_node(1)
    dc.crash_node(2)
    with pytest.raises(ValueError, match="last live node"):
        dc.crash_node(0)
    with pytest.raises(ValueError, match="already up"):
        dc.rejoin_node(0)


def test_traffic_flows_around_the_corpse():
    """After a crash, a request from the victim's neighbour still reaches
    the owner and the BAT still reaches the requester."""
    dc = build_dc(n_nodes=4, bats={5: MB}, owners={5: 3})
    dc.crash_node(2)  # sits between requester 1 and owner 3
    dc._start_ticks()
    dc.nodes[1].request(1, [5])
    fut = dc.nodes[1].pin(1, 5)
    dc.sim.run(until=2.0)
    assert fut.done and fut.value.ok
    assert check_invariants(dc) == []


# ----------------------------------------------------------------------
# crash side effects
# ----------------------------------------------------------------------
def test_crash_purges_queued_bats_with_accounting():
    """A 1 MB/s link: at crash time BAT 1 is on the wire and BAT 2 is
    still queued.  The queued copy is purged with exact accounting; the
    in-flight copy delivers and is retired as an orphan."""
    dc = build_dc(n_nodes=3, bats={1: MB, 2: MB}, owners={1: 0, 2: 0},
                  loit_static=0.0, bandwidth=MB)
    dc._start_ticks()
    dc.nodes[1].request(1, [1, 2])
    fut1 = dc.nodes[1].pin(1, 1)
    fut2 = dc.nodes[1].pin(1, 2)
    dc.sim.run(until=0.01)  # loads done, both copies at node 0's channel
    assert dc.metrics.ring_bats.current == 2
    dc.crash_node(0)
    assert dc.metrics.crash_drops == 1
    assert dc.metrics.ring_bats.current == 1
    assert check_invariants(dc) == []
    # fail_fast fails every pending request for the dead owner's BATs --
    # even BAT 1's, whose copy happens to be on the wire
    assert fut1.done and fut1.value.error == DATA_UNAVAILABLE
    assert fut2.done and fut2.value.error == DATA_UNAVAILABLE
    # the in-flight copy still delivers and is retired, not recirculated
    dc.sim.run(until=3.0)
    assert dc.metrics.orphans_retired == 1
    assert dc.metrics.ring_bats.current == 0
    assert dc.metrics.ring_bytes.current == 0
    assert check_invariants(dc) == []


def test_pin_on_crashed_node_fails_fast():
    dc = build_dc(n_nodes=3, bats={5: MB}, owners={5: 1})
    dc._start_ticks()
    dc.crash_node(0)
    fut = dc.nodes[0].pin(1, 5)
    assert fut.done
    assert not fut.value.ok
    assert fut.value.error == NODE_CRASHED


def test_pending_request_fails_with_data_unavailable_on_owner_crash():
    """fail_fast policy: an in-flight request for a dead owner's BAT is
    failed immediately instead of circling or hanging."""
    dc = build_dc(n_nodes=4, bats={5: MB}, owners={5: 2},
                  disk_latency=0.5)  # slow disk: crash hits mid-load
    dc._start_ticks()
    dc.nodes[0].request(1, [5])
    fut = dc.nodes[0].pin(1, 5)
    dc.sim.run(until=0.1)
    assert not fut.done
    dc.crash_node(2)
    assert fut.done
    assert fut.value.error == DATA_UNAVAILABLE
    assert not dc.nodes[0].s2.has(5)
    assert dc.nodes[0]._resend_timers == {}
    assert check_invariants(dc) == []


def test_new_pin_for_dead_owners_bat_fails_fast():
    dc = build_dc(n_nodes=4, bats={5: MB}, owners={5: 2})
    dc._start_ticks()
    dc.crash_node(2)
    before = dc.metrics.requests_sent
    fut = dc.nodes[0].pin(1, 5)
    assert fut.done
    assert fut.value.error == DATA_UNAVAILABLE
    assert dc.metrics.requests_sent == before  # nothing went on the wire


def test_rejoin_restores_availability():
    dc = build_dc(n_nodes=3, bats={5: MB}, owners={5: 1})
    dc._start_ticks()
    dc.crash_node(1)
    dc.sim.run(until=0.2)
    dc.rejoin_node(1)
    assert dc.live_node_ids == [0, 1, 2]
    dc.nodes[0].request(1, [5])
    fut = dc.nodes[0].pin(1, 5)
    dc.sim.run(until=2.0)
    assert fut.done and fut.value.ok
    # disk state survived the crash; hot-set flags were reset
    assert dc.nodes[1].s1.get(5).loads >= 1
    assert dc.metrics.total_downtime(until=dc.now) == pytest.approx(0.2)
    assert check_invariants(dc) == []


def test_crash_rejoin_crash_cycle():
    dc = build_dc(n_nodes=3)
    dc._start_ticks()
    dc.crash_node(1)
    dc.sim.run(until=0.1)
    dc.rejoin_node(1)
    dc.sim.run(until=0.2)
    dc.crash_node(1)
    assert dc.live_node_ids == [0, 2]
    assert len(dc.metrics.downtime[1]) == 2
    assert check_invariants(dc) == []


# ----------------------------------------------------------------------
# re-homing (rehome_policy="successor")
# ----------------------------------------------------------------------
def test_successor_adopts_ownership():
    dc = build_dc(n_nodes=4, bats={5: MB, 6: MB}, owners={5: 2, 6: 2},
                  rehome_policy="successor")
    dc._start_ticks()
    dc.crash_node(2)
    assert dc.bat_owner(5) == 3 and dc.bat_owner(6) == 3
    assert dc.nodes[3].s1.maybe(5) is not None
    assert dc.nodes[2].s1.maybe(5) is None
    assert dc.metrics.bats_rehomed == 2
    # the re-homed BATs are servable: a fresh request completes
    dc.nodes[0].request(1, [5])
    fut = dc.nodes[0].pin(1, 5)
    dc.sim.run(until=2.0)
    assert fut.done and fut.value.ok
    assert check_invariants(dc) == []


def test_rehomed_pending_request_fails_over():
    """A requester's in-flight request survives the owner's crash: the
    adopter serves it (degraded), no DATA_UNAVAILABLE."""
    dc = build_dc(n_nodes=4, bats={5: MB}, owners={5: 2},
                  rehome_policy="successor", disk_latency=0.2)
    dc._start_ticks()
    dc.submit(query(1, 0, [5]))
    dc.sim.run(until=0.05)  # request reached owner, load in progress
    dc.crash_node(2)
    dc.sim.run(until=5.0)
    record = dc.metrics.queries[1]
    assert record.finished_at is not None and not record.failed
    assert record.degraded
    assert check_invariants(dc) == []


def test_rejoin_after_rehoming_does_not_reclaim_ownership():
    dc = build_dc(n_nodes=4, bats={5: MB}, owners={5: 2},
                  rehome_policy="successor")
    dc._start_ticks()
    dc.crash_node(2)
    dc.sim.run(until=0.1)
    dc.rejoin_node(2)
    assert dc.bat_owner(5) == 3
    assert 5 not in dc.nodes[2].unavailable_bats
    dc.nodes[2].request(1, [5])
    fut = dc.nodes[2].pin(1, 5)
    dc.sim.run(until=2.0)
    assert fut.done and fut.value.ok
    assert check_invariants(dc) == []


# ----------------------------------------------------------------------
# link degradation
# ----------------------------------------------------------------------
def test_degrade_link_and_auto_heal():
    dc = build_dc(n_nodes=3)
    ch = dc.ring.data_channel(0)
    base_bw = ch.link.bandwidth
    dc._start_ticks()
    dc.degrade_link(0, bandwidth_factor=0.5, extra_delay=1e-3,
                    loss_rate=0.25, duration=1.0)
    assert ch.link.bandwidth == pytest.approx(0.5 * base_bw)
    assert ch.loss_rate == 0.25
    dc.sim.run(until=2.0)
    assert ch.link.bandwidth == pytest.approx(base_bw)
    assert ch.loss_rate == 0.0


def test_degrade_link_validates_direction():
    dc = build_dc(n_nodes=3)
    with pytest.raises(ValueError, match="direction"):
        dc.degrade_link(0, direction="sideways")


def test_lossy_link_recovers_via_resend():
    """A 100 % lossy window drops the BAT; resend redelivers after the
    link heals."""
    dc = build_dc(n_nodes=3, bats={5: MB}, owners={5: 1},
                  resend_timeout=0.2)
    dc._start_ticks()
    dc.degrade_link(1, loss_rate=1.0, duration=0.5)
    dc.nodes[0].request(1, [5])
    fut = dc.nodes[0].pin(1, 5)
    dc.sim.run(until=5.0)
    assert fut.done and fut.value.ok
    assert dc.metrics.loss_drops >= 1
    assert dc.metrics.resends >= 1
    assert check_invariants(dc) == []


# ----------------------------------------------------------------------
# the per-query request index (S2) across crash and restart
# ----------------------------------------------------------------------
def test_crash_empties_the_request_index_and_restart_starts_clean():
    dc = build_dc(n_nodes=4, bats={5: MB, 6: MB}, owners={5: 2, 6: 2})
    node = dc.nodes[0]
    dc._start_ticks()
    node.request(1, [5, 6])
    fut = node.pin(1, 5)
    assert node.s2.bats_of(1) == [5, 6]
    # the fast-forward scan's view of node 0's S2: its bit in the ring's
    # per-BAT stop masks, which the scan holds by reference
    scanned, bit = dc.ff._requested, dc.index.bits[0]
    assert scanned is dc.index.requested
    assert scanned[5] & bit and scanned[6] & bit
    dc.crash_node(0)
    assert fut.done and fut.value.error == NODE_CRASHED
    assert node.s2._by_query == {} and len(node.s2) == 0
    assert scanned is dc.index.requested and 5 not in scanned and 6 not in scanned
    assert check_invariants(dc) == []
    # the blocked query's process tears down against the emptied tables
    node.release_query(1)
    dc.rejoin_node(0)
    assert node.s2._by_query == {}
    node.request(2, [5])
    fut = node.pin(2, 5)
    dc.sim.run(until=2.0)
    assert fut.done and fut.value.ok
    node.unpin(2, 5)
    node.release_query(2)
    assert check_terminal(dc) == []


def test_request_index_invariant_names_what_the_index_misses():
    dc = build_dc(n_nodes=3, bats={5: MB}, owners={5: 1})
    node = dc.nodes[0]
    dc._start_ticks()
    node.request(1, [5])
    assert check_request_index(dc) == []
    # a query slipped into the entry behind the table's back
    node.s2.get(5).queries[9] = False
    (violation,) = check_request_index(dc)
    assert "query 9 holds BAT 5" in violation
    del node.s2.get(5).queries[9]
    # a query that never reaches release_query is a leak at quiescence
    dc.sim.run(until=2.0)
    assert any("request index not empty" in v for v in check_terminal(dc))
    node.release_query(1)
    assert check_terminal(dc) == []
