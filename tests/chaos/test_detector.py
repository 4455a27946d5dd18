"""The phi-accrual heartbeat detector (docs/resilience.md).

Unit tests pin the suspicion math (window, mean floor, phi growth);
integration tests run a small ring with ``resilience`` on, kill a node
*silently* via ``fail_node``, and assert that the detector -- not the
injector -- confirms the death and triggers the ring repair.
"""

import math

import pytest

from repro.events import types as ev
from repro.resilience.detector import PHI_LOG10_E, ArrivalWindow, SuccessorMonitor
from repro.resilience.manager import HEARTBEAT_INTERVAL, PHI_CONFIRM

from helpers import build_dc

pytestmark = pytest.mark.chaos_smoke

INTERVAL = HEARTBEAT_INTERVAL


# ----------------------------------------------------------------------
# suspicion math
# ----------------------------------------------------------------------
def test_phi_log10_e_constant():
    assert PHI_LOG10_E == pytest.approx(math.log10(math.e), abs=1e-15)


def test_window_mean_floors_at_prior():
    window = ArrivalWindow(capacity=4, prior=0.05)
    # a burst of near-simultaneous arrivals must not crater the mean
    for _ in range(10):
        window.observe(0.001)
    assert window.mean == pytest.approx(0.05)


def test_window_mean_tracks_slow_traffic():
    window = ArrivalWindow(capacity=4, prior=0.05)
    for _ in range(10):
        window.observe(0.2)
    assert window.mean == pytest.approx(0.2)


def test_window_capacity_evicts_old_gaps():
    window = ArrivalWindow(capacity=2, prior=0.05)
    window.observe(10.0)
    window.observe(0.2)
    window.observe(0.2)
    assert window.mean == pytest.approx(0.2)


def test_phi_is_linear_in_silence():
    window = ArrivalWindow(capacity=4, prior=0.05)
    assert window.phi(0.0) == 0.0
    # phi = log10(e) * elapsed / mean: doubling silence doubles phi
    assert window.phi(0.2) == pytest.approx(2 * window.phi(0.1))
    # the exponential model: phi 3.0 ~ P(still alive) = 1e-3
    elapsed = 3.0 * 0.05 / PHI_LOG10_E
    assert window.phi(elapsed) == pytest.approx(3.0)


def test_monitor_reset_forgets_history():
    monitor = SuccessorMonitor(node_id=0, window_capacity=4, prior=0.05)
    monitor.reset(1, now=0.0)
    monitor.note_arrival(0.05)
    monitor.note_arrival(0.10)
    before = monitor.phi(1.0)
    monitor.suspected = True
    monitor.reset(2, now=1.0)
    assert monitor.target == 2
    assert not monitor.suspected
    assert monitor.phi(1.0) == 0.0
    # same 0.9 s of silence as before the reset: same score, because the
    # fresh window is re-seeded with the prior mean
    assert monitor.phi(1.9) == pytest.approx(before)


# ----------------------------------------------------------------------
# detector-driven repair on a live ring
# ----------------------------------------------------------------------
def _capture(dc, *event_types):
    log = []
    for event_type in event_types:
        dc.bus.subscribe(event_type, log.append)
    return log


def test_fail_node_is_confirmed_and_repaired_by_the_detector():
    dc = build_dc(n_nodes=4, resilience=True, replication_k=2)
    suspicions = _capture(dc, ev.NodeSuspected)
    confirmations = _capture(dc, ev.NodeConfirmedDead)
    repairs = _capture(dc, ev.RingRepaired)
    dc._start_ticks()
    dc.run(until=1.0)  # let the arrival windows warm up
    dc.fail_node(1)
    assert dc.unrepaired_failures == {1}
    dc.run(until=3.0)
    # suspicion precedes confirmation; both name the dead node and the
    # accuser is its wired predecessor
    assert [e.node for e in suspicions] == [1]
    assert [e.node for e in confirmations] == [1]
    assert confirmations[0].by == 0
    assert suspicions[0].t < confirmations[0].t
    assert confirmations[0].phi >= PHI_CONFIRM
    # the confirmation triggered the repair, with a plausible latency:
    # silence must accrue phi >= 3.0 over a mean gap ~ the heartbeat
    # interval, detected on a HEARTBEAT_INTERVAL check grid
    assert [e.node for e in repairs] == [1]
    assert dc.unrepaired_failures == set()
    assert 0.2 <= repairs[0].latency <= 0.8
    assert dc.metrics.ring_repairs == 1
    assert dc.metrics.repair_latencies == [repairs[0].latency]


def test_rejoin_before_confirmation_clears_suspicion():
    dc = build_dc(n_nodes=4, resilience=True)
    cleared = _capture(dc, ev.NodeSuspicionCleared)
    confirmations = _capture(dc, ev.NodeConfirmedDead)
    dc._start_ticks()
    dc.run(until=1.0)
    dc.fail_node(1)
    # suspect threshold (phi 1.5) trips at ~0.17 s of silence; the
    # confirm threshold (phi 3.0) needs ~0.35 s -- resurrect in between
    dc.run(until=dc.now + 0.25)
    dc.rejoin_node(1)
    dc.run(until=dc.now + 1.0)
    assert confirmations == []
    assert dc.metrics.node_suspicions >= 1
    assert any(e.node == 1 for e in cleared) or dc.metrics.suspicions_cleared >= 1
    assert dc.unrepaired_failures == set()


def test_monitors_follow_the_wiring_not_the_alive_flags():
    """Between fail_node and repair the monitor must keep watching the
    corpse -- retargeting from liveness flags would skip straight past
    it and never detect anything."""
    dc = build_dc(n_nodes=4, resilience=True)
    dc._start_ticks()
    dc.run(until=0.5)
    monitors = dc.resilience.monitors
    assert [m.target for m in monitors] == [1, 2, 3, 0]
    dc.fail_node(1)
    dc.run(until=dc.now + 0.1)  # well before confirmation
    assert monitors[0].target == 1
    dc.run(until=dc.now + 2.0)  # detector confirms and repairs
    assert monitors[0].target == 2
    assert [m.target for m in monitors if m.node_id != 1] == [2, 3, 0]


def test_beacons_do_not_disturb_query_traffic():
    """With resilience on and no faults, a tiny workload completes and
    the detector stays quiet."""
    from repro.core import QuerySpec
    from repro.core.query import PinStep

    dc = build_dc(n_nodes=4, resilience=True)
    specs = [
        QuerySpec(
            query_id=q,
            node=q % 4,
            arrival=0.1 * q,
            steps=[PinStep(bat_id=q % 8, op_time=0.01)],
        )
        for q in range(12)
    ]
    for spec in specs:
        dc.resilience.submit(spec)
    assert dc.run_until_done(max_time=30.0)
    stats = dc.resilience.stats()
    assert stats["resilient_succeeded"] == 12
    assert stats["resilient_attempts"] == 12
    assert dc.metrics.nodes_confirmed_dead == 0
    assert dc.metrics.queries_shed == 0
