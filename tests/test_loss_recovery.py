"""The section 4.2.3 loss-recovery path, drop accounting, and resend
timer hygiene.

Covers both drop mechanisms (DropTail on a full transmit queue, loss
injection on the channel), checks that the two are never conflated in
the metrics, and exercises the ``_arm_resend`` / ``_cancel_resend`` /
timer-cancellation life cycle.
"""

import pytest


from helpers import MB, build_dc


# ----------------------------------------------------------------------
# drop accounting (channel loss vs DropTail)
# ----------------------------------------------------------------------
def test_channel_loss_drop_is_accounted_and_recovered():
    dc = build_dc(n_nodes=3, bats={5: MB}, owners={5: 1},
                  data_loss_rate=0.4, resend_timeout=0.3)
    dc._start_ticks()
    dc.nodes[0].request(1, [5])
    fut = dc.nodes[0].pin(1, 5)
    dc.sim.run(until=20.0)
    assert fut.done and fut.value.ok
    # every loss the metrics saw is a loss some channel injected
    assert dc.metrics.loss_drops == sum(
        dc.ring.data_channel(i).dropped_by_loss
        + dc.ring.request_channel(i).dropped_by_loss
        for i in range(3)
    )
    assert dc.metrics.droptail_drops == 0


def _congested_run(**overrides):
    """A fault-free but congested uniform workload.

    Symmetric ring transit alone cannot overflow a queue (inflow equals
    the drain rate); overflow needs owners *injecting* fresh loads while
    transit traffic arrives.  The chaos harness's workload produces that
    reliably, so we reuse it with an empty fault schedule.
    """
    from repro.faults import ChaosHarness, ChaosScenario

    harness = ChaosHarness(
        n_nodes=3, seed=2, scenario=ChaosScenario([], name="congestion"),
        duration=4.0, **overrides,
    )
    harness.injector.arm()
    result = harness.run()
    assert result.completed
    return harness.dc


def test_droptail_drop_is_accounted_and_recovered():
    dc = _congested_run()
    channel_droptail = sum(
        dc.ring.data_channel(i).stats.messages_dropped for i in range(3)
    )
    assert channel_droptail > 0, "scenario must exercise DropTail"
    assert dc.metrics.droptail_drops == channel_droptail
    assert dc.metrics.loss_drops == 0
    assert dc.metrics.finished_count() > 0


def test_loss_and_droptail_are_not_conflated():
    """Regression: with loss injection AND tight queues active at once,
    each drop is counted exactly once, under its own kind.  (The old
    ``forward_bat`` inferred the kind from ``send``'s boolean and
    double-counted DropTail drops as loss drops.)"""
    dc = _congested_run(data_loss_rate=0.15)
    # request losses are not BAT drops; only data-channel events count
    data_loss = sum(dc.ring.data_channel(i).dropped_by_loss for i in range(3))
    data_droptail = sum(
        dc.ring.data_channel(i).stats.messages_dropped for i in range(3)
    )
    assert data_loss > 0, "scenario must exercise loss injection"
    assert data_droptail > 0, "scenario must exercise DropTail"
    assert dc.metrics.loss_drops == data_loss
    assert dc.metrics.droptail_drops == data_droptail


def test_channel_stats_and_loss_counter_disjoint():
    """Channel-level unit check: a loss-injected message never reaches
    the link, so it cannot also appear in the link's DropTail stats."""
    from repro.net.channel import Channel
    from repro.sim.engine import Simulator
    import random

    sim = Simulator()
    ch = Channel(sim, bandwidth=MB, delay=0.0, queue_capacity=MB,
                 loss_rate=0.5, rng=random.Random(7))
    ch.set_receiver(lambda m, s: None)
    losses = []
    ch.set_loss_handler(lambda m, s: losses.append(m))
    sent = sum(1 if ch.send(i, MB // 4) else 0 for i in range(40))
    assert ch.dropped_by_loss == len(losses)
    assert ch.dropped_by_loss + ch.stats.messages_dropped + sent == 40
    assert ch.stats.messages_dropped > 0  # the tight queue also dropped


# ----------------------------------------------------------------------
# resend timer hygiene
# ----------------------------------------------------------------------
def test_timer_cancelled_when_bat_arrives():
    dc = build_dc(n_nodes=3, bats={5: MB}, owners={5: 1}, resend_timeout=5.0)
    node = dc.nodes[0]
    dc._start_ticks()
    node.request(1, [5])
    fut = node.pin(1, 5)
    assert 5 in node._resend_timers
    dc.sim.run(until=2.0)
    assert fut.done and fut.value.ok
    assert node._resend_timers == {}, "served request must leave no timer"


def test_arm_resend_replaces_existing_timer():
    dc = build_dc(n_nodes=3, bats={5: MB}, owners={5: 1}, resend_timeout=5.0)
    node = dc.nodes[0]
    dc._start_ticks()
    node.request(1, [5])
    entry = node.s2.get(5)
    first = node._resend_timers[5]
    node._arm_resend(entry)
    second = node._resend_timers[5]
    assert first is not second and first.cancelled
    assert len(node._resend_timers) == 1


def test_cancel_resend_is_idempotent():
    dc = build_dc(n_nodes=3, bats={5: MB}, owners={5: 1}, resend_timeout=5.0)
    node = dc.nodes[0]
    dc._start_ticks()
    node.request(1, [5])
    timer = node._resend_timers[5]
    node._cancel_resend(5)
    assert timer.cancelled and 5 not in node._resend_timers
    node._cancel_resend(5)  # second cancel is a no-op, not an error
    node._cancel_resend(999)  # unknown BAT likewise


def test_finish_query_cancels_only_its_own_timers():
    dc = build_dc(n_nodes=4, bats={5: MB, 6: MB}, owners={5: 2, 6: 2},
                  resend_timeout=5.0)
    node = dc.nodes[0]
    dc._start_ticks()
    node.request(1, [5])
    node.request(2, [6, 5])
    assert set(node._resend_timers) == {5, 6}
    # query 1 leaving keeps BAT 5's request alive (query 2 still needs it)
    assert node.s2.drop_query(1) == []
    assert set(node._resend_timers) == {5, 6}
    # query 2 leaving empties both requests; the caller cancels exactly
    # those, named in the order query 2 registered them (table order is 5, 6)
    emptied = node.s2.drop_query(2)
    assert emptied == [6, 5]
    for bat_id in emptied:
        node._cancel_resend(bat_id)
    assert node._resend_timers == {}
    assert not node.s2.has(5) and not node.s2.has(6)


def test_resend_interval_backoff_and_cap():
    dc = build_dc(n_nodes=3, resend_timeout=1.0, resend_backoff_base=2.0)
    node = dc.nodes[0]
    assert node._resend_interval(0) == pytest.approx(1.0)
    assert node._resend_interval(1) == pytest.approx(2.0)
    assert node._resend_interval(2) == pytest.approx(4.0)
    assert node._resend_interval(3) == pytest.approx(8.0)
    assert node._resend_interval(10) == pytest.approx(8.0)  # capped


def test_paper_default_backoff_is_flat():
    dc = build_dc(n_nodes=3, resend_timeout=1.0)
    node = dc.nodes[0]
    assert [node._resend_interval(k) for k in range(4)] == [1.0] * 4


def test_max_resends_escalates_to_data_unavailable():
    """With the owner gone silent (100 % loss on the requester's request
    link), resends escalate and the query fails instead of retrying
    forever."""
    from repro.core.runtime import DATA_UNAVAILABLE

    dc = build_dc(n_nodes=3, bats={5: MB}, owners={5: 1},
                  resend_timeout=0.2, max_resends=3)
    dc._start_ticks()
    dc.degrade_link(0, direction="request", loss_rate=1.0)
    node = dc.nodes[0]
    node.request(1, [5])
    fut = node.pin(1, 5)
    dc.sim.run(until=10.0)
    assert fut.done
    assert fut.value.error == DATA_UNAVAILABLE
    assert node._resend_timers == {}
    assert not node.s2.has(5)
    assert dc.metrics.resends == 3
    assert dc.metrics.requests_unavailable >= 1
