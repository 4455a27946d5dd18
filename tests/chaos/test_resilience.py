"""End-to-end resilience: retry/failover, replica promotion, recovery.

The acceptance scenario from the issue lives here: an 8-node ring with
K=2 replication and one silent mid-workload crash, where recovery is
driven entirely by the heartbeat detector (the injector only kills the
node -- its direct ring-repair path is disabled under ``resilience``),
must complete *every* query: zero DATA_UNAVAILABLE terminal outcomes.

The satellite regressions ride along:

* a pin issued inside the failure window (after ``fail_node``, before
  the repair) fails with DATA_UNAVAILABLE at repair time instead of
  hanging until the resend escalation gives up,
* the resend escalation on a dead owner is capped and surfaces a
  ``ResendAbandoned`` event rather than a silent infinite timer.
"""

import pytest

from repro.core import QuerySpec
from repro.core.query import PinStep
from repro.core.runtime import DATA_UNAVAILABLE
from repro.events import types as ev
from repro.faults import ChaosHarness, ChaosScenario, NodeCrash
from repro.resilience.retry import ATTEMPT_ID_BASE

from helpers import MB, build_dc


def _acceptance_harness(seed=0):
    # one silent crash mid-workload, no rejoin: the dead node stays down,
    # so every completion is owed to detection + promotion + retry
    scenario = ChaosScenario([NodeCrash(at=2.0, node=3)], name="acceptance-res")
    return ChaosHarness(
        n_nodes=8, seed=seed, scenario=scenario, resilience=True, replication=2
    )


@pytest.mark.chaos
def test_acceptance_single_crash_k2_every_query_completes():
    harness = _acceptance_harness()
    omniscient_crashes = []
    harness.dc.bus.subscribe(ev.NodeCrashed, omniscient_crashes.append)
    harness.injector.arm()
    result = harness.run()
    assert result.completed, "queries must terminate, never hang"
    assert result.violations == []
    summary = result.summary

    # recovery was detector-driven: the injector injected a *silent*
    # failure (never the omniscient crash+repair path) and the phi
    # detector confirmed and repaired it
    assert omniscient_crashes == []
    assert summary["nodes_failed"] == 1
    assert summary["nodes_confirmed_dead"] == 1
    assert summary["ring_repairs"] == 1
    assert 0.0 < summary["mean_repair_latency"] < 1.0

    # K=2: everything the dead node owned was promoted to its replica
    owned_by_dead = [
        b for b, owner in harness.dc._bat_replicas.items() if owner[0] == 3
    ]
    assert summary["bats_promoted"] == len(owned_by_dead) > 0

    # the headline acceptance: 100% success, zero DATA_UNAVAILABLE
    # terminal outcomes
    assert summary["resilient_queries"] == summary["queries_submitted"]
    assert summary["resilient_succeeded"] == summary["resilient_queries"]
    assert summary["resilient_failed"] == 0
    assert summary["resilient_shed"] == 0
    terminal_unavailable = [
        s for s in harness.dc.resilience.retrier.states.values()
        if s.error == DATA_UNAVAILABLE
    ]
    assert terminal_unavailable == []
    assert summary["queries_abandoned"] == 0

    # failed attempts were re-dispatched, and the retry tail is bounded:
    # P99 arrival-to-success latency stays within the run's horizon
    assert summary["resilient_attempts"] > summary["resilient_queries"]
    assert summary["queries_retried"] > 0
    assert 0.0 < summary["resilient_p99_latency"] < 30.0


@pytest.mark.chaos
def test_acceptance_same_seed_reports_are_byte_identical():
    first = _acceptance_harness()
    first.injector.arm()
    second = _acceptance_harness()
    second.injector.arm()
    assert first.run().report() == second.run().report()


@pytest.mark.chaos_smoke
def test_retry_attempt_ids_never_clobber_metrics():
    """Every attempt gets its own metrics record: the original id for
    attempt 1, reserved-namespace ids for the retries."""
    harness = _acceptance_harness()
    harness.injector.arm()
    harness.run()
    metrics = harness.dc.metrics
    states = harness.dc.resilience.retrier.states
    retried = [s for s in states.values() if s.attempts > 1]
    assert retried, "the crash must force at least one retry"
    for state in retried:
        assert state.spec.query_id in metrics.queries
        assert state.spec.query_id < ATTEMPT_ID_BASE
    attempt_records = [q for q in metrics.queries if q >= ATTEMPT_ID_BASE]
    assert len(attempt_records) == sum(s.attempts - 1 for s in states.values())
    # every attempt terminated in the metrics, too (no leaked processes)
    assert all(rec.finished_at is not None for rec in metrics.queries.values())


# ----------------------------------------------------------------------
# retry manager semantics on a small ring
# ----------------------------------------------------------------------
def _spec(query_id, node, bats, arrival=0.0):
    return QuerySpec(
        query_id=query_id,
        node=node,
        arrival=arrival,
        steps=[PinStep(bat_id=b, op_time=0.01) for b in bats],
    )


@pytest.mark.chaos_smoke
def test_duplicate_submission_is_rejected():
    dc = build_dc(n_nodes=4, resilience=True)
    dc.resilience.submit(_spec(1, 0, [0]))
    with pytest.raises(ValueError, match="already managed"):
        dc.resilience.submit(_spec(1, 2, [1]))


@pytest.mark.chaos_smoke
def test_retry_fails_over_to_a_live_node():
    """A query submitted to a node that dies mid-flight is retried on a
    believed-live node and succeeds."""
    dc = build_dc(
        n_nodes=4, resilience=True, replication_k=2, retry_backoff_initial=0.05
    )
    dc._start_ticks()
    dc.run(until=1.0)
    state = dc.resilience.submit(_spec(1, 1, [5], arrival=dc.now))
    dc.fail_node(1)  # kills the query mid-flight: NODE_CRASHED
    assert dc.run_until_done(max_time=dc.now + 20.0)
    assert state.succeeded
    assert state.attempts >= 2
    assert state.attempt_nodes[0] == 1
    assert all(n != 1 for n in state.attempt_nodes[1:])
    assert dc.metrics.queries_retried >= 1


@pytest.mark.chaos_smoke
def test_retry_budget_exhaustion_publishes_query_abandoned():
    """With K=1 and fail_fast, the dead node's data stays unavailable;
    the retrier burns its attempts and abandons with the last error."""
    dc = build_dc(
        n_nodes=4,
        resilience=True,
        retry_max_attempts=2,
        retry_backoff_initial=0.05,
        retry_backoff_cap=0.1,
        bats={5: MB},
        owners={5: 1},
    )
    abandoned = []
    dc.bus.subscribe(ev.QueryAbandoned, abandoned.append)
    dc._start_ticks()
    dc.run(until=1.0)
    dc.fail_node(1)
    dc.run(until=3.0)  # detector confirms death, repairs the ring
    assert dc.unrepaired_failures == set()
    state = dc.resilience.submit(_spec(1, 0, [5], arrival=dc.now))
    assert dc.run_until_done(max_time=dc.now + 30.0)
    assert state.done and not state.succeeded
    assert state.attempts == 2
    assert state.error == DATA_UNAVAILABLE
    assert [e.query_id for e in abandoned] == [1]
    assert abandoned[0].attempts == 2


@pytest.mark.chaos_smoke
def test_attempt_timeout_supersedes_a_slow_attempt_and_discards_its_result():
    """A 2 MB BAT on 2 MB/s links takes a second per hop, so attempts on
    nodes 0 and 1 outlive ``retry_attempt_timeout``; each is superseded
    by the next node, attempt 3 lands on the owner and succeeds, and the
    two late completions are discarded by their epoch tag."""
    dc = build_dc(
        n_nodes=4,
        resilience=True,
        bandwidth=2 * MB,
        retry_attempt_timeout=0.2,
        retry_max_attempts=3,
        bats={5: 2 * MB},
        owners={5: 2},
    )
    retried, stale = [], []
    dc.bus.subscribe(ev.QueryRetried, retried.append)
    dc.bus.subscribe(ev.StaleResultDiscarded, stale.append)
    state = dc.resilience.submit(_spec(1, 0, [5]))
    assert dc.run_until_done(max_time=30.0)
    assert state.succeeded
    assert state.attempt_nodes == [0, 1, 2]
    assert [(e.attempt, e.error) for e in retried] == [
        (2, "ATTEMPT_TIMEOUT"), (3, "ATTEMPT_TIMEOUT")
    ]
    assert [e.attempt for e in stale] == [1, 2]
    assert dc.summary()["stale_results_discarded"] == 2


@pytest.mark.chaos_smoke
def test_admission_valve_sheds_when_half_the_ring_is_down():
    dc = build_dc(n_nodes=4, resilience=True, admission_suspect_fraction=0.5)
    shed = []
    dc.bus.subscribe(ev.QueryShed, shed.append)
    dc._start_ticks()
    dc.run(until=1.0)
    dc.fail_node(1)
    dc.fail_node(2)
    dc.run(until=4.0)  # detector confirms both deaths
    assert dc.resilience.known_down == {1, 2}
    state = dc.resilience.submit(_spec(9, 0, [0], arrival=dc.now))
    assert state.shed and state.done and not state.succeeded
    assert state.error == "SHED"
    assert state.attempts == 0
    assert [e.query_id for e in shed] == [9]


@pytest.mark.chaos_smoke
def test_routing_avoids_suspected_and_confirmed_nodes():
    dc = build_dc(n_nodes=4, resilience=True)
    dc._start_ticks()
    dc.run(until=1.0)
    assert dc.resilience.route(1) == 1
    dc.fail_node(1)
    dc.run(until=3.0)
    assert dc.resilience.known_down == {1}
    assert dc.resilience.route(1) == 2
    assert dc.resilience.route(3) == 3


# ----------------------------------------------------------------------
# satellite regressions
# ----------------------------------------------------------------------
@pytest.mark.chaos_smoke
def test_pin_inside_the_failure_window_fails_at_repair_time():
    """A pin issued between fail_node and the repair must resolve with
    DATA_UNAVAILABLE when the repair notifies the survivors -- not hang
    until the resend escalation finally gives up."""
    dc = build_dc(
        n_nodes=4,
        bats={5: MB},
        owners={5: 2},
        resend_timeout=1000.0,  # resends can never be the rescuer
    )
    dc._start_ticks()
    dc.run(until=0.5)
    dc.fail_node(2)
    # inside the failure window: nobody knows node 2 is dead yet
    dc.nodes[0].request(1, [5])
    fut = dc.nodes[0].pin(1, 5)
    dc.run(until=dc.now + 1.0)
    assert not fut.done, "no oracle: the pin cannot fail before the repair"
    dc.repair_after_failure(2)
    dc.run(until=dc.now + 0.01)
    assert fut.done
    assert not fut.value.ok
    assert fut.value.error == DATA_UNAVAILABLE
    assert dc.now < 2.0, "resolution must come from the repair, not a timeout"


@pytest.mark.chaos_smoke
def test_resend_escalation_is_capped_and_surfaces_resend_abandoned():
    """With the owner silently dead and no detector running, the resend
    escalation must give up after max_resends and publish
    ResendAbandoned + DATA_UNAVAILABLE instead of rearming forever."""
    dc = build_dc(
        n_nodes=4,
        bats={5: MB},
        owners={5: 2},
        resend_timeout=0.2,
        resend_backoff_base=1.0,
        max_resends=2,
    )
    abandoned = []
    dc.bus.subscribe(ev.ResendAbandoned, abandoned.append)
    dc._start_ticks()
    dc.run(until=0.5)
    dc.fail_node(2)
    dc.nodes[0].request(1, [5])
    fut = dc.nodes[0].pin(1, 5)
    dc.run(until=dc.now + 60.0)
    assert fut.done
    assert not fut.value.ok
    assert fut.value.error == DATA_UNAVAILABLE
    assert [e.bat_id for e in abandoned] == [5]
    assert abandoned[0].node == 0
    assert abandoned[0].resends == 2
    assert dc.metrics.resends_abandoned == 1
    assert not dc.nodes[0]._resend_timers, "no timer may survive the give-up"
