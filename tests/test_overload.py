"""Unit tests for closed-loop overload control (docs/overload.md).

Covers the streaming health window (:mod:`repro.metrics.window`), the
:class:`OverloadController` brownout/recovery state machine, its
topology guard, the retry token bucket, the per-engine byte
valves of :class:`RingDatabase`, and the cold-burst workload shape the
overload scenarios are graded on.
"""

import numpy as np
import pytest

from repro.core import DataCyclotronConfig
from repro.core.query import QuerySpec
from repro.core.runtime import DATA_UNAVAILABLE
from repro.dbms.executor import RingDatabase
from repro.dbms.qpu import StreamAggregate
from repro.events import types as ev
from repro.events.bus import Bus
from repro.metrics.window import SampleWindow, WindowedHealth
from repro.resilience.overload import OverloadController, OverloadPolicy
from repro.sim import Simulator
from repro.workloads import ColdBurstWorkload, UniformDataset

from helpers import MB, build_dc

# ----------------------------------------------------------------------
# SampleWindow / WindowedHealth
# ----------------------------------------------------------------------


def test_sample_window_evicts_outside_horizon():
    win = SampleWindow(2.0)
    win.add(0.0, 1.0)
    win.add(1.0, 2.0)
    win.add(3.0, 3.0)
    assert len(win) == 3
    win.evict(4.0)  # cutoff 2.0: drops the t=0 and t=1 samples
    assert len(win) == 1
    assert win.quantile(0.5) == 3.0


def test_sample_window_quantile_is_nearest_rank():
    win = SampleWindow(10.0)
    for i in range(100):
        win.add(float(i) / 10.0, float(i + 1))
    assert win.quantile(0.99) == 99.0
    assert win.quantile(0.5) == 50.0
    assert SampleWindow(1.0).quantile(0.99) == 0.0


def test_sample_window_fresh_quantile_ignores_stragglers():
    """A straggler completing now with a latency longer than the horizon
    started before the window -- it must not poison the fresh quantile."""
    win = SampleWindow(2.0)
    win.add(10.0, 9.5)   # started at 0.5, long before the window
    win.add(10.0, 0.1)   # started at 9.9, inside the window
    win.add(10.0, 0.2)
    assert win.quantile(0.99) == 9.5
    assert win.fresh_quantile(0.99, 10.0) == 0.2
    assert win.fresh_count(10.0) == 2


def test_sample_window_rate_uses_elapsed_window():
    win = SampleWindow(4.0)
    for t in (0.0, 0.5, 1.0, 1.5):
        win.add(t, 1.0)
    # only 2 simulated seconds have elapsed: rate is 4/2, not 4/4
    assert win.rate(2.0) == pytest.approx(2.0)
    assert win.rate(8.0) == pytest.approx(1.0)
    assert SampleWindow(1.0).rate(0.0) == 0.0


def test_windowed_health_tracks_combined_and_per_class():
    health = WindowedHealth(2.0)
    health.note_finish(1.0, 0.5, "mal")
    health.note_finish(1.2, 0.1, "kv")
    health.note_shed(1.5, "kv")
    assert health.sample_count() == 2
    assert health.sample_count("mal") == 1
    assert health.p99("mal") == 0.5
    assert health.p99("kv") == 0.1
    assert health.p99("absent") == 0.0
    assert health.classes() == ("kv", "mal")
    assert health.shed_rate(2.0, "kv") > 0.0
    assert health.shed_rate(2.0, "mal") == 0.0
    health.evict(4.5)  # everything is now stale
    assert health.sample_count() == 0


def test_windowed_health_fresh_p99_decays_before_plain_p99():
    health = WindowedHealth(2.0)
    health.note_finish(10.0, 8.0)   # episode straggler
    health.note_finish(10.0, 0.2)   # current regime
    assert health.p99() == 8.0
    assert health.fresh_p99(10.0) == 0.2
    assert health.fresh_count(10.0) == 1


# ----------------------------------------------------------------------
# OverloadController on a fake deployment
# ----------------------------------------------------------------------


class FakeNode:
    def __init__(self, buffer_load=0.0):
        self.crashed = False
        self.buffer_load = buffer_load


class FakeRing:
    def __init__(self, buffer_load=0.0):
        self.bus = Bus()
        self.nodes = [FakeNode(buffer_load)]


class FakeSplitMerge:
    def __init__(self):
        self.requests = []

    def request_split(self, ring_id):
        self.requests.append(ring_id)


class FakeDeployment:
    """The minimal surface OverloadController needs from a deployment."""

    def __init__(self, n_rings=0):
        self.sim = Simulator()
        self.bus = Bus()
        self.submitted = []
        if n_rings:
            self.rings = [FakeRing(buffer_load=float(i)) for i in range(n_rings)]
            self.active_rings = list(range(n_rings))
            self.splitmerge = FakeSplitMerge()

    def submit(self, spec):
        self.submitted.append(spec)
        return f"proc-{spec.query_id}"


def _spec(query_id, tier=0, arrival=0.0, bats=(0,)):
    return QuerySpec.simple(
        query_id,
        node=0,
        arrival=arrival,
        bat_ids=list(bats),
        processing_times=[0.01] * len(bats),
        tier=tier,
    )


def _policy(**kwargs):
    defaults = dict(
        target_p99=1.0, min_samples=4, recover_fraction=0.5, recover_patience=2,
    )
    defaults.update(kwargs)
    return OverloadPolicy(**defaults)


def _finish(dep, query_id, finished_at, latency, bus=None):
    bus = bus if bus is not None else dep.bus
    bus.publish(ev.QueryRegistered(finished_at - latency, query_id, 0))
    bus.publish(ev.QueryFinished(finished_at, query_id, 0))


def test_policy_validation():
    with pytest.raises(ValueError, match="target_p99"):
        OverloadPolicy(target_p99=0.0)
    with pytest.raises(ValueError, match="recover_fraction"):
        OverloadPolicy(target_p99=1.0, recover_fraction=0.0)


def test_breach_raises_shed_level_one_tier_per_tick():
    dep = FakeDeployment()
    ctrl = OverloadController(dep, _policy())
    events = []
    dep.bus.subscribe(ev.OverloadStateChanged, events.append)
    for i in range(8):
        _finish(dep, i, 0.0, 5.0)  # p99 far above the 1.0s target
    ctrl.start()
    dep.sim.run(until=0.3)
    assert ctrl.shed_level == 1
    assert ctrl.state == "brownout"
    dep.sim.run(until=0.6)
    assert ctrl.shed_level == 2  # capped at N_TIERS - 1
    assert ctrl.state == "overload"
    dep.sim.run(until=1.1)
    assert ctrl.shed_level == 2
    assert [e.level for e in events] == [1, 2]
    assert events[0].state == "brownout"


def test_brownout_sheds_low_tiers_and_spares_the_top():
    dep = FakeDeployment()
    ctrl = OverloadController(dep, _policy())
    tier_sheds = []
    dep.bus.subscribe(ev.TierShed, tier_sheds.append)
    ctrl.shed_level = 1
    assert not ctrl.admit(_spec(1, tier=0))
    assert ctrl.admit(_spec(2, tier=1))
    assert ctrl.admit(_spec(3, tier=2))
    assert [e.tier for e in tier_sheds] == [0]
    assert ctrl.offered_by_tier == {0: 1, 1: 1, 2: 1}
    assert ctrl.shed_by_tier == {0: 1}


def test_controller_recovers_hysteretically_on_fresh_completions():
    dep = FakeDeployment()
    ctrl = OverloadController(dep, _policy())
    for i in range(8):
        _finish(dep, i, 0.0, 5.0)
    ctrl.start()
    dep.sim.run(until=0.3)
    assert ctrl.shed_level == 1
    # time passes; the slow samples leave the window, fast fresh
    # completions arrive -- after recover_patience healthy ticks the
    # valve steps back down, one tier at a time
    dep.sim.post(2.5, lambda: [_finish(dep, 100 + i, dep.sim.now, 0.1)
                               for i in range(8)])
    dep.sim.run(until=4.5)
    assert ctrl.shed_level == 0
    assert ctrl.state == "normal"
    assert ctrl.max_level == 2


def test_straggler_completions_do_not_hold_the_valve_shut():
    """The recovery bar judges the fresh p99: stragglers admitted during
    the episode, completing with episode-sized latencies after conditions
    improved, must not reset the healthy-tick counter.  (Had recovery
    judged the plain windowed p99 -- 2.6s, above the 0.5s bar -- the
    valve would stay shut until the stragglers aged out of the window.)"""
    dep = FakeDeployment()
    ctrl = OverloadController(dep, _policy())
    for i in range(8):
        _finish(dep, i, 0.0, 5.0)
    ctrl.start()
    dep.sim.run(until=0.3)
    assert ctrl.shed_level == 1
    # stragglers admitted at t=0 trickle in at t=2.6 alongside one fast
    # fresh completion; the shed flood keeps the count below min_samples
    dep.sim.post(2.6, lambda: [_finish(dep, 200 + i, dep.sim.now, 2.6)
                               for i in range(2)])
    dep.sim.post(2.7, _finish, dep, 300, 2.7, 0.1)
    dep.sim.run(until=4.0)
    # the stragglers are still inside the window at t=4.0 -- recovery
    # to level 0 happened despite them
    assert ctrl.health.sample_count() == 3
    assert ctrl.health.p99() == pytest.approx(2.6)
    assert ctrl.shed_level == 0


def test_predicted_latency_is_inflight_over_throughput():
    dep = FakeDeployment()
    ctrl = OverloadController(dep, _policy())
    assert ctrl.predicted_latency() == 0.0
    for i in range(10):
        dep.bus.publish(ev.QueryRegistered(0.0, i, 0))
    # no completions yet: throughput floors at 1 per window (0.5/s)
    assert ctrl.predicted_latency() == pytest.approx(10 / 0.5)
    dep.bus.publish(ev.QueryFinished(0.0, 0, 0))
    assert len(ctrl._registered) == 9


def test_queue_buildup_breaches_before_any_completion():
    """Little's-law prediction trips the valve while the queue is still
    building -- before a single slow completion lands in the window."""
    dep = FakeDeployment()
    ctrl = OverloadController(dep, _policy())
    for i in range(32):
        dep.bus.publish(ev.QueryRegistered(0.0, i, 0))
    ctrl.start()
    dep.sim.run(until=0.3)
    assert ctrl.shed_level == 1


def test_shed_echo_is_not_double_counted_in_health():
    """The caller republishes QueryShed for a query this controller
    refused; that echo must not land in the health window twice."""
    dep = FakeDeployment()
    ctrl = OverloadController(dep, _policy())
    ctrl.shed_level = 2
    assert not ctrl.admit(_spec(7, tier=0))
    assert len(ctrl.health._shed) == 1
    dep.bus.publish(ev.QueryShed(0.0, 7, 0, reason="tier-shed"))
    assert len(ctrl.health._shed) == 1
    # a shed from a *downstream* valve does count
    dep.bus.publish(ev.QueryShed(0.0, 8, 0))
    assert len(ctrl.health._shed) == 2


def test_refusals_on_a_federation_leave_no_per_query_state():
    """On a federation the gate publishes its QueryShed echo on the
    federation bus, which the controller does not watch: a refusal must
    not leave anything behind that only that echo would clear."""
    dep = FakeDeployment(n_rings=2)
    ctrl = OverloadController(dep, _policy())
    echoes = []
    dep.bus.subscribe(ev.QueryShed, echoes.append)
    ctrl.shed_level = 2
    ids = range(100, 120)  # clear of the tier keys of the counters
    for query_id in ids:
        assert ctrl.submit(_spec(query_id, tier=0)) is None
    assert [e.query_id for e in echoes] == list(ids)
    assert {e.reason for e in echoes} == {"tier-shed"}
    assert ctrl.shed_by_tier == {0: len(ids)}
    assert len(ctrl.health._shed) == len(ids)
    held = {
        name: value for name, value in vars(ctrl).items()
        if isinstance(value, (set, frozenset, dict))
        and any(query_id in value for query_id in ids)
    }
    assert held == {}


def test_topology_guard_tightens_effective_level():
    dep = FakeDeployment(n_rings=2)
    ctrl = OverloadController(dep, _policy(topology_guard_window=1.0))
    ctrl.shed_level = 1
    assert ctrl.effective_level() == 1
    dep.bus.publish(ev.MigrationStarted(0.0, 0, 0, 1, 5))
    assert ctrl.effective_level() == 2
    dep.bus.publish(ev.FragmentMigrated(0.5, 0, 0, 1, 5, 0.5))
    # the guard lingers for topology_guard_window after the migration
    assert ctrl.effective_level() == 2
    dep.sim.run(until=2.0)
    assert ctrl.effective_level() == 1
    # the guard never sheds on a healthy deployment
    ctrl.shed_level = 0
    dep.bus.publish(ev.MigrationStarted(2.0, 1, 0, 1, 5))
    assert ctrl.effective_level() == 0


def test_split_nudge_asks_for_the_busiest_ring():
    dep = FakeDeployment(n_rings=3)
    ctrl = OverloadController(dep, _policy(split_nudge_ticks=2))
    for i in range(8):
        # federation health rides the per-ring buses
        _finish(dep, i, 0.0, 5.0, bus=dep.rings[0].bus)
    ctrl.start()
    dep.sim.run(until=0.6)  # two overloaded ticks
    # ring 2 has the highest buffer load
    assert dep.splitmerge.requests == [2]


def test_split_nudge_cooldown_during_migrations():
    dep = FakeDeployment(n_rings=2)
    ctrl = OverloadController(dep, _policy(split_nudge_ticks=2))
    dep.bus.publish(ev.MigrationStarted(0.0, 0, 0, 1, 5))
    for i in range(8):
        _finish(dep, i, 0.0, 5.0, bus=dep.rings[0].bus)
    ctrl.start()
    dep.sim.run(until=1.5)
    assert ctrl.shed_level > 0  # overloaded, but no split while migrating
    assert dep.splitmerge.requests == []


def test_submit_defers_future_arrivals_to_their_arrival_time():
    dep = FakeDeployment()
    ctrl = OverloadController(dep, _policy())
    assert ctrl.submit(_spec(1, tier=0, arrival=2.0)) is None
    assert dep.submitted == []
    dep.sim.run(until=3.0)
    assert [s.query_id for s in dep.submitted] == [1]
    assert dep.submitted[0].arrival == 2.0


def test_submit_publishes_query_shed_on_refusal():
    dep = FakeDeployment()
    ctrl = OverloadController(dep, _policy())
    shed = []
    dep.bus.subscribe(ev.QueryShed, shed.append)
    ctrl.shed_level = 2
    assert ctrl.submit(_spec(5, tier=0)) is None
    assert [e.query_id for e in shed] == [5]
    assert dep.submitted == []


def test_stats_reports_headline_counters():
    dep = FakeDeployment()
    ctrl = OverloadController(dep, _policy())
    ctrl.shed_level = 1
    ctrl.admit(_spec(1, tier=2))
    ctrl.admit(_spec(2, tier=0))
    stats = ctrl.stats()
    assert stats["offered"] == 2
    assert stats["offered_by_tier"] == {0: 1, 2: 1}
    assert stats["shed_by_tier"] == {0: 1}
    assert stats["level"] == 1
    assert set(stats) >= {
        "max_level", "level_changes", "predicted_latency",
        "window_p99", "window_throughput", "window_shed_rate", "per_class",
    }


# ----------------------------------------------------------------------
# retry budget (token bucket in QueryRetrier)
# ----------------------------------------------------------------------


def _pin_spec(query_id, node, bats, arrival=0.0):
    return QuerySpec.simple(
        query_id, node=node, arrival=arrival, bat_ids=list(bats),
        processing_times=[0.01] * len(bats),
    )


def test_retry_budget_caps_redispatches_and_publishes_exhaustion():
    """K=1 + fail_fast keeps the dead node's data unavailable, so every
    query would burn all its attempts -- a 1-token budget lets exactly
    one retry through before the bucket runs dry."""
    dc = build_dc(
        n_nodes=4,
        resilience=True,
        retry_max_attempts=4,
        retry_backoff_initial=0.05,
        retry_backoff_cap=0.1,
        retry_budget_capacity=1.0,
        retry_budget_refill=0.0,
        bats={5: MB, 6: MB},
        owners={5: 1, 6: 1},
    )
    exhausted = []
    dc.bus.subscribe(ev.RetryBudgetExhausted, exhausted.append)
    dc._start_ticks()
    dc.run(until=1.0)
    dc.fail_node(1)
    dc.run(until=3.0)  # detector confirms, ring repaired, data still gone
    s1 = dc.resilience.submit(_pin_spec(1, 0, [5], arrival=dc.now))
    s2 = dc.resilience.submit(_pin_spec(2, 0, [6], arrival=dc.now))
    assert dc.run_until_done(max_time=dc.now + 30.0)
    retrier = dc.resilience.retrier
    assert s1.error == DATA_UNAVAILABLE and s2.error == DATA_UNAVAILABLE
    # one retry token total: 2 queries, 3 attempts (not 8), and each
    # query hits the dry bucket once before failing terminally
    assert s1.attempts + s2.attempts == 3
    assert retrier.budget_exhausted == 2
    assert len(exhausted) == 2


def test_retry_budget_refill_restores_tokens_over_time():
    dc = build_dc(
        n_nodes=4,
        resilience=True,
        retry_max_attempts=2,
        retry_backoff_initial=0.05,
        retry_backoff_cap=0.1,
        retry_budget_capacity=5.0,
        retry_budget_refill=2.0,
        bats={5: MB},
        owners={5: 1},
    )
    dc._start_ticks()
    dc.run(until=1.0)
    dc.fail_node(1)
    dc.run(until=3.0)
    retrier = dc.resilience.retrier
    # drain the bucket as of one second ago: the 2/s lazy refill must
    # restore enough tokens by the time the retry asks for one
    retrier._budget_tokens = 0.0
    retrier._budget_last = dc.now - 1.0
    state = dc.resilience.submit(_pin_spec(1, 0, [5], arrival=dc.now))
    assert dc.run_until_done(max_time=dc.now + 30.0)
    assert state.attempts == 2
    assert retrier.budget_exhausted == 0


# ----------------------------------------------------------------------
# RingDatabase byte valves (overall + per engine class)
# ----------------------------------------------------------------------

N_ROWS = 600


def make_rdb(**kwargs) -> RingDatabase:
    rdb = RingDatabase(DataCyclotronConfig(n_nodes=4, seed=7), **kwargs)
    rng = np.random.default_rng(7)
    rdb.load_table(
        "t",
        {
            "id": np.arange(N_ROWS, dtype=np.int64),
            "v": np.round(rng.uniform(0.0, 10.0, N_ROWS), 3),
        },
        rows_per_partition=100,
    )
    return rdb


def test_byte_budget_sheds_wide_queries_but_admits_when_empty():
    rdb = make_rdb()
    rdb.byte_budget = 1  # essentially nothing
    # empty valve: the first query is admitted no matter how wide
    first = rdb.submit_request(StreamAggregate(table="t", value_column="v"))
    second = rdb.submit_request(StreamAggregate(table="t", value_column="v"))
    assert rdb.run_until_done()
    assert first.result is not None
    assert second.result is None
    assert rdb.metrics.queries_shed == 1
    assert rdb.metrics.queries_shed_by_engine == {"stream": 1}


# ----------------------------------------------------------------------
# ColdBurstWorkload
# ----------------------------------------------------------------------


def _cold_burst(burst_factor):
    dataset = UniformDataset(n_bats=120, min_size=MB, max_size=2 * MB, seed=0)
    return ColdBurstWorkload(
        dataset,
        n_nodes=4,
        base_rate=30.0,
        burst_factor=burst_factor,
        burst_start=1.0,
        burst_duration=2.0,
        hot_set_size=8,
        duration=4.0,
        seed=0,
    )


def test_cold_burst_baseline_stays_on_the_hot_set():
    flash = _cold_burst(burst_factor=8.0)
    hot = set(range(flash.hot_low, flash.hot_low + flash.hot_set_size))
    specs = list(flash.queries())
    baseline = [s for s in specs if not flash.in_burst(s.arrival)]
    burst = [s for s in specs if flash.in_burst(s.arrival)]
    assert baseline and burst
    assert all(set(s.bat_ids) <= hot for s in baseline)
    # the burst is the cold flood: it escapes the hot window
    assert any(set(s.bat_ids) - hot for s in burst)
    assert all(s.tag == "flash-burst" for s in burst)


def test_cold_burst_factor_one_is_hot_only():
    """The bf=1 calibration baseline must never draw cold data, even
    inside the (rate-neutral) burst window."""
    flash = _cold_burst(burst_factor=1.0)
    hot = set(range(flash.hot_low, flash.hot_low + flash.hot_set_size))
    specs = list(flash.queries())
    assert specs
    assert all(set(s.bat_ids) <= hot for s in specs)
