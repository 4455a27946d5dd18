"""The live invariant behind the owner pass: no fast-forward flight runs
through its owner in closed form while an S2 entry anywhere on the ring
asks for its BAT (``repro.faults.invariants.check_owner_passes``)."""

from repro.core import MB, DataCyclotron, DataCyclotronConfig
from repro.core.query import QuerySpec
from repro.faults.invariants import (
    InvariantMonitor,
    check_invariants,
    check_owner_passes,
)


def passing_ring():
    """A detached 16-node ring whose one BAT, served once, runs through
    its owner with nobody asking for it."""
    dc = DataCyclotron(DataCyclotronConfig(n_nodes=16, seed=2))
    dc.detach_metrics()
    dc.add_bat(0, MB)
    dc.submit(QuerySpec.simple(0, 9, 0.0, [0], [0.002]))
    dc._start_ticks()
    while not dc.ff.passing():
        assert dc.sim.step()
    (flight,) = dc.ff.passing()
    return dc, flight


def test_a_registration_past_the_fast_path_is_a_violation():
    dc, flight = passing_ring()
    assert check_owner_passes(dc) == []
    # S2 written behind the forwarder's back: the flight would sail past
    # its owner although node 5 now asks for the BAT
    dc.nodes[5].s2.register(0, 99, dc.sim.now)
    (violation,) = check_owner_passes(dc)
    assert violation.startswith("owner pass: BAT 0 flies through owner 0")
    assert violation in check_invariants(dc)
    # what request() does first: the flight lands at its next pass
    dc.ff.flush_bat(0, 5)
    assert check_owner_passes(dc) == []
    assert flight.next_pass() is None


def test_every_registration_through_the_runtime_keeps_it():
    dc, _flight = passing_ring()
    dc.nodes[5].request(100, [0])
    assert check_owner_passes(dc) == []
    dc.nodes[5].release_query(100)
    assert dc.run_until_done(max_time=60.0)
    assert check_owner_passes(dc) == []


def test_the_monitor_audits_it_at_a_fault():
    dc, _flight = passing_ring()
    monitor = InvariantMonitor(dc)
    dc.crash_node(7)  # disables the fast path: every flight lands first
    assert monitor.checks == 1
    # (the conservation checks read the collector, detached here)
    assert not [v for v in monitor.violations if "owner pass" in v]
    assert not dc.ff.passing()
