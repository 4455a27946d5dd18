"""The bus-driven InvariantMonitor: live auditing outside the harness."""

from repro.core import MB, DataCyclotron, DataCyclotronConfig, QuerySpec
from repro.faults import ChaosHarness
from repro.faults.invariants import InvariantMonitor, _circulating_bats


def _ring(n_nodes=4, **overrides):
    config = DataCyclotronConfig(n_nodes=n_nodes, seed=3, **overrides)
    dc = DataCyclotron(config)
    for bat_id in range(8):
        dc.add_bat(bat_id, size=1 << 20)
    return dc


def test_monitor_checks_on_manual_crash_and_rejoin():
    """No injector, no harness: any simulation can be audited live."""
    dc = _ring()
    monitor = InvariantMonitor(dc)
    dc.submit(QuerySpec.simple(0, node=1, arrival=0.0,
                               bat_ids=[2], processing_times=[0.01]))
    dc.run(until=0.5)
    dc.crash_node(0)
    dc.run(until=1.0)
    dc.rejoin_node(0)
    dc.run_until_done(max_time=30.0)
    assert monitor.checks == 2
    assert monitor.ok
    assert monitor.log[0].startswith("t=0.500 crash node=0 live=3")
    assert monitor.log[1].startswith("t=1.000 rejoin node=0 live=4")


def test_monitor_checks_on_link_degrade():
    dc = _ring()
    monitor = InvariantMonitor(dc)
    dc.degrade_link(2, direction="data", bandwidth_factor=0.5, duration=0.5)
    assert monitor.checks == 1
    assert "degrade node=2" in monitor.log[0]
    assert monitor.violations == []


def test_detached_monitor_goes_quiet():
    dc = _ring()
    monitor = InvariantMonitor(dc)
    monitor.detach()
    dc.crash_node(0)
    assert monitor.checks == 0


def test_harness_uses_the_monitor():
    harness = ChaosHarness(seed=1, duration=2.0, queries_per_second=5.0)
    harness.injector.arm()
    result = harness.run()
    assert harness.monitor.checks >= len(harness.injector.injected)
    assert result.invariant_checks == harness.monitor.checks + 1
    assert result.fault_log == harness.monitor.log


def test_harness_trace_file(tmp_path):
    import json

    path = str(tmp_path / "chaos.trace.json")
    harness = ChaosHarness(seed=1, duration=2.0, queries_per_second=5.0,
                           trace=path)
    harness.injector.arm()
    harness.run()
    with open(path) as fh:
        doc = json.load(fh)
    names = {event["name"] for event in doc["traceEvents"]}
    assert "FaultInjected" in names or "NodeCrashed" in names


def test_a_detached_ring_with_a_degraded_link_reports_no_violations():
    """A ring that called detach_metrics() feeds no ring load to its
    collector; the conservation check must not read that stale load as
    lost bytes while BATs circulate."""
    dc = _ring(bandwidth=100 * MB)
    dc.detach_metrics()
    monitor = InvariantMonitor(dc)
    for query_id in range(4):  # each node asks for its neighbour's BAT
        dc.submit(QuerySpec.simple(query_id, node=query_id, arrival=0.0,
                                   bat_ids=[(query_id + 1) % 4],
                                   processing_times=[0.05]))
    dc.run(until=0.05)
    assert sum(1 for _ in _circulating_bats(dc)) == 4
    dc.degrade_link(2, direction="data", bandwidth_factor=0.5, duration=0.2)
    assert dc.run_until_done(max_time=30.0)
    assert monitor.checks == 1
    assert monitor.violations == []
    assert not dc.metrics_attached
