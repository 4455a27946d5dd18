"""Tests for multi-version updates (section 6.4)."""

import pytest

from repro.core import QuerySpec
from repro.sim.process import Process
from repro.xtn.updates import UpdateCoordinator

from helpers import MB, build_dc


def make_dc(**overrides):
    defaults = {"n_nodes": 3, "bats": {i: MB for i in range(6)}, "loit_static": 0.0}
    defaults.update(overrides)
    return build_dc(**defaults)


def test_update_bumps_version():
    dc = make_dc()
    coord = UpdateCoordinator(dc)
    assert coord.current_version(4) == 0
    update = coord.submit_update(bat_id=4, node=0, apply_time=0.01)
    assert dc.run_until_done(max_time=30.0)
    assert update.done
    assert update.new_version == 1
    assert coord.current_version(4) == 1


def test_update_on_owner_node():
    dc = make_dc()
    coord = UpdateCoordinator(dc)
    # BAT 3 owned by node 0 on a 3-node ring
    update = coord.submit_update(bat_id=3, node=0, apply_time=0.01)
    assert dc.run_until_done(max_time=30.0)
    assert update.done and update.new_version == 1


def test_concurrent_updates_serialise():
    dc = make_dc()
    coord = UpdateCoordinator(dc)
    first = coord.submit_update(bat_id=4, node=0, apply_time=0.05)
    second = coord.submit_update(bat_id=4, node=1, apply_time=0.05)
    assert dc.run_until_done(max_time=60.0)
    assert first.done and second.done
    assert {first.new_version, second.new_version} == {1, 2}
    assert second.waited_for_lock or first.waited_for_lock
    # no overlap between the two critical sections
    earlier, later = sorted([first, second], key=lambda u: u.started_at)
    assert later.started_at >= earlier.completed_at - 1e9 * 0  # ordering
    assert later.started_at >= earlier.completed_at


def test_updates_on_different_bats_run_concurrently():
    dc = make_dc()
    coord = UpdateCoordinator(dc)
    a = coord.submit_update(bat_id=4, node=0, apply_time=0.05)
    b = coord.submit_update(bat_id=5, node=1, apply_time=0.05)
    assert dc.run_until_done(max_time=60.0)
    assert not a.waited_for_lock and not b.waited_for_lock


def test_stale_copy_retired_at_owner():
    """After an update, the old version is swallowed on its next pass at
    the owner and the new version circulates."""
    dc = make_dc()
    coord = UpdateCoordinator(dc)
    # first, a read gets the BAT circulating at version 0
    dc.submit(QuerySpec.simple(0, node=0, arrival=0.0, bat_ids=[4],
                               processing_times=[0.02]))
    update = coord.submit_update(bat_id=4, node=1, apply_time=0.01, arrival=0.1)
    assert dc.run_until_done(max_time=60.0)
    dc.run(until=dc.now + 2.0)
    stats = dc.metrics.bats[4]
    assert update.new_version == 1
    assert stats.loads >= 2  # original load + the re-load of version 1


def test_relaxed_reader_sees_old_version_strict_reader_waits():
    dc = make_dc()
    coord = UpdateCoordinator(dc, mutate=lambda bat_id, payload: payload)
    results = {}

    def strict_reader():
        result = yield from coord.read_latest(
            node=2, query_id=77, bat_id=4, min_version=1
        )
        results["strict"] = result

    dc.submit(QuerySpec.simple(0, node=2, arrival=0.0, bat_ids=[4],
                               processing_times=[0.02]))
    Process(dc.sim, strict_reader)
    coord.submit_update(bat_id=4, node=1, apply_time=0.02, arrival=0.05)
    dc._start_ticks()
    dc.run(until=10.0)
    assert results["strict"].ok
    assert results["strict"].version >= 1


def test_update_validation():
    dc = make_dc()
    coord = UpdateCoordinator(dc)
    with pytest.raises(ValueError):
        coord.submit_update(bat_id=4, node=0, apply_time=-1)


def test_update_counts_as_query_in_metrics():
    dc = make_dc()
    coord = UpdateCoordinator(dc)
    coord.submit_update(bat_id=4, node=0, apply_time=0.01)
    assert dc.run_until_done(max_time=30.0)
    update_records = [r for r in dc.metrics.queries.values() if r.tag == "update"]
    assert len(update_records) == 1
    assert update_records[0].finished_at is not None


# ----------------------------------------------------------------------
# functional-mode updates: payload mutation visible to readers
# ----------------------------------------------------------------------
def test_functional_update_changes_payloads():
    """An update mutates the owner's disk payload; after the stale copy
    retires, SQL readers see the new values."""
    import numpy as np

    from repro.core import DataCyclotronConfig
    from repro.dbms.executor import RingDatabase
    from repro.sim.process import Process
    from repro.xtn.updates import UpdateCoordinator

    ring = RingDatabase(DataCyclotronConfig(n_nodes=3, seed=4))
    ring.load_table("t", {"id": np.arange(4), "v": np.array([1.0, 2.0, 3.0, 4.0])})
    before = ring.submit("SELECT sum(v) s FROM t", node=1)
    assert ring.run_until_done(max_time=60.0)
    assert before.result.rows() == [(10.0,)]

    def double_payload(bat_id, payload):
        from repro.dbms.bat import BAT

        return BAT(payload.tail * 2, head=payload.head,
                   hseqbase=payload.hseqbase)

    coordinator = UpdateCoordinator(ring.dc, mutate=double_payload)
    v_handle = next(
        h for h in ring.catalog.all_handles() if h.column == "v"
    )
    update = coordinator.submit_update(
        bat_id=v_handle.bat_id, node=2, apply_time=0.01, arrival=ring.dc.now
    )
    assert ring.dc.run_until_done(max_time=120.0)
    assert update.new_version == 1
    # let the stale circulating copy retire at the owner
    ring.dc.run(until=ring.dc.now + 5.0)

    # a strict reader pulls the new version off the ring
    results = {}

    def strict_reader():
        result = yield from coordinator.read_latest(
            node=0, query_id=999, bat_id=v_handle.bat_id, min_version=1
        )
        results["read"] = result

    Process(ring.dc.sim, strict_reader)
    ring.dc.run(until=ring.dc.now + 10.0)
    assert results["read"].ok
    assert results["read"].version == 1
    assert results["read"].payload.tail.tolist() == [2.0, 4.0, 6.0, 8.0]
