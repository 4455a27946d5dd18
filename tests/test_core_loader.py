"""Unit tests for the DC data loader (owner-side hot-set membership)."""

import pytest

from repro.core.loader import DISK_BANDWIDTH

from helpers import MB, build_dc


def owner_with_bats(sizes, queue_capacity, **overrides):
    bats = {i: size for i, size in enumerate(sizes)}
    dc = build_dc(
        n_nodes=2,
        bats=bats,
        owners={i: 0 for i in bats},
        bat_queue_capacity=queue_capacity,
        load_all_interval=100.0,  # manual load_all in tests
        loit_static=0.0,          # loaded BATs never cool down
        **overrides,
    )
    dc._start_ticks()
    return dc, dc.nodes[0]


def test_try_load_starts_fetch_and_reserves_space():
    dc, owner = owner_with_bats([MB], queue_capacity=4 * MB)
    assert owner.loader.try_load(0)
    entry = owner.s1.get(0)
    assert entry.loading and not entry.loaded
    assert owner.loader.reserved_bytes > 0
    dc.sim.run(until=0.1)
    assert entry.loaded
    assert owner.loader.reserved_bytes == 0


def test_try_load_idempotent_while_loading():
    dc, owner = owner_with_bats([MB], queue_capacity=4 * MB)
    owner.loader.try_load(0)
    reserved = owner.loader.reserved_bytes
    assert owner.loader.try_load(0)  # already under way
    assert owner.loader.reserved_bytes == reserved


def test_reservation_prevents_overcommit():
    """Two loads that individually fit but together exceed the queue:
    the second is postponed."""
    dc, owner = owner_with_bats([MB, MB], queue_capacity=int(1.5 * MB))
    assert owner.loader.try_load(0)
    assert not owner.loader.try_load(1)
    assert owner.s1.get(1).pending


def test_load_all_starts_what_fits():
    dc, owner = owner_with_bats(
        [MB, MB, MB], queue_capacity=int(2.5 * MB)
    )
    for bat_id in range(3):
        owner.loader.tag_pending(owner.s1.get(bat_id))
    started = owner.loader.load_all()
    assert started == 2  # two fit, the third stays pending
    assert owner.s1.get(2).pending


def test_load_all_skips_big_tries_next():
    """A big pending BAT does not block smaller, younger ones (the
    queue-filling behaviour of section 4.2.3)."""
    dc, owner = owner_with_bats(
        [3 * MB, MB], queue_capacity=int(1.5 * MB)
    )
    big = owner.s1.get(0)
    small = owner.s1.get(1)
    owner.loader.tag_pending(big)
    dc.sim.run(until=0.01)
    owner.loader.tag_pending(small)  # younger than the big one
    started = owner.loader.load_all()
    assert started == 1
    assert small.loading and big.pending


def test_pending_tag_records_first_postponement_only():
    dc, owner = owner_with_bats([MB], queue_capacity=4 * MB)
    entry = owner.s1.get(0)
    owner.loader.tag_pending(entry)
    first_since = entry.pending_since
    dc.sim.run(until=0.05)
    owner.loader.tag_pending(entry)
    assert entry.pending_since == first_since
    assert dc.metrics.pending_postponed == 1


def test_deleted_bat_never_loads():
    dc, owner = owner_with_bats([MB], queue_capacity=4 * MB)
    owner.s1.get(0).deleted = True
    assert not owner.loader.try_load(0)
    dc.sim.run(until=0.1)
    assert not owner.s1.get(0).loaded


def test_deleted_during_fetch_not_announced():
    dc, owner = owner_with_bats([MB], queue_capacity=4 * MB)
    owner.loader.try_load(0)
    owner.s1.get(0).deleted = True
    dc.sim.run(until=0.1)
    assert not owner.s1.get(0).loaded
    assert dc.metrics.bats.get(0) is None or dc.metrics.bats[0].loads == 0


def test_disk_fetch_time_model():
    dc, owner = owner_with_bats([MB], queue_capacity=4 * MB)
    t = owner.loader.disk_fetch_time(4 * MB)
    assert t == pytest.approx(
        dc.config.disk_latency + 4 * MB / DISK_BANDWIDTH
    )


def test_remote_request_triggers_load_and_delivery():
    dc, owner = owner_with_bats([MB], queue_capacity=4 * MB)
    requester = dc.nodes[1]
    requester.request(1, [0])
    fut = requester.pin(1, 0)
    dc.sim.run(until=1.0)
    assert fut.done and fut.value.ok
    assert dc.metrics.bats[0].loads == 1
