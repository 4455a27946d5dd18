"""One retry ladder, two hosts (docs/parallel.md section 5).

The shared-clock :class:`RingFederation` and the partitioned kernel's
:class:`PartitionedFederation` run the same dispatch/retry ladder, so a
fault scenario inside their common scope must play out identically.
"""

import pytest

from repro.core.config import DataCyclotronConfig
from repro.core.query import QuerySpec
from repro.events import types as ev
from repro.multiring import MultiRingConfig, PartitionedFederation, RingFederation

MB = 1 << 20


def _config() -> MultiRingConfig:
    return MultiRingConfig(
        base=DataCyclotronConfig(seed=3, resilience=True),
        n_rings=2, nodes_per_ring=4,
        splitmerge_interval=0, placement_interval=0, ship_threshold=0,
    )


def _ring0(fed):
    """(ring 0's DataCyclotron, the bus its retry events appear on)."""
    if isinstance(fed, PartitionedFederation):
        part = fed.partitions[0]
        return part.dc, part.bus
    return fed.rings[0], fed.bus


@pytest.mark.parametrize(
    "build",
    [RingFederation, PartitionedFederation],
    ids=["shared-clock", "partitioned"],
)
def test_retry_routes_around_an_announced_crash(build):
    """``crash_node`` publishes ``NodeCrashed``: the death is public, so
    the retry must land on the next live node, not on the corpse."""
    fed = build(_config())
    for bat_id in range(4):
        fed.add_bat(bat_id, MB)
    ring, bus = _ring0(fed)
    retried, abandoned = [], []
    bus.subscribe(ev.QueryRetried, retried.append)
    bus.subscribe(ev.QueryAbandoned, abandoned.append)
    ring.sim.post_at(0.05, ring.crash_node, 1)
    fed.submit(QuerySpec.simple(
        0, node=1, arrival=0.1, bat_ids=[0], processing_times=[0.001]
    ))
    assert fed.run_until_done(max_time=30.0)
    assert [e.node for e in retried] == [2]
    assert abandoned == []
    assert fed.summary()["failed"] == 0


@pytest.mark.parametrize("node", [-1, 8, 9])
def test_partitioned_submit_rejects_out_of_range_nodes(node):
    """Static topology: there is no inactive ring to remap to, so a node
    index outside ``[0, total_nodes)`` is a caller bug, not a ring."""
    fed = PartitionedFederation(_config())
    fed.add_bat(0, MB)
    with pytest.raises(ValueError, match="node"):
        fed.submit(QuerySpec.simple(
            0, node=node, arrival=0.0, bat_ids=[0], processing_times=[0.001]
        ))
    assert fed.summary()["submitted"] == 0
