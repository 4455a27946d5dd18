"""A landed or flushed flight is freed by its reference count.

A :class:`~repro.core.fastforward.Flight` holds its completion event and
the event's arguments hold the flight.  Unless the fast-forwarder breaks
that cycle when the flight lands or is flushed, every flight outlives
its use until the cyclic collector runs: thousands of collections per
run on flight-heavy rings, and unbounded growth with collection off.
"""

import gc
import random

from repro.core import MB, DataCyclotron, DataCyclotronConfig
from repro.core.fastforward import Flight
from repro.core.query import QuerySpec


def flight_heavy_ring(n_nodes: int = 24, n_bats: int = 6, duration: float = 40.0,
                      seed: int = 3) -> DataCyclotron:
    """A sparse fast-forwarded ring whose flights land and get flushed."""
    dc = DataCyclotron(DataCyclotronConfig(n_nodes=n_nodes, seed=seed, fast_forward=True))
    for bat_id in range(n_bats):
        dc.add_bat(bat_id, MB)
    rng = random.Random(seed)
    t = 0.0
    query_id = 0
    while True:
        t += rng.expovariate(4.0)
        if t >= duration:
            break
        dc.submit(QuerySpec.simple(
            query_id, rng.randrange(n_nodes), t, [rng.randrange(n_bats)], [0.002]
        ))
        query_id += 1
    assert dc.run_until_done(max_time=duration * 10)
    return dc


def test_no_flight_is_left_for_the_cyclic_collector():
    gc.collect()
    gc.disable()
    try:
        dc = flight_heavy_ring()
        stats = dc.ff.stats()
        assert stats["flights"] > 100
        assert stats["landed_in_stop"] > 0 and stats["flushes"] > 0
        # keep what the collector frees, to look for flights in it
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = [obj for obj in gc.garbage if isinstance(obj, Flight)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert cyclic == []
