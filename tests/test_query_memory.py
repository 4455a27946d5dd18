"""A query holds memory only while it runs.

A query submitted with ``submit`` that has not arrived yet is a
:class:`Process` that holds its body and arguments, not a generator
frame.  One submitted with ``submit_all`` is less until it is the next
to arrive: a record of its heap key and arguments in an
:class:`ArrivalStream`.  A finished process drops its generator; and a
settled federated query leaves nothing keyed by its id in its host's
maps but its outcome.  The byte bounds are per pending query, traced
over 2 000 submissions: a generator frame per query, or a copy of every
spec, breaks the ``submit`` bound, and a process per query the
``submit_all`` one.
"""

import gc
import tracemalloc

import pytest

from repro.core import MB, DataCyclotron, DataCyclotronConfig
from repro.core.query import QuerySpec
from repro.events import types as ev
from repro.multiring import MultiRingConfig, PartitionedFederation, RingFederation
from repro.sim.engine import Simulator
from repro.sim.process import Delay, Process

N_PENDING = 2000
# submit: Process + its argument tuple + the heap entry and its bound
# method, about 400-470 B on CPython 3.11; an unstarted generator frame
# adds about 290 B, and a federation's copy of the spec more
BYTES_PER_PENDING_QUERY = 512
# submit_all: the record -- a tuple of the key and the arguments, its
# time and seq objects and a list slot -- about 135-145 B; a process per
# query, as submit builds, is about 400-420 B
BYTES_PER_PENDING_ARRIVAL = 200


def _ring():
    return DataCyclotron(DataCyclotronConfig(n_nodes=4, seed=1))


def _federation():
    return RingFederation(MultiRingConfig(
        base=DataCyclotronConfig(n_nodes=4, seed=1),
        n_rings=2, nodes_per_ring=4,
        placement_interval=0, splitmerge_interval=0,
    ))


@pytest.mark.parametrize("build, n_nodes, stream", [
    (_ring, 4, False), (_federation, 8, False),
    (_ring, 4, True), (_federation, 8, True),
], ids=["ring", "federation", "ring-submit_all", "federation-submit_all"])
def test_a_query_that_has_not_arrived_holds_no_generator(build, n_nodes, stream):
    host = build()
    for bat_id in range(8):
        host.add_bat(bat_id, MB)
    specs = [
        QuerySpec.simple(i, i % n_nodes, 1.0 + i * 0.001,
                         [i % 8, (i + 3) % 8], [0.001, 0.002])
        for i in range(N_PENDING)
    ]
    procs = []
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        if stream:
            assert host.submit_all(specs) == N_PENDING
        else:
            procs = [host.submit(spec) for spec in specs]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(proc._gen is None for proc in procs)
    if stream:
        assert host.sim.pending == 1  # only the next arrival is on the heap
    bound = BYTES_PER_PENDING_ARRIVAL if stream else BYTES_PER_PENDING_QUERY
    assert held / N_PENDING < bound
    assert host.run_until_done(max_time=60.0)
    assert host.completed_queries == N_PENDING
    assert all(proc.finished and proc._gen is None for proc in procs)


def test_a_finished_process_holds_no_generator_nor_waiters():
    sim = Simulator()

    def worker(duration):
        yield Delay(duration)
        return duration

    proc = Process(sim, worker, 1.5)
    joined = proc.join()
    sim.run(until=1.0)
    assert proc._gen is not None and proc._waiters == [joined]
    sim.run()
    assert proc.finished and proc.result == 1.5 and joined.value == 1.5
    assert (proc._gen, proc._body, proc._args, proc._waiters) == (None,) * 4


def _resilient_config() -> MultiRingConfig:
    return MultiRingConfig(
        base=DataCyclotronConfig(seed=3, resilience=True),
        n_rings=2, nodes_per_ring=4,
        splitmerge_interval=0, placement_interval=0, ship_threshold=0,
    )


def _hosts(fed):
    """(every ladder host, ring 0, the bus ring 0's retries appear on)."""
    if isinstance(fed, PartitionedFederation):
        part = fed.partitions[0]
        return fed.partitions, part.dc, part.bus
    return [fed], fed.rings[0], fed.bus


@pytest.mark.parametrize(
    "build", [RingFederation, PartitionedFederation],
    ids=["shared-clock", "partitioned"],
)
def test_a_settled_federated_query_leaves_only_its_outcome(build):
    """Model: ``test_refusals_on_a_federation_leave_no_per_query_state``.
    The first query arrives at a node that crashed, so it retries (so do
    queries that read a BAT the crash took, which give up in the end).
    Afterwards no map of any host holds an id but
    ``_outcomes``."""
    fed = build(_resilient_config())
    for bat_id in range(8):
        fed.add_bat(bat_id, MB)
    hosts, ring0, bus = _hosts(fed)
    retried = []
    bus.subscribe(ev.QueryRetried, retried.append)
    ring0.sim.post_at(0.05, ring0.crash_node, 1)
    ids = range(100, 112)  # clear of the ring ids other maps are keyed by
    for i, query_id in enumerate(ids):
        fed.submit(QuerySpec.simple(
            query_id, node=1 if i == 0 else (i + 1) % 8, arrival=0.1 + 0.01 * i,
            bat_ids=[i % 8], processing_times=[0.001],
        ))
    assert fed.run_until_done(max_time=30.0)
    assert ids[0] in {e.query_id for e in retried}
    assert fed.summary()["completed"] == len(ids)
    outcomes = {}
    for host in hosts:
        outcomes.update(host._outcomes)
        held = {
            name for name, value in vars(host).items()
            if isinstance(value, (set, frozenset, dict))
            and any(query_id in value for query_id in ids)
        }
        assert held <= {"_outcomes"}
        assert host._attempts == {}
    assert sorted(outcomes) == list(ids)
