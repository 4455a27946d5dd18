"""``submit_all`` books arrivals; the run is the one ``submit`` makes.

``DataCyclotron.submit_all`` and ``RingFederation.submit_all`` keep a
record per query until it is the next to arrive
(:class:`repro.sim.process.ArrivalStream`), where ``submit`` builds a
process per query at once.  Both draw the same heap key per query, so
every run below is made twice, one ``submit`` per spec and one
``submit_all`` of the same specs, and must read the same: the
``(time, seq, qualname)`` stream of ``SimEventFired``, every query's
finish time, ``summary()`` and the engine's counts.  The specs are out
of arrival order on purpose and share arrival instants; on the
federation some are shipped to the ring holding their data, so they
arrive one inter-ring hop later than submitted and overtake queries
submitted before them.  Without a ``SimEventFired`` subscriber the
rings fast-forward, and the finish times, summary and counts still
agree.
"""

import random

import pytest

from repro.core import MB, DataCyclotron, DataCyclotronConfig
from repro.core.query import QuerySpec
from repro.events import types as ev
from repro.multiring import MultiRingConfig, RingFederation

N_BATS = 6


def _ring(seed):
    return DataCyclotron(DataCyclotronConfig(n_nodes=6, seed=seed))


def _federation(seed):
    return RingFederation(MultiRingConfig(
        base=DataCyclotronConfig(n_nodes=4, seed=seed),
        n_rings=2, nodes_per_ring=4,
    ))


def _specs(n_nodes: int, seed: int, n: int = 60) -> list:
    """``n`` queries on a 50 ms arrival grid, shuffled.  BATs are homed
    round-robin over a federation's two rings, so a query reading BATs
    of one parity only ships when it enters the other ring."""
    rng = random.Random(seed)
    specs = []
    for q in range(n):
        parity = rng.randrange(2)
        bats = rng.sample(range(parity, N_BATS, 2), rng.randint(1, 2))
        specs.append(QuerySpec.simple(
            q, rng.randrange(n_nodes), rng.randrange(30) * 0.05, bats,
            [0.002] * len(bats),
        ))
    rng.shuffle(specs)
    arrivals = [spec.arrival for spec in specs]
    assert arrivals != sorted(arrivals)
    assert len(set(arrivals)) < len(arrivals)
    return specs


def _run(build, n_nodes: int, seed: int, stream: bool, observed: bool) -> dict:
    host = build(seed)
    for bat_id in range(N_BATS):
        host.add_bat(bat_id, MB)
    fired, finished, shipped = [], [], []
    if observed:
        host.bus.subscribe(
            ev.SimEventFired, lambda e: fired.append((e.t, e.seq, e.fn))
        )
    host.bus.subscribe(ev.QueryShipped, shipped.append)
    for ring in getattr(host, "rings", [host]):
        ring.bus.subscribe(
            ev.QueryFinished, lambda e: finished.append((e.query_id, repr(e.t)))
        )
    specs = _specs(n_nodes, seed)
    if stream:
        assert host.submit_all(specs) == len(specs)
    else:
        for spec in specs:
            host.submit(spec)
    assert host.run_until_done(max_time=120.0)
    return {
        "fired": fired,
        "finished": sorted(finished),
        "shipped": len(shipped),
        "summary": repr(host.summary()),
        "counts": (host.sim.processed, host.sim.dispatched, host.sim.credited),
    }


@pytest.mark.parametrize("observed", [True, False], ids=["observed", "detached"])
@pytest.mark.parametrize("build, n_nodes", [(_ring, 6), (_federation, 8)],
                         ids=["ring", "federation"])
@pytest.mark.parametrize("seed", [1, 7])
def test_submit_all_runs_as_submit_each(build, n_nodes, seed, observed):
    each = _run(build, n_nodes, seed, stream=False, observed=observed)
    together = _run(build, n_nodes, seed, stream=True, observed=observed)
    assert together == each
    assert len(each["finished"]) == 60
    if observed:
        started = [f for f in each["fired"] if f[2] == "Process._resume"]
        assert len(started) >= 60
    if build is _federation:
        assert each["shipped"] > 0


@pytest.mark.parametrize("build, n_nodes", [(_ring, 6), (_federation, 8)],
                         ids=["ring", "federation"])
def test_a_spec_that_fails_validation_keeps_the_ones_before_it(build, n_nodes):
    """As with one ``submit`` per spec: the specs before a bad one are
    submitted and run, the bad one and those after it are not."""
    specs = _specs(n_nodes, 3)
    bad = QuerySpec.simple(999, 0, 0.1, [N_BATS + 1], [0.001])
    host = build(3)
    for bat_id in range(N_BATS):
        host.add_bat(bat_id, MB)
    with pytest.raises(ValueError, match="unknown BATs"):
        host.submit_all(specs[:20] + [bad] + specs[20:])
    assert host.run_until_done(max_time=120.0)
    assert host.completed_queries == 20
