"""Fast-forward on vs off must be *bit-identical* in ``summary()``.

The rotation fast path (repro.core.fastforward) coalesces runs of
disinterested hops into one analytic arrival.  Its contract is total
observational equivalence: every per-BAT statistic, every query record,
every link counter and the processed-event count must match a classic
run byte for byte -- floats included, because the closed-form per-hop
times are computed with the same stepwise arithmetic the classic path
uses.  This suite sweeps seeds, workload shapes, the resilience
detector, a shared-clock federation and a sparse 64-node ring with mixed
BAT sizes in both request directions; any drift is a correctness bug in
the fast path, never an acceptable approximation.
"""

import random

import pytest

from repro.core import MB, DataCyclotron, DataCyclotronConfig
from repro.core.query import QuerySpec
from repro.multiring import MultiRingConfig, RingFederation
from repro.workloads.base import UniformDataset, populate_ring
from repro.workloads.gaussian import GaussianWorkload
from repro.workloads.uniform import UniformWorkload

SEEDS = [1, 2, 3, 5, 8]


def run_summary(seed: int, workload: str, fast_forward: bool,
                resilience: bool = False) -> dict:
    dataset = UniformDataset(n_bats=80, min_size=MB, max_size=2 * MB, seed=seed)
    dc = DataCyclotron(DataCyclotronConfig(
        n_nodes=6,
        bandwidth=40 * MB,
        bat_queue_capacity=15 * MB,
        resend_timeout=5.0,
        seed=seed,
        fast_forward=fast_forward,
        resilience=resilience,
    ))
    populate_ring(dc, dataset)
    kwargs = {
        "n_nodes": 6, "queries_per_second": 10.0, "duration": 5.0,
        "min_bats": 1, "max_bats": 3, "min_proc_time": 0.02, "max_proc_time": 0.05,
        "seed": seed,
    }
    if workload == "gaussian":
        # the section 5.3 skew: a hot middle, long disinterested tails
        wl = GaussianWorkload(
            dataset, mean=dataset.n_bats / 2, std=dataset.n_bats / 20, **kwargs
        )
    else:
        wl = UniformWorkload(dataset, **kwargs)
    wl.submit_to(dc)
    assert dc.run_until_done(max_time=300.0)
    return observables(dc)


def observables(dc: DataCyclotron) -> dict:
    """``summary()`` plus the non-summary observables that must also agree."""
    summary = dc.summary()
    summary["_processed"] = dc.sim.processed
    summary["_link_stats"] = [
        (ch.link.stats.messages_sent, ch.link.stats.bytes_sent,
         ch.link.stats.messages_delivered, repr(ch.link.busy_time),
         ch.link.stats.max_queue_bytes)
        for ch in (*dc.ring.data, *dc.ring.request)
    ]
    return summary


@pytest.mark.parametrize("workload", ["uniform", "gaussian"])
@pytest.mark.parametrize("seed", SEEDS)
def test_summary_bit_identical(seed: int, workload: str):
    on = run_summary(seed, workload, fast_forward=True)
    off = run_summary(seed, workload, fast_forward=False)
    assert on == off


@pytest.mark.parametrize("workload", ["uniform", "gaussian"])
@pytest.mark.parametrize("seed", SEEDS)
def test_summary_bit_identical_with_resilience(seed: int, workload: str):
    # the detector's heartbeat/monitor stream must interleave identically;
    # request coalescing self-disables, BAT coalescing stays on
    on = run_summary(seed, workload, fast_forward=True, resilience=True)
    off = run_summary(seed, workload, fast_forward=False, resilience=True)
    assert on == off


def run_federation_summary(seed: int, fast_forward: bool) -> dict:
    """Two 16-node rings, each BAT pinned on its ring (static LOIT 0) so
    rotation dominates, under a light stream that fetches across rings:
    gateway traffic rides through standing flights."""
    dataset = UniformDataset(n_bats=8, min_size=MB, max_size=MB, seed=seed)
    fed = RingFederation(MultiRingConfig(
        base=DataCyclotronConfig(
            n_nodes=16, bat_queue_capacity=10 * MB, seed=seed,
            fast_forward=fast_forward, loit_static=0.0,
        ),
        n_rings=2,
        nodes_per_ring=16,
        splitmerge_interval=0.0,
    ))
    for bat_id, size in dataset.sizes.items():
        fed.add_bat(bat_id, size)
    GaussianWorkload(
        dataset, n_nodes=32, queries_per_second=0.25, duration=8.0,
        mean=dataset.n_bats / 2, std=2.0, min_bats=1, max_bats=2,
        min_proc_time=0.002, max_proc_time=0.005, seed=seed,
    ).submit_to(fed)
    assert fed.run_until_done(max_time=60.0)
    if fast_forward:
        assert sum(ring.ff.stats()["flights"] for ring in fed.rings) > 0
    summary = fed.summary()
    assert summary["fetches_served"] > 0, "no cross-ring traffic"
    # summary() landed every ring's open flights itself: an explicit
    # flush finds nothing left to credit
    for ring in fed.rings:
        ring.ff.flush_all()
    assert summary["events_processed"] == fed.sim.processed
    summary["_processed"] = fed.sim.processed
    return summary


@pytest.mark.parametrize("seed", SEEDS)
def test_federation_summary_bit_identical(seed: int):
    assert run_federation_summary(seed, True) == run_federation_summary(seed, False)


def run_sparse_mixed(seed: int, fast_forward: bool, requests_clockwise: bool,
                     attached: bool):
    """64 nodes, 8 BATs alternating 1 MB / 2 MB, two of them hot, Poisson
    3 q/s x 120 s: long flights (tens of hops) of two wire sizes, so the
    hops a link accounts at *landing* interleave differently from the
    ones it accounts at *transmit*."""
    dc = DataCyclotron(DataCyclotronConfig(
        n_nodes=64, seed=seed, fast_forward=fast_forward,
        requests_clockwise=requests_clockwise,
    ))
    if not attached:
        dc.detach_metrics()
    for bat_id in range(8):
        dc.add_bat(bat_id, (1 + bat_id % 2) * MB)
    rng = random.Random(seed)
    arrival, query_id = rng.expovariate(3.0), 0
    while arrival < 120.0:
        dc.submit(QuerySpec.simple(
            query_id, rng.randrange(64), arrival, [rng.randrange(2)], [0.002]
        ))
        arrival += rng.expovariate(3.0)
        query_id += 1
    assert dc.run_until_done(max_time=3600.0)
    return observables(dc), dc.ff.stats()


# seeds on which the parent of the derived ``Link.busy_time`` differed
# between on and off, in ``repr(busy_time)`` of 7-25 links and nothing else
@pytest.mark.parametrize("attached", [True, False], ids=["attached", "detached"])
@pytest.mark.parametrize("requests_clockwise", [False, True], ids=["anti", "clockwise"])
@pytest.mark.parametrize("seed", [5, 7])
def test_sparse_mixed_sizes_bit_identical(seed, requests_clockwise, attached):
    on, stats = run_sparse_mixed(seed, True, requests_clockwise, attached)
    off, _ = run_sparse_mixed(seed, False, requests_clockwise, attached)
    assert on == off
    # every path that re-derives a hop from the arc ran in the ``on`` leg
    for path in ("flights", "flushes", "truncations", "released", "tolerated"):
        assert stats[path] > 0, path


ALL_STATS = (
    "messages_sent", "messages_delivered", "messages_dropped",
    "bytes_sent", "bytes_delivered", "bytes_dropped", "max_queue_bytes",
)


def run_stats_mid_run(seed: int, fast_forward: bool):
    """The 64-node mixed-size ring again, but its link statistics are
    read *while it runs* -- landed flights still owe the links their
    lazily folded hops at those instants -- and across a bandwidth epoch
    (a degradation closes ``busy_time``'s old one, then heals)."""
    dc = DataCyclotron(DataCyclotronConfig(
        n_nodes=64, seed=seed, fast_forward=fast_forward,
    ))
    dc.detach_metrics()
    for bat_id in range(8):
        dc.add_bat(bat_id, (1 + bat_id % 2) * MB)
    rng = random.Random(seed)
    arrival, query_id = rng.expovariate(3.0), 0
    while arrival < 60.0:
        dc.submit(QuerySpec.simple(
            query_id, rng.randrange(64), arrival, [rng.randrange(2)], [0.002]
        ))
        arrival += rng.expovariate(3.0)
        query_id += 1
    links = [ch.link for ch in (*dc.ring.data, *dc.ring.request)]
    reads, owed = [], 0
    for instant in (7.3, 19.0, 33.3, 41.0, 44.5, 52.0):
        if instant == 41.0:
            dc.degrade_link(9, "data", bandwidth_factor=0.5, duration=5.0)
        dc.run(until=instant)
        dc.ff.flush_all()  # flights still in the air are not classic state
        owed += any(link.lane.pending for link in links)
        reads.append([
            tuple(getattr(link.stats, name) for name in ALL_STATS)
            + (repr(link.busy_time),)
            for link in links
        ])
        assert not any(link.lane.pending for link in links)  # folded by the read
    assert dc.run_until_done(max_time=3600.0)
    reads.append(observables(dc))
    return reads, owed, dc.ff.stats()


@pytest.mark.parametrize("seed", [5, 7])
def test_link_stats_read_mid_run_bit_identical(seed):
    on, owed, stats = run_stats_mid_run(seed, True)
    off, never_owed, off_stats = run_stats_mid_run(seed, False)
    assert on == off
    # the read barrier had something to fold before the fault pinned the
    # classic path, and nothing ever when the fast path is off
    assert owed >= 3 and stats["stat_folds"] >= owed
    assert never_owed == 0 and off_stats["stat_folds"] == 0
